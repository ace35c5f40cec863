"""The knot walk where the sample leaves few or no knot subsets scoreable.

A subset of m knots is scoreable when its GCV charge 3m + 1 stays below the
sample size n.  The walk eliminates knots while its score is not finite, and
raises DegreesOfFreedomError when no subset it reaches is scoreable.
"""

import numpy as np
import pytest

from gradmatch import DegreesOfFreedomError, elim_add
from test_knots import reference_elim_add


def test_forced_elimination_trials_and_sweeps():
    # n = 3 with 2 candidates: only the knot-free cubic (3m + 1 = 1 < 3) is
    # scoreable.  Trials: the full grid 1, forced drops 2 + 1, then two
    # addition sweeps of 2 each that find nothing finite to add.
    times = np.linspace(0.1, 0.9, 3)
    y = np.array([0.3, -0.2, 0.5])
    result = elim_add(times, y, (0.0, 1.0), 2)
    assert (result.selected_knots, result.trials, result.sweeps) == ((), 8, 2)
    want = reference_elim_add(times, y, (0.0, 1.0), 2)
    assert (want.selected_knots, want.trials, want.sweeps) == ((), 8, 2)
    # the knot-free cubic interpolates the three points, so both GCV values are zero up to rounding
    assert 0.0 <= result.gcv_value <= 1e-30 and 0.0 <= want.gcv_value <= 1e-30


@pytest.mark.parametrize("count", [0, 3])
def test_no_scoreable_subset_raises(count):
    # one observation: even the knot-free cubic's charge 3m + 1 = 1 reaches n
    with pytest.raises(DegreesOfFreedomError, match="no scoreable knot subset for n = 1"):
        elim_add(np.linspace(0.1, 0.9, 1), np.ones(1), (0.0, 1.0), count)
    with pytest.raises(DegreesOfFreedomError, match="no scoreable knot subset for n = 1"):
        reference_elim_add(np.linspace(0.1, 0.9, 1), np.ones(1), (0.0, 1.0), count)
