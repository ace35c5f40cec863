"""Shared pytest plumbing: the acceptance-criterion scoreboard, the truncated power basis and GLV's stacked D2F.

Acceptance tests (tests/test_acceptance.py) each cover one numbered criterion
and record a PASS/FAIL verdict here; at the end of the run one line per
criterion is printed after the usual pytest summary. A criterion whose test
errored before recording shows up as FAIL rather than silently vanishing.
"""

import re

import numpy as np
import pytest


def truncated_power_design(interval, interior_knots, order, times):
    """Design matrix of the truncated power basis 1, t, .., t^(k-1), (t - xi_j)_+^(k-1).

    Spans the same space as the B-spline basis on the same knots but is much
    worse conditioned: an independent oracle for the B-splines and for the
    knot search's truncated-power table.
    """
    ts = np.asarray(times, dtype=float)
    lo, hi = interval
    assert np.all((lo <= ts) & (ts <= hi)), "times outside the interval"
    ks = np.asarray(interior_knots, dtype=float)
    poly = ts[:, None] ** np.arange(order)[None, :]
    trunc = np.clip(ts[:, None] - ks[None, :], 0.0, None) ** (order - 1)
    return np.hstack([poly, trunc])


def glv_param_jacobian_stacked(state):
    """GLV's D2F, (..., 2, 6), as nested np.stack: the oracle for the model's filled array."""
    x = state[..., 0]
    y = state[..., 1]
    z = np.zeros_like(x)
    row0 = np.stack([x * x, x * y, x, z, z, z], axis=-1)
    row1 = np.stack([z, z, z, x * y, y * y, y], axis=-1)
    return np.stack([row0, row1], axis=-2)

_RESULTS = {}
_COLLECTED = set()

_TITLES = {
    1: "spline property suite (partition of unity, derivative, least squares)",
    2: "integrator conserves the predator-prey first integral",
    3: "closed-form and iterative estimators agree",
    4: "variation-of-constants solver matches direct integration",
    5: "estimator mean and spread at n=500 match reference values",
    6: "boundary-vanishing weight reduces error on the damped system",
    7: "weighted estimator spread shrinks at a root-n rate",
    8: "estimates pass the normality check",
    9: "boundary term vanishes under a boundary-vanishing weight",
    10: "local identifiability diagnostic",
}


class CriterionRecorder:
    """Collects one verdict per numbered acceptance criterion."""

    def record(self, number, passed, detail=""):
        _RESULTS[int(number)] = (bool(passed), str(detail))

    def check(self, number, passed, detail=""):
        """Record the verdict, then assert it so pytest also reports it."""
        self.record(number, passed, detail)
        assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="session")
def criteria():
    return CriterionRecorder()


def pytest_collection_finish(session):
    # the final items, after -m and -k deselection: a deselected criterion is not expected to record
    for item in session.items:
        match = re.search(r"test_criterion_(\d+)", item.name)
        if match:
            _COLLECTED.add(int(match.group(1)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    numbers = sorted(_COLLECTED | set(_RESULTS))
    if not numbers:
        return
    terminalreporter.section("acceptance criteria")
    for number in numbers:
        passed, detail = _RESULTS.get(number, (False, "test errored before recording"))
        status = "PASS" if passed else "FAIL"
        title = _TITLES.get(number, "")
        line = f"criterion {number:2d} [{status}] {title}"
        if detail:
            line += f" :: {detail}"
        terminalreporter.write_line(line)
