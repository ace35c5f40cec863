"""Shared pytest plumbing: the acceptance-criterion scoreboard, the truncated power basis, GLV's stacked D2F,
the central-difference smooth functional and an in-process stand-in for the worker pools.

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
    knot search's collocation table.
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


def central_difference_smooth_integral(nodes, d1f, d2f, w, target):
    """The smooth functional's trapezoid sum with d/dt[w D2F'] by central differences, one-sided at the ends.

    d1f is (m, d, d) and d2f the free D2F, (m, d, p), both along the path on
    the nodes; the kernel A = -w D2F' D1F - d/dt[w D2F'] is formed per node and
    integrated against target by trapezoid: the oracle for the summation by
    parts the estimator uses.
    """

    def spans(a):
        padded = np.concatenate([a[:1], a, a[-1:]])
        return padded[2:] - padded[:-2]

    d2f_t = np.swapaxes(d2f, 1, 2)
    prod = w[:, None, None] * d2f_t
    dprod = spans(prod) / spans(nodes)[:, None, None]
    kernel = -w[:, None, None] * np.einsum("jpd,jdk->jpk", d2f_t, d1f) - dprod
    return np.einsum("j,jpd,jd->p", 0.5 * spans(nodes), kernel, target)


@pytest.fixture
def inline_pools(monkeypatch):
    """ProcessPoolExecutor, in the CLI and the harness, replaced by a pool that runs map in this process.

    The stand-in neither subclasses nor constructs ProcessPoolExecutor, so it
    starts no process whatever max_workers it is given.  The returned dict
    lists each pool's max_workers ("workers") and each map's chunksize
    ("chunks").
    """
    import gradmatch.cli as cli
    import gradmatch.montecarlo as montecarlo

    record = {"workers": [], "chunks": []}

    class InlinePool:
        def __init__(self, max_workers=None):
            record["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            record["chunks"].append(chunksize)
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    return record

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
