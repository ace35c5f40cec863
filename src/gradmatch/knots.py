"""Data-driven knot selection by generalized cross-validation.

The selector scores cubic-spline knot subsets with GCV, using effective
parameter count 3m + 1 for m interior knots (the cubic charge of Friedman and
Silverman, 1989), and walks the subsets of a uniform candidate grid with
alternating elimination and addition sweeps.  All state dimensions share the
knots; their residual sums pool into one score.

Every subset S of the candidate grid spans a subspace of the full grid's
spline space: the splines g whose jumps of the (order - 1)-th derivative at
the dropped knots D vanish, J_D g = 0.  With Q_B R_B the thin QR of B_grid on
the times, R_Y = Q_B' Y, JR = J R_B^-1 and A = JR JR', the full grid's fit
has jumps r = JR R_Y, and RSS(S) = RSS(grid) + diag(r_D' A_DD^-1 r_D), summed
over the state dimensions by GCV.  The walk keeps one bordered matrix
W = [[A, r], [r', 0]] swept on D (Goodnight's SWEEP operator, 1979): toggling
knot k moves the RSS by W[k, c:]^2 / W[k, k], a rise for a drop and a fall
for an add, an accepted move is one sweep, and the current RSS is
RSS(grid) - diag(W[c:, c:]).  So every trial is scored at a cost that does
not depend on the sample size.  `gcv_score` stays the definition and the
oracle: it scores every trial where R_B is rank-deficient, any sweep with a
pivot at or under SV_CUTOFF A[k, k], and every trial after a move whose own
pivot is that small, which is not swept.  The search's chosen subset is
fitted on the grid's K rows: B_S = Q_B R_B T_S, with T_S read off the grid's
Greville sites, so the fit is the lstsq of R_Y on R_B T_S, read in the grid's
basis by T_S, and its RSS adds the part of Y outside the grid's span.  The
fixed-uniform policy searches nothing and fits its grid by
fit_least_squares' own n-row lstsq; on a near-square design (15 knots at
n = 20) the K-row solve lands 4e-12 from it.  The grid-only tables (jumps,
Greville sites, collocation inverse) are built once per grid, and Q_B, R_B,
JR and A once per grid and times, all read-only: every replication of a
study shares them, so a search computes only R_Y, r and its sweeps.  Q_B is
the largest table (about 136 KB at n = 500, K = 34).  Both caches are
bounded and fill on first use, never at import.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import DegreesOfFreedomError, GradMatchError
from .splines import (
    BSplineBasis,
    KnotSequence,
    SplineFit,
    design_matrix,
    eval_basis,
    eval_basis_derivative,
)
from . import splines

# sample-size brackets for the default candidate count
_COUNT_TABLE = ((20, 15), (30, 15), (50, 20), (100, 30))
_MIN_OBSERVATIONS = 10
_MAX_SWEEPS = 10


@dataclass(frozen=True)
class KnotPolicy:
    """How a pipeline chooses knots.

    candidate_count None means "derive from the sample size"; 0 gives the
    knot-free cubic.  selection is either "elim-add" (GCV-guided subset walk)
    or "fixed-uniform" (use the full uniform grid as-is).  The splines are
    cubic (order 4), the order the 3m + 1 charge is for.
    """

    order: ClassVar[int] = 4
    candidate_count: int | None = None
    selection: str = "elim-add"

    def __post_init__(self):
        if self.candidate_count is not None and self.candidate_count < 0:
            raise ValueError(f"candidate_count must be >= 0, got {self.candidate_count}")
        if self.selection not in ("elim-add", "fixed-uniform"):
            raise ValueError(f"unknown selection rule {self.selection!r}")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a knot search: chosen subset, its score, and bookkeeping.

    trials counts the knot subsets the search scored; sweeps counts its
    elimination-and-addition rounds (at most ten).  fit is the least-squares
    spline on the chosen knots, equal to fit_least_squares there to rounding
    (a search's fit is solved on the grid's K rows), its path in the candidate
    grid's basis; it is left out of comparisons.
    """

    selected_knots: tuple[float, ...]
    gcv_value: float
    effective_params: int
    candidates: tuple[float, ...]
    trials: int = 0
    sweeps: int = 0
    fit: SplineFit | None = field(default=None, compare=False, repr=False)


def default_knot_count(n: int) -> int:
    """Candidate knot count for a sample of size n.

    Calibrated at n in {20, 30} -> 15, n = 50 -> 20, n >= 100 -> 30; sizes in
    between snap to the nearest calibrated size (ties toward the smaller).
    """
    if n < _MIN_OBSERVATIONS:
        raise GradMatchError(f"need at least {_MIN_OBSERVATIONS} observations, got {n}")
    if n >= _COUNT_TABLE[-1][0]:
        return _COUNT_TABLE[-1][1]
    best = min(_COUNT_TABLE, key=lambda item: (abs(item[0] - n), item[0]))
    return best[1]


def uniform_knots(interval: tuple[float, float], count: int) -> np.ndarray:
    """count equally spaced interior knots, endpoints excluded."""
    lo, hi = interval
    return lo + np.arange(1, count + 1) * (hi - lo) / (count + 1)


def effective_params(num_knots: int) -> int:
    """Effective parameter count 3m + 1 charged to a cubic fit with m knots."""
    return 3 * num_knots + 1


def _gcv(rss, n: int, num_knots: int):
    """GCV of the per-dimension RSS (last axis) of m = num_knots knots."""
    return np.sum(rss / n, axis=-1) / (1.0 - effective_params(num_knots) / n) ** 2


def gcv_score(times, y, knot_subset, order: int, interval) -> float:
    """GCV score of a knot subset of the interval: [(1/n) RSS] / (1 - d/n)^2 summed over dims.

    d = 3m + 1 must stay below n or the denominator is meaningless; that case
    raises DegreesOfFreedomError.
    """
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    n = ts.size
    d = effective_params(len(knot_subset))
    if d >= n:
        raise DegreesOfFreedomError(f"effective parameters {d} >= sample size {n}")
    basis = BSplineBasis(KnotSequence(interval, tuple(knot_subset), order))
    return float(_gcv(splines._least_squares(basis, ts, ys)[1], n, len(knot_subset)))


@lru_cache(maxsize=16)
def _grid_tables(basis: BSplineBasis) -> tuple[np.ndarray, ...]:
    """The read-only tables of a candidate grid's basis: jumps, Greville sites and collocation inverse."""
    order = basis.knots.order
    # the (order-1)-th derivative is constant on each span; row j is its jump at grid[j]
    bps = basis.knots.breakpoints
    jumps = np.diff(eval_basis_derivative(basis, 0.5 * (bps[:-1] + bps[1:]), order - 1), axis=0)
    # B_grid at its Greville sites is square and well conditioned, so the
    # values there of any spline in the grid's space give its grid coefficients
    sites = np.lib.stride_tricks.sliding_window_view(basis.augmented[1:-1], order - 1).mean(axis=1)
    return splines.read_only(jumps, sites, np.linalg.inv(eval_basis(basis, sites)))


def _refinement(grid_basis: BSplineBasis, basis: BSplineBasis) -> np.ndarray:
    """T_S, with B_S = B_grid T_S: the grid coefficients of each B-spline of the subset basis B_S."""
    _, sites, collocate = _grid_tables(grid_basis)
    return collocate @ eval_basis(basis, sites)


@lru_cache(maxsize=8)
def _grid_factor(basis: BSplineBasis, times: bytes) -> tuple:
    """Q_B, R_B, JR = J R_B^-1 and A = JR JR', read-only, for the float64 times of these bytes.

    Q_B R_B is the thin QR of the basis' design on the times, and J its jump
    rows; every search on both shares them.  JR and A are None where R_B is
    rank-deficient at SV_CUTOFF, which includes fewer times than basis functions.
    """
    qb, rb = np.linalg.qr(design_matrix(basis, np.frombuffer(times)))
    sv = np.linalg.svd(rb, compute_uv=False)
    if sv.size < basis.dimension or sv[-1] <= splines.SV_CUTOFF * sv[0]:
        return (*splines.read_only(qb, rb), None, None)
    jr = np.linalg.solve(rb.T, _grid_tables(basis)[0].T).T
    return splines.read_only(qb, rb, jr, jr @ jr.T)


def _bordered(jr: np.ndarray, a: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """W = [[A, r], [r', 0]] with r = JR R_Y: the walk's matrix at the full grid, swept on no knot."""
    r = jr @ ry
    return np.block([[a, r], [r.T, np.zeros((r.shape[1],) * 2)]])


def _sweep(w: np.ndarray, k: int) -> None:
    """Sweep the symmetric w on index k in place; a second sweep on k restores it.

    Row and column k are divided by |pivot|, so an un-sweep keeps their signs.
    """
    pivot = w[k, k]
    row = w[k].copy()
    w -= np.outer(row, row) / pivot
    w[k] = w[:, k] = row / abs(pivot)
    w[k, k] = -1.0 / pivot


def _pivots_pass(w, a, ks, add: bool) -> np.ndarray:
    """Whether toggling each knot of ks (or the one knot ks) pivots above SV_CUTOFF A[k, k].

    ks are all kept knots (drops) or all dropped ones (adds).  The pivot of k,
    JR_k's squared distance from the other dropped rows of JR, is W[k, k] for
    a drop and -1 / W[k, k] for an add.
    """
    pivot = w.diagonal()[ks]
    return (-1.0 / pivot if add else pivot) > splines.SV_CUTOFF * a.diagonal()[ks]


def _toggled_rss(w, rss0, ks) -> np.ndarray:
    """Per-dimension RSS of W's subset with each knot of ks toggled (all kept, or all dropped).

    Toggling k moves the RSS by W[k, c:]^2 / W[k, k], a rise for a drop and a
    fall for an add.
    """
    c = w.shape[0] - rss0.size
    return rss0 - w.diagonal()[c:] + w[ks, c:] ** 2 / w.diagonal()[ks, None]


def elim_add(times, y, interval, candidate_count: int) -> SelectionResult:
    """Greedy subset walk over a uniform candidate grid of cubic knots, guided by GCV.

    Starts from the full grid.  An elimination sweep repeatedly drops the knot
    whose removal lowers GCV the most; an addition sweep puts back the dropped
    knot that lowers it the most.  Sweeps alternate until neither changes the
    subset or ten sweeps have run.  While the current subset has too many
    effective parameters for the sample (score undefined, treated as +inf),
    elimination is forced so the walk always reaches scoreable territory;
    from there every move lowers the score, so it ends on its best subset.
    Ties break toward the smaller knot index, so the walk is deterministic.
    Trials are scored from the bordered matrix W swept on the dropped knots
    (see the module docstring); after a move whose pivot fails _pivots_pass,
    W is dropped and gcv_score scores every later trial.  The chosen subset is
    solved once on the grid's K rows, which gives the returned fit and its
    gcv_value.
    """
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    n, c = ts.size, candidate_count
    grid = uniform_knots(interval, c)
    basis = BSplineBasis(KnotSequence(interval, tuple(grid), KnotPolicy.order))
    qb, rb, jr, a = _grid_factor(basis, ts.tobytes())
    ry = qb.T @ ys
    rss0 = np.sum((ys - qb @ ry) ** 2, axis=0)  # the RSS outside the grid's span: the full grid's when A is not None
    w = None if a is None else _bordered(jr, a, ry)
    dropped = np.zeros(c, dtype=bool)
    trials = 1

    def scores(ks, add: bool) -> np.ndarray:
        """GCV of the current subset with each knot of ks toggled: +inf when 3m + 1 >= n.

        Read off W (see _toggled_rss) when every pivot passes, else scored by gcv_score.
        """
        nonlocal trials
        trials += len(ks)
        num_knots = c - ks.size + 1 if add else ks.size - 1
        if effective_params(num_knots) >= n:
            return np.full(len(ks), np.inf)
        if w is not None and _pivots_pass(w, a, ks, add).all():
            return _gcv(_toggled_rss(w, rss0, ks), n, num_knots)
        toggled = [np.flatnonzero(dropped == (np.arange(c) == k)) for k in ks]
        return np.array([gcv_score(ts, ys, grid[idx], KnotPolicy.order, interval) for idx in toggled])

    if effective_params(c) >= n:
        current_score = np.inf
    elif w is not None:
        current_score = float(_gcv(rss0, n, c))
    else:
        current_score = gcv_score(ts, ys, grid, KnotPolicy.order, interval)

    for sweeps in range(1, _MAX_SWEEPS + 1):
        changed = False
        for add in (False, True):
            while (ks := np.flatnonzero(dropped == add)).size:
                scored = scores(ks, add)
                pos = int(np.argmin(scored))  # first minimum; all +inf still shrinks at 0
                forced = not (add or np.isfinite(current_score))
                if forced or scored[pos] < current_score:
                    dropped[ks[pos]] = not add
                    if w is not None and _pivots_pass(w, a, ks[pos], add):
                        _sweep(w, ks[pos])
                    else:
                        w = None  # a sweep on this pivot would spoil every later read of W
                    current_score = float(scored[pos])
                    changed = True
                else:
                    break
        if not changed:
            break

    if not np.isfinite(current_score):
        raise DegreesOfFreedomError(
            f"no scoreable knot subset for n = {n} and {candidate_count} candidates"
        )
    # B_S = Q_B R_B T_S, so the fit solves the K-row problem min |R_Y - R_B T_S c|
    if not dropped.any():
        return _selection(basis, *splines._solve(basis, ts, rb, ry, rss0), trials, sweeps)
    chosen = BSplineBasis(KnotSequence(interval, tuple(grid[~dropped]), KnotPolicy.order))
    refine = _refinement(basis, chosen)
    fit, rss = splines._solve(chosen, ts, rb @ refine, ry, rss0)
    return _selection(basis, replace(fit, grid=(basis.knots, fit.coefficients @ refine.T)), rss, trials, sweeps)


def _selection(grid_basis, fit, rss, trials, sweeps=0) -> SelectionResult:
    """The result of a fit on some of the grid's knots and its per-dimension RSS: GCV is +inf when 3m + 1 >= n."""
    chosen, n = fit.basis.knots.interior_knots, fit.times.size
    d = effective_params(len(chosen))
    return SelectionResult(
        selected_knots=chosen,
        gcv_value=float(_gcv(rss, n, len(chosen))) if d < n else np.inf,
        effective_params=d,
        candidates=grid_basis.knots.interior_knots,
        trials=trials,
        sweeps=sweeps,
        fit=fit,
    )


def select_knots(times, y, interval, policy: KnotPolicy) -> SelectionResult:
    """Apply a KnotPolicy: elim-add search or the fixed uniform grid, with the chosen knots' fit."""
    ts = np.asarray(times, dtype=float)
    count = policy.candidate_count if policy.candidate_count is not None else default_knot_count(ts.size)
    if policy.selection == "fixed-uniform":
        ys = np.asarray(y, dtype=float)
        ys = ys[:, None] if ys.ndim == 1 else ys
        grid_basis = BSplineBasis(KnotSequence(interval, tuple(uniform_knots(interval, count)), KnotPolicy.order))
        return _selection(grid_basis, *splines._least_squares(grid_basis, ts, ys), trials=1)
    return elim_add(ts, y, interval, count)
