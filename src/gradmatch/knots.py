"""Data-driven knot selection by generalized cross-validation.

The selector scores cubic-spline knot subsets with GCV, using effective
parameter count 3m + 1 for m interior knots (the cubic charge of Friedman and
Silverman, 1989), and walks the subsets of a uniform candidate grid with
alternating elimination and addition sweeps.  All state dimensions share the
knots; their residual sums pool into one score.

Every subset S of the candidate grid spans a subspace of the full grid's
spline space: B_S = B_grid T_S.  T_S comes from sampling S's B-splines at the
grid's Greville sites, where B_grid is square and well conditioned.  The walk
therefore reduces [B_grid | Y] to its R factor once per search and scores
every trial on that factor, at a cost that does not depend on the sample
size.  Dropping knot xi from S constrains the jump of the
(order - 1)-th derivative at xi to zero; adding xi to S adds the direction of
the truncated power (t - xi)_+^(order - 1).  The walk carries one orthonormal
basis q = R_B C of span(R_B T_S), with C the grid coefficients of its
functions.  It is factored from T_S once per search and then updated per
accepted move: a drop by one Householder reflection, an add by one
Gram-Schmidt column.  Each sweep is scored in one batch from q and C.
`gcv_score` stays the definition and the oracle: it scores any sweep whose
subset is rank-deficient, and a move from such a subset factors its
successor afresh.  The chosen subset is solved once on the n rows; that one
solve gives the fit, read in the grid's basis by T_S, and its gcv_value.  The
grid-only tables (jumps, Greville sites, collocation inverse, truncated
powers, and T_grid, the full grid's refinement every search starts from)
are built once per grid and shared, read-only, by its searches.  So is
B_grid on the observation times, once per grid and times: every replication
of a study shares both, and the n x K design is the largest table (about
136 KB at n = 500, K = 34).  Both caches are bounded and fill on first use,
never at import.
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
    spline on the chosen knots, equal to fit_least_squares there, its path
    in the candidate grid's basis; it is left out of comparisons.
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


def _subset_score(times, ys, subset, order, interval):
    try:
        return gcv_score(times, ys, subset, order, interval)
    except DegreesOfFreedomError:
        return np.inf


@dataclass(frozen=True)
class _Basis:
    """An orthonormal basis q = R_B C of span(R_B T_S), and R_Y's fit on it.

    coef is C, the grid coefficients of the basis functions.
    """

    q: np.ndarray
    coef: np.ndarray
    qty: np.ndarray
    resid: np.ndarray
    rss: np.ndarray


@dataclass(frozen=True)
class _Subset:
    """A knot subset of the grid (sorted indices) and its basis; fit is None if it is rank-deficient."""

    idx: list
    fit: _Basis | None


@lru_cache(maxsize=16)
def _grid_tables(basis: BSplineBasis) -> tuple[np.ndarray, ...]:
    """The read-only tables of a candidate grid's basis: jumps, sites, collocate, powers, T_grid (see _NestedSpace)."""
    order = basis.knots.order
    # the (order-1)-th derivative is constant on each span; row j is its jump at grid[j]
    bps = basis.knots.breakpoints
    jumps = np.diff(eval_basis_derivative(basis, 0.5 * (bps[:-1] + bps[1:]), order - 1), axis=0)
    # B_grid at its Greville sites is square and well conditioned, so the
    # values there of any spline in the grid's space give its grid coefficients
    sites = np.lib.stride_tricks.sliding_window_view(basis.augmented[1:-1], order - 1).mean(axis=1)
    collocate = np.linalg.inv(eval_basis(basis, sites))
    # column j: grid coefficients of the truncated power (t - grid[j])_+^(order - 1)
    grid = np.asarray(basis.knots.interior_knots)
    powers = collocate @ np.clip(sites[:, None] - grid[None, :], 0.0, None) ** (order - 1)
    # T_S of the full grid, where every search starts
    refine = collocate @ eval_basis(basis, sites)
    return splines.read_only(jumps, sites, collocate, powers, refine)


@lru_cache(maxsize=8)
def _grid_design(basis: BSplineBasis, times: bytes) -> np.ndarray:
    """The design of the basis on the float64 times of these bytes, read-only, shared by every search on both."""
    return splines.read_only(design_matrix(basis, np.frombuffer(times)))[0]


def _refinement(grid_basis: BSplineBasis, basis: BSplineBasis) -> np.ndarray:
    """T_S, with B_S = B_grid T_S: the grid coefficients of each B-spline of the subset basis B_S."""
    _, sites, collocate, _, _ = _grid_tables(grid_basis)
    return collocate @ eval_basis(basis, sites)


def _orthogonalize(q, g):
    """g made orthogonal to the columns of q, and its coefficients a on them: g = h + q a."""
    a = q.T @ g
    h = g - q @ a
    a2 = q.T @ h  # a second pass keeps h orthogonal to rounding level
    return h - q @ a2, a + a2


class _NestedSpace:
    """GCV of the subsets of one candidate grid, scored on the R factor of [B_grid | Y].

    Counts every subset it scores in `trials`.
    """

    def __init__(self, ts, ys, interval, grid, order):
        self.ts, self.ys, self.interval, self.grid, self.order = ts, ys, interval, grid, order
        self.n = ts.size
        self.trials = 0
        self.basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        design = _grid_design(self.basis, ts.tobytes())
        dim = design.shape[1]
        r = np.linalg.qr(np.hstack((design, ys)), mode="r")
        self.rb, self.ry = r[:, :dim], r[:, dim:]
        self.jumps, self.sites, self.collocate, self.powers, self.full = _grid_tables(self.basis)
        self.directions = self.rb @ self.powers

    def refinement(self, idx) -> np.ndarray:
        """T_S of the subset idx (see _refinement); the full grid's is tabulated."""
        if len(idx) == len(self.grid):
            return self.full
        return _refinement(self.basis, BSplineBasis(KnotSequence(self.interval, tuple(self.grid[idx]), self.order)))

    def _fit(self, q, coef) -> _Basis:
        qty = q.T @ self.ry
        resid = self.ry - q @ qty
        return _Basis(q, coef, qty, resid, np.sum(resid**2, axis=0))

    def factor(self, idx: list) -> _Subset:
        """S = idx with its basis from a thin QR q r of R_B T_S, and C = T_S r^-1.

        fit is None if R_B T_S is rank-deficient at SV_CUTOFF.  B_S = Q R_B T_S
        with Q orthonormal, so both share singular values.
        """
        refine = self.refinement(idx)
        q, r = np.linalg.qr(self.rb @ refine)
        sv = np.linalg.svd(r, compute_uv=False)
        if sv.size < refine.shape[1] or sv[-1] <= splines.SV_CUTOFF * sv[0]:
            return _Subset(idx, None)
        return _Subset(idx, self._fit(q, np.linalg.solve(r.T, refine.T).T))

    def drop(self, subset: _Subset, pos: int) -> _Subset:
        """S without its pos-th knot xi: the null space of the jump row J_xi C.

        The Householder reflection H that maps J_xi C to a multiple of e_1
        leaves that null space to the columns of q H and C H after the first.
        """
        idx = subset.idx[:pos] + subset.idx[pos + 1 :]
        fit = subset.fit
        if fit is None:
            return self.factor(idx)
        v = self.jumps[subset.idx[pos]] @ fit.coef
        v[0] += np.copysign(np.linalg.norm(v), v[0])
        v *= np.sqrt(2.0) / np.linalg.norm(v)  # H = I - v v'
        q, coef = (a[:, 1:] - np.outer(a @ v, v[1:]) for a in (fit.q, fit.coef))
        return _Subset(idx, self._fit(q, coef))

    def add(self, subset: _Subset, j: int) -> _Subset:
        """S plus knot j: q gains the column h_j / |h_j| of add_scores, C its grid coefficients.

        A direction that add_scores would find rank-deficient refactors afresh.
        """
        idx = sorted(subset.idx + [j])
        fit = subset.fit
        if fit is None:
            return self.factor(idx)
        g = self.directions[:, j]
        h, a = _orthogonalize(fit.q, g)
        norm = np.linalg.norm(h)
        if norm**2 <= splines.SV_CUTOFF * (g @ g):
            return self.factor(idx)
        q = np.column_stack((fit.q, h / norm))
        coef = np.column_stack((fit.coef, (self.powers[:, j] - fit.coef @ a) / norm))
        return _Subset(idx, self._fit(q, coef))

    def _scores(self, subset: _Subset, count: int, num_knots: int, nested, trials) -> np.ndarray:
        """Scores of the count trial subsets of m = num_knots knots each.

        +inf when 3m + 1 >= n; else nested(subset.fit); else, when the
        subset is rank-deficient or nested returns None, gcv_score of each
        subset trials() lists.
        """
        self.trials += count
        if effective_params(num_knots) >= self.n:
            return np.full(count, np.inf)
        fit = subset.fit
        scores = None if fit is None else nested(fit)
        if scores is None:
            scores = np.array(
                [_subset_score(self.ts, self.ys, self.grid[t], self.order, self.interval) for t in trials()]
            )
        return scores

    def score(self, subset: _Subset) -> float:
        m = len(subset.idx)
        nested = lambda fit: _gcv(fit.rss[None, :], self.n, m)
        return float(self._scores(subset, 1, m, nested, lambda: [subset.idx])[0])

    def drop_scores(self, subset: _Subset) -> np.ndarray:
        """Scores of S without its pos-th knot, for every pos.

        The RSS rises by (w' q'R_Y)^2 / |w|^2, with w' = J C and J the jump row at the knot.
        """
        idx = subset.idx

        def nested(fit):
            w = (self.jumps[idx] @ fit.coef).T
            rise = (w.T @ fit.qty) ** 2 / np.sum(w**2, axis=0)[:, None]
            return _gcv(fit.rss + rise, self.n, len(idx) - 1)

        trials = lambda: [idx[:p] + idx[p + 1 :] for p in range(len(idx))]
        return self._scores(subset, len(idx), len(idx) - 1, nested, trials)

    def add_scores(self, subset: _Subset, pool: list) -> np.ndarray:
        """Scores of S plus knot j, for every j in pool.

        With h_j the direction g_j = R_B tau_j made orthogonal to R_B T_S, the
        RSS falls by (h_j' E)^2 / |h_j|^2.  If some |h_j| <= sqrt(SV_CUTOFF) |g_j|,
        that trial is numerically rank-deficient and the sweep is scored by
        gcv_score.
        """
        idx = subset.idx

        def nested(fit):
            g = self.directions[:, pool]
            h, _ = _orthogonalize(fit.q, g)
            hh = np.sum(h**2, axis=0)
            if np.any(hh <= splines.SV_CUTOFF * np.sum(g**2, axis=0)):
                return None
            fall = (h.T @ fit.resid) ** 2 / hh[:, None]
            return _gcv(fit.rss - fall, self.n, len(idx) + 1)

        return self._scores(subset, len(pool), len(idx) + 1, nested, lambda: [sorted(idx + [j]) for j in pool])


def elim_add(times, y, interval, candidate_count: int) -> SelectionResult:
    """Greedy subset walk over a uniform candidate grid of cubic knots, guided by GCV.

    Starts from the full grid.  An elimination sweep repeatedly drops the knot
    whose removal lowers GCV the most; an addition sweep puts back the dropped
    knot that lowers it the most.  Sweeps alternate until neither changes the
    subset or ten sweeps have run.  While the current subset has too many
    effective parameters for the sample (score undefined, treated as +inf),
    elimination is forced so the walk always reaches scoreable territory.
    Ties break toward the smaller knot index, so the walk is deterministic.
    Trials are scored in the grid's nested spline space (see the module
    docstring).  The chosen subset is solved once on the n rows: that solve
    gives the returned fit, equal to fit_least_squares on the chosen knots,
    and the gcv_value, equal to gcv_score of the chosen subset.
    """
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    grid = uniform_knots(interval, candidate_count)
    space = _NestedSpace(ts, ys, interval, grid, KnotPolicy.order)
    current = space.factor(list(range(candidate_count)))
    current_score = space.score(current)
    best_subset, best_score = current.idx, current_score

    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        changed = False

        while current.idx:
            scores = space.drop_scores(current)
            pos = int(np.argmin(scores))  # first minimum; all +inf still shrinks at 0
            forced = not np.isfinite(current_score)
            if forced or scores[pos] < current_score:
                current = space.drop(current, pos)
                current_score = float(scores[pos])
                changed = True
                if current_score < best_score:
                    best_subset, best_score = current.idx, current_score
            else:
                break

        while True:
            pool = [j for j in range(candidate_count) if j not in current.idx]
            if not pool:
                break
            scores = space.add_scores(current, pool)
            pos = int(np.argmin(scores))
            if scores[pos] < current_score:
                current = space.add(current, pool[pos])
                current_score = float(scores[pos])
                changed = True
                if current_score < best_score:
                    best_subset, best_score = current.idx, current_score
            else:
                break

        if not changed:
            break

    if not np.isfinite(best_score):
        raise DegreesOfFreedomError(
            f"no scoreable knot subset for n = {ts.size} and {candidate_count} candidates"
        )
    return _selection(ts, ys, space.basis, best_subset, trials=space.trials, sweeps=sweeps)


def _selection(ts, ys, grid_basis, idx, trials, sweeps=0) -> SelectionResult:
    """The grid knots idx: their cubic fit, its path in the grid's basis, and GCV (+inf when 3m + 1 >= n)."""
    grid = grid_basis.knots.interior_knots
    chosen = tuple(grid[i] for i in idx)
    basis = BSplineBasis(KnotSequence(grid_basis.interval, chosen, KnotPolicy.order))
    fit, rss = splines._least_squares(basis, ts, ys)
    if len(chosen) < len(grid):
        fit = replace(fit, grid=(grid_basis.knots, fit.coefficients @ _refinement(grid_basis, basis).T))
    d = effective_params(len(chosen))
    return SelectionResult(
        selected_knots=chosen,
        gcv_value=float(_gcv(rss, ts.size, len(chosen))) if d < ts.size else np.inf,
        effective_params=d,
        candidates=grid,
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
        return _selection(ts, ys, grid_basis, range(count), trials=1)
    return elim_add(ts, y, interval, count)
