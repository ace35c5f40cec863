"""Data-driven knot selection by generalized cross-validation.

The selector scores cubic-spline knot subsets with GCV, using effective
parameter count 3m + 1 for m interior knots, and walks the subsets of a
uniform candidate grid with alternating elimination and addition sweeps.  All
state dimensions share the knots; their residual sums pool into one score.

Every subset S of the candidate grid spans a subspace of the full grid's
spline space: B_S = B_grid T_S.  T_S comes from sampling S's B-splines at the
grid's Greville sites, where B_grid is square and well conditioned.  The walk
therefore reduces [B_grid | Y] to its R factor once per search and scores
every trial on that factor, at a cost that does not depend on the sample
size.  Dropping knot xi from S constrains the jump of the
(order - 1)-th derivative at xi to zero; adding xi to S adds the direction of
the truncated power (t - xi)_+^(order - 1).  Each sweep is scored in one batch
from a thin QR of R_B T_S.  `gcv_score` stays the definition: it scores any
sweep whose small factor is rank-deficient, and the chosen subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreesOfFreedomError, TooFewObservationsError
from .splines import (
    BSplineBasis,
    KnotSequence,
    design_matrix,
    eval_basis,
    eval_basis_derivative,
    truncated_power_design,
)
from . import splines

# sample-size brackets for the default candidate count
_COUNT_TABLE = ((20, 15), (30, 15), (50, 20), (100, 30))
_MIN_OBSERVATIONS = 10


@dataclass(frozen=True)
class KnotPolicy:
    """How a pipeline chooses knots.

    candidate_count None means "derive from the sample size".  selection is
    either "elim-add" (GCV-guided subset walk) or "fixed-uniform" (use the full
    uniform grid as-is).
    """

    candidate_count: int | None = None
    order: int = 4
    selection: str = "elim-add"
    max_sweeps: int = 10

    def __post_init__(self):
        if self.candidate_count is not None and self.candidate_count < 1:
            raise ValueError(f"candidate_count must be >= 1, got {self.candidate_count}")
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.selection not in ("elim-add", "fixed-uniform"):
            raise ValueError(f"unknown selection rule {self.selection!r}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a knot search: chosen subset, its score, and bookkeeping.

    trials counts the knot subsets the search scored; sweeps counts its
    elimination-and-addition rounds (at most the policy's max_sweeps).
    """

    selected_knots: tuple[float, ...]
    gcv_value: float
    effective_params: int
    candidates: tuple[float, ...]
    trials: int = 0
    sweeps: int = 0


def default_knot_count(n: int) -> int:
    """Candidate knot count for a sample of size n.

    Calibrated at n in {20, 30} -> 15, n = 50 -> 20, n >= 100 -> 30; sizes in
    between snap to the nearest calibrated size (ties toward the smaller).
    """
    if n < _MIN_OBSERVATIONS:
        raise TooFewObservationsError(f"need at least {_MIN_OBSERVATIONS} observations, got {n}")
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


def gcv_score(times, y, knot_subset, order: int = 4, interval=None) -> float:
    """GCV score of a knot subset: [(1/n) RSS] / (1 - d/n)^2 summed over dims.

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
    if interval is None:
        interval = (float(ts[0]), float(ts[-1]))
    basis = BSplineBasis(KnotSequence(interval, tuple(knot_subset), order))
    design = design_matrix(basis, ts)
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=splines.SV_CUTOFF)
    rss = np.sum((ys - design @ coef) ** 2, axis=0)
    return float(np.sum(rss / n) / (1.0 - d / n) ** 2)


def _subset_score(times, ys, subset, order, interval):
    try:
        return gcv_score(times, ys, subset, order, interval)
    except DegreesOfFreedomError:
        return np.inf


@dataclass(frozen=True)
class _LeastSquares:
    """Least squares of R_Y on the columns of R_B T_S, by thin QR."""

    q: np.ndarray
    r: np.ndarray
    qty: np.ndarray
    resid: np.ndarray
    rss: np.ndarray


class _Subset:
    """A knot subset of the grid (sorted indices) and its refinement matrix T_S."""

    def __init__(self, space: _NestedSpace, idx: list):
        self.space = space
        self.idx = idx
        self.refine = space.refinement(idx)

    @cached_property
    def fit(self) -> _LeastSquares | None:
        """The subset's fit on the grid's R factor; None if it is rank-deficient."""
        return self.space.least_squares(self.refine)


class _NestedSpace:
    """GCV of the subsets of one candidate grid, scored on the R factor of [B_grid | Y].

    Counts every subset it scores in `trials`.
    """

    def __init__(self, ts, ys, interval, grid, order):
        self.ts, self.ys, self.interval, self.grid, self.order = ts, ys, interval, grid, order
        self.n = ts.size
        self.trials = 0
        basis = BSplineBasis(KnotSequence(interval, tuple(grid), order))
        design = design_matrix(basis, ts)
        dim = design.shape[1]
        r = np.linalg.qr(np.hstack((design, ys)), mode="r")
        self.rb, self.ry = r[:, :dim], r[:, dim:]
        # the (order-1)-th derivative is constant on each span; row j is its jump at grid[j]
        bps = basis.knots.breakpoints
        top = eval_basis_derivative(basis, 0.5 * (bps[:-1] + bps[1:]), order - 1)
        self.jumps = np.diff(top, axis=0)
        # B_grid at its Greville sites is square and well conditioned, so the
        # values there of any spline in the grid's space give its grid coefficients
        self.sites = np.lib.stride_tricks.sliding_window_view(basis.augmented[1:-1], order - 1).mean(axis=1)
        self.collocate = np.linalg.inv(eval_basis(basis, self.sites))
        powers = truncated_power_design(interval, grid, order, self.sites)[:, order:]
        self.directions = self.rb @ self.collocate @ powers

    def refinement(self, idx) -> np.ndarray:
        """T_S, with B_S = B_grid T_S: the grid coefficients of each B-spline of S."""
        basis = BSplineBasis(KnotSequence(self.interval, tuple(self.grid[idx]), self.order))
        return self.collocate @ eval_basis(basis, self.sites)

    def least_squares(self, refine) -> _LeastSquares | None:
        """Fit on the columns of R_B T_S, or None if they are rank-deficient at SV_CUTOFF.

        B_S = Q R_B T_S with Q orthonormal, so both share singular values.
        """
        q, r = np.linalg.qr(self.rb @ refine)
        sv = np.linalg.svd(r, compute_uv=False)
        if sv.size < refine.shape[1] or sv[-1] <= splines.SV_CUTOFF * sv[0]:
            return None
        qty = q.T @ self.ry
        resid = self.ry - q @ qty
        return _LeastSquares(q, r, qty, resid, np.sum(resid**2, axis=0))

    def _gcv(self, rss, num_knots):
        return np.sum(rss / self.n, axis=-1) / (1.0 - effective_params(num_knots) / self.n) ** 2

    def _scores(self, subset: _Subset, trials: list, num_knots: int, nested) -> np.ndarray:
        """Scores of the trial subsets of m = num_knots knots each.

        +inf when 3m + 1 >= n; else nested(subset.fit); else, when the
        subset's fit is rank-deficient or nested returns None, gcv_score.
        """
        self.trials += len(trials)
        if effective_params(num_knots) >= self.n:
            return np.full(len(trials), np.inf)
        fit = subset.fit
        scores = None if fit is None else nested(fit)
        if scores is None:
            scores = np.array(
                [_subset_score(self.ts, self.ys, self.grid[t], self.order, self.interval) for t in trials]
            )
        return scores

    def score(self, subset: _Subset) -> float:
        m = len(subset.idx)
        return float(self._scores(subset, [subset.idx], m, lambda fit: self._gcv(fit.rss[None, :], m))[0])

    def drop_scores(self, subset: _Subset) -> np.ndarray:
        """Scores of S without its pos-th knot, for every pos.

        The RSS rises by (J c)^2 / |R_S^-T J'|^2, with J the jump row at the knot.
        """
        idx = subset.idx

        def nested(fit):
            w = np.linalg.solve(fit.r.T, (self.jumps[idx] @ subset.refine).T)
            rise = (w.T @ fit.qty) ** 2 / np.sum(w**2, axis=0)[:, None]
            return self._gcv(fit.rss + rise, len(idx) - 1)

        return self._scores(subset, [idx[:p] + idx[p + 1 :] for p in range(len(idx))], len(idx) - 1, nested)

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
            h = g - fit.q @ (fit.q.T @ g)
            h -= fit.q @ (fit.q.T @ h)  # a second pass keeps h orthogonal to rounding level
            hh = np.sum(h**2, axis=0)
            if np.any(hh <= splines.SV_CUTOFF * np.sum(g**2, axis=0)):
                return None
            fall = (h.T @ fit.resid) ** 2 / hh[:, None]
            return self._gcv(fit.rss - fall, len(idx) + 1)

        return self._scores(subset, [sorted(idx + [j]) for j in pool], len(idx) + 1, nested)


def elim_add(times, y, interval, candidate_count: int, order: int = 4, max_sweeps: int = 10) -> SelectionResult:
    """Greedy subset walk over a uniform candidate grid, guided by GCV.

    Starts from the full grid.  An elimination sweep repeatedly drops the knot
    whose removal lowers GCV the most; an addition sweep puts back the dropped
    knot that lowers it the most.  Sweeps alternate until neither changes the
    subset or max_sweeps is hit.  While the current subset has too many
    effective parameters for the sample (score undefined, treated as +inf),
    elimination is forced so the walk always reaches scoreable territory.
    Ties break toward the smaller knot index, so the walk is deterministic.
    Trials are scored in the grid's nested spline space (see the module
    docstring); the returned gcv_value is gcv_score of the chosen subset.
    """
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(y, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    grid = uniform_knots(interval, candidate_count)
    space = _NestedSpace(ts, ys, interval, grid, order)
    current = _Subset(space, list(range(candidate_count)))
    current_score = space.score(current)
    best_subset, best_score = current.idx, current_score

    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        changed = False

        while current.idx:
            scores = space.drop_scores(current)
            pos = int(np.argmin(scores))  # first minimum; all +inf still shrinks at 0
            forced = not np.isfinite(current_score)
            if forced or scores[pos] < current_score:
                current = _Subset(space, current.idx[:pos] + current.idx[pos + 1 :])
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
                current = _Subset(space, sorted(current.idx + [pool[pos]]))
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
    chosen = grid[np.asarray(best_subset, dtype=int)]
    return SelectionResult(
        selected_knots=tuple(float(v) for v in chosen),
        gcv_value=gcv_score(ts, ys, chosen, order, interval),
        effective_params=effective_params(len(best_subset)),
        candidates=tuple(float(v) for v in grid),
        trials=space.trials,
        sweeps=sweeps,
    )


def select_knots(times, y, interval, policy: KnotPolicy) -> SelectionResult:
    """Apply a KnotPolicy: elim-add search or the fixed uniform grid."""
    ts = np.asarray(times, dtype=float)
    count = policy.candidate_count if policy.candidate_count is not None else default_knot_count(ts.size)
    if policy.selection == "fixed-uniform":
        grid = uniform_knots(interval, count)
        score = _subset_score(ts, y, grid, policy.order, interval)
        return SelectionResult(
            selected_knots=tuple(float(v) for v in grid),
            gcv_value=float(score),
            effective_params=effective_params(count),
            candidates=tuple(float(v) for v in grid),
            trials=1,
        )
    return elim_add(ts, y, interval, count, policy.order, policy.max_sweeps)
