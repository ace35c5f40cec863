"""B-spline bases, least-squares spline regression, and the plug-in pointwise variance.

The regression step fits each state dimension of a noisy time series by ordinary
least squares on a shared B-spline basis.  The basis lives on an arbitrary
interval ``[t_lo, t_hi]``; interior knots are simple and strictly inside the
interval, and the endpoint knots are repeated ``order`` times so the basis is
clamped.  Evaluation uses the two-term recurrence with the usual 0/0 = 0
convention, half-open spans, and the last nonempty span closed on the right so
the basis still sums to one at ``t_hi``.  It runs locally, over the ``order``
B-splines nonzero on each point's span, and scatters them into dense matrices
that equal the all-columns recurrence bit for bit; non-finite points are
rejected.  The n-row design of a basis on a set of times is built once and
cached read-only (8 entries), so every fit on both shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import GradMatchError

# Relative singular-value cutoff for every pseudoinverse / least-squares solve.
SV_CUTOFF = 1e-12
QUAD_NODES = 1024  # uniform nodes of the estimator's quadrature grid, merged with the knots
FINE_POINTS = 2001  # uniform points of the Monte Carlo curve-error grid


@dataclass(frozen=True)
class KnotSequence:
    """Interval, simple interior knots, and spline order (degree + 1).

    Immutable after construction; instances can be shared across threads.
    """

    interval: tuple[float, float]
    interior_knots: tuple[float, ...]
    order: int = 4

    def __post_init__(self):
        lo, hi = self.interval
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise GradMatchError(f"interval must satisfy t_lo < t_hi, got {self.interval}")
        if self.order < 2:
            raise GradMatchError(f"order must be >= 2, got {self.order}")
        ks = np.asarray(self.interior_knots, dtype=float)
        if ks.size:
            if not np.all(np.isfinite(ks)):
                raise GradMatchError("interior knots must be finite")
            if np.any(np.diff(ks) <= 0.0):
                raise GradMatchError("interior knots must be strictly increasing")
            if ks[0] <= lo or ks[-1] >= hi:
                raise GradMatchError("interior knots must lie strictly inside the interval")
        object.__setattr__(self, "interval", (float(lo), float(hi)))
        object.__setattr__(self, "interior_knots", tuple(float(k) for k in ks))

    @property
    def num_interior(self) -> int:
        return len(self.interior_knots)

    @property
    def breakpoints(self) -> np.ndarray:
        lo, hi = self.interval
        return np.concatenate(([lo], self.interior_knots, [hi]))


@dataclass(frozen=True)
class BSplineBasis:
    """B-spline basis of dimension ``num_interior + order`` on a knot sequence."""

    knots: KnotSequence

    @property
    def dimension(self) -> int:
        return self.knots.num_interior + self.knots.order

    @property
    def interval(self) -> tuple[float, float]:
        return self.knots.interval

    @property
    def augmented(self) -> np.ndarray:
        """Augmented knot vector: each endpoint repeated ``order`` times, length ``num_interior + 2 * order``."""
        lo, hi = self.knots.interval
        k = self.knots.order
        return np.concatenate((np.full(k, lo), self.knots.interior_knots, np.full(k, hi)))


def _check_domain(interval: tuple[float, float], ts: np.ndarray) -> None:
    lo, hi = interval
    # written so that a NaN point fails the test too
    if ts.size and not (lo <= ts.min() and ts.max() <= hi):
        raise GradMatchError(
            f"evaluation points must lie in [{lo}, {hi}], got range [{ts.min()}, {ts.max()}]"
        )


def _local_columns(tau: np.ndarray, order: int, ts: np.ndarray, r: int = 0) -> np.ndarray:
    """r-th derivatives of the order-``order`` B-splines on ``tau`` at ``ts``, dense (m, len(tau)-order).

    The recurrences run over the ``order`` B-splines nonzero on each point's
    span, for values up to order ``order - r`` and for derivatives after that.
    """
    m = ts.size
    # half-open spans; t_hi falls in the last nonempty span
    span = np.minimum(np.searchsorted(tau, ts, side="right"), len(tau) - order) - 1
    t = ts[:, None]
    zero = np.zeros((m, 1))
    vals = np.ones((m, 1))
    for kp in range(2, order + 1):
        # the kp order-kp B-splines nonzero on the span: i = span-kp+1 .. span
        idx = span[:, None] + np.arange(1 - kp, 1)
        # zero-padded on either side; a product with the pad is an exact zero
        lower = np.hstack((zero, vals))
        upper = np.hstack((vals, zero))
        d1 = tau[idx + kp - 1] - tau[idx]
        d2 = tau[idx + kp] - tau[idx + 1]
        # 0/0 = 0 convention on repeated knots
        if kp <= order - r:
            left = np.where(d1 > 0.0, (t - tau[idx]) / np.where(d1 > 0.0, d1, 1.0), 0.0)
            right = np.where(d2 > 0.0, (tau[idx + kp] - t) / np.where(d2 > 0.0, d2, 1.0), 0.0)
            vals = left * lower + right * upper
        else:
            c1 = np.where(d1 > 0.0, (kp - 1) / np.where(d1 > 0.0, d1, 1.0), 0.0)
            c2 = np.where(d2 > 0.0, (kp - 1) / np.where(d2 > 0.0, d2, 1.0), 0.0)
            vals = c1 * lower - c2 * upper
    out = np.zeros((m, len(tau) - order))
    np.put_along_axis(out, span[:, None] + np.arange(1 - order, 1), vals, axis=1)
    return out


def eval_basis(basis: BSplineBasis, t) -> np.ndarray:
    """All basis function values at ``t``.

    Scalar ``t`` gives a vector of length ``basis.dimension``; an array of m
    points gives an (m, dimension) matrix.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(basis.interval, ts)
    out = _local_columns(basis.augmented, basis.knots.order, ts)
    return out[0] if np.ndim(t) == 0 else out


def eval_basis_derivative(basis: BSplineBasis, t, r: int = 1) -> np.ndarray:
    """r-th derivative of every basis function at ``t`` (left limit at t_hi)."""
    k = basis.knots.order
    if not 1 <= r < k:
        raise GradMatchError(f"derivative order must satisfy 1 <= r < {k}, got {r}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    _check_domain(basis.interval, ts)
    out = _local_columns(basis.augmented, k, ts, r)
    return out[0] if np.ndim(t) == 0 else out


def design_matrix(basis: BSplineBasis, times: Sequence[float]) -> np.ndarray:
    """n x dimension matrix of basis values at the observation times."""
    ts = np.asarray(times, dtype=float)
    if ts.size == 0:
        raise GradMatchError("design matrix needs at least one observation time")
    _check_domain(basis.interval, ts)
    return _local_columns(basis.augmented, basis.knots.order, ts)


@dataclass(frozen=True)
class SplineFit:
    """Least-squares spline fit of a (possibly multivariate) time series.

    coefficients has one row per state dimension.  residual_variance is the
    per-dimension RSS / (n - K) estimate (zeros when n <= K).  rank_deficient
    flags a design matrix whose numerical rank fell below the basis dimension;
    the minimum-norm solution is stored in that case.  grid is (grid knots, g)
    when the path is read in a larger grid's basis, x-hat = B_grid g'; it is
    left out of comparisons, and None means the fit is its own grid.
    """

    basis: BSplineBasis
    coefficients: np.ndarray
    residual_variance: np.ndarray
    times: np.ndarray
    rank_deficient: bool = False
    grid: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def grid_path(self) -> tuple[KnotSequence, np.ndarray]:
        """(grid knots, g), the path x-hat = B_grid g'."""
        return (self.basis.knots, self.coefficients) if self.grid is None else self.grid


@lru_cache(maxsize=8)
def _design(basis: BSplineBasis, times: bytes) -> np.ndarray:
    """design_matrix of the basis on the float64 times of these bytes, read-only: every fit on both shares it."""
    return read_only(design_matrix(basis, np.frombuffer(times)))[0]


def _cached_design(basis: BSplineBasis, times) -> np.ndarray:
    """design_matrix(basis, times), read-only, built once per basis and float64 times."""
    return _design(basis, np.asarray(times, dtype=float).tobytes())


def _least_squares(basis: BSplineBasis, ts: np.ndarray, ys: np.ndarray) -> tuple[SplineFit, np.ndarray]:
    """The fit of the (n, d) ys on the basis and its per-dimension RSS: the basis' cached design, one lstsq."""
    return _solve(basis, ts, _cached_design(basis, ts), ys)


def _solve(basis: BSplineBasis, ts: np.ndarray, design: np.ndarray, rhs: np.ndarray, rss0=0.0):
    """The basis' fit on the times ts from one lstsq of rhs on design, and its RSS: rss0 plus the solve's.

    design is the basis' design on ts and rhs the observations Y, or Q' times
    each, for a Q with orthonormal columns whose span holds the design's, and
    rss0 the RSS of Y outside that span.
    """
    kdim = basis.dimension
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=SV_CUTOFF)
    rss = rss0 + np.sum((rhs - design @ coef) ** 2, axis=0)
    dof = ts.size - kdim
    sigma2 = rss / dof if dof > 0 else np.zeros(rhs.shape[1])
    fit = SplineFit(
        basis=basis,
        coefficients=coef.T.copy(),
        residual_variance=sigma2,
        times=ts.copy(),
        rank_deficient=rank < kdim,
    )
    return fit, rss


def fit_least_squares(basis: BSplineBasis, times, observations) -> SplineFit:
    """Fit every column of ``observations`` on the shared basis by least squares.

    observations is (n,) or (n, d).  All dimensions share the design matrix, so
    the normal equations are solved once (SVD of the design, relative cutoff
    1e-12, minimum-norm solution on rank deficiency).
    """
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(observations, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"observation times must be one-dimensional, got shape {ts.shape}")
    if ys.ndim == 1:
        ys = ys[:, None]
    if ts.size == 0 or ys.size == 0:
        raise GradMatchError("fit_least_squares needs nonempty times and observations")
    if ys.shape[0] != ts.size:
        raise ValueError(f"times ({ts.size}) and observations ({ys.shape[0]}) disagree")
    if np.any(np.diff(ts) < 0):
        raise ValueError("observation times must be nondecreasing")
    return _least_squares(basis, ts, ys)[0]


def eval_fit(fit: SplineFit, t) -> np.ndarray:
    """Fitted path at ``t``: (d,) for scalar t, (m, d) for an array."""
    knots, g = fit.grid_path
    return eval_basis(BSplineBasis(knots), t) @ g.T


def eval_fit_derivative(fit: SplineFit, t) -> np.ndarray:
    """First derivative of the fitted path at ``t``."""
    knots, g = fit.grid_path
    return eval_basis_derivative(BSplineBasis(knots), t) @ g.T


def read_only(*arrays) -> tuple:
    """The arrays, made read-only, as a tuple."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def quadrature_nodes(knots: KnotSequence) -> np.ndarray:
    """QUAD_NODES uniform nodes on the interval merged with the knots, sorted, each value once."""
    merged = np.sort(np.concatenate((np.linspace(*knots.interval, QUAD_NODES), knots.interior_knots)))
    # np.union1d would give the same bits but import numpy.ma on a process's first call
    return merged[np.concatenate(([True], merged[1:] != merged[:-1]))]


@lru_cache(maxsize=16)
def grid_table(knots: KnotSequence, fine: bool = False) -> tuple[np.ndarray, ...]:
    """The basis of the grid ``knots`` tabulated read-only, once per grid, for every fit on it.

    (nodes, B, B') on quadrature_nodes(knots), which hold the quadrature nodes of every fit on the grid;
    with ``fine``, (points, B) on linspace(lo, hi, FINE_POINTS).  Rows hold eval_basis's bits.
    """
    basis = BSplineBasis(knots)
    if fine:
        points = np.linspace(*knots.interval, FINE_POINTS)
        return read_only(points, eval_basis(basis, points))
    nodes = quadrature_nodes(knots)
    return read_only(nodes, eval_basis(basis, nodes), eval_basis_derivative(basis, nodes))


def _normal_matrix_pinv(fit: SplineFit) -> np.ndarray:
    """Pseudoinverse of design' * design via the design's SVD (cutoff 1e-12)."""
    design = _cached_design(fit.basis, fit.times)
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > SV_CUTOFF * sv[0]
    inv2 = np.zeros_like(sv)
    inv2[keep] = 1.0 / sv[keep] ** 2
    return (vt.T * inv2) @ vt


def pointwise_variance(fit: SplineFit, t) -> np.ndarray:
    """Plug-in variance of the fitted value at ``t``, one entry per dimension.

    Var x-hat_i(t) = sigma2_i * B(t)' (design'design)^+ B(t). A scalar ``t``
    gives a (d,) vector, an array of m times an (m, d) array, matching
    eval_fit.
    """
    bvec = eval_basis(fit.basis, t)
    quad = np.einsum("...k,kl,...l->...", bvec, _normal_matrix_pinv(fit), bvec)
    return np.asarray(quad)[..., None] * fit.residual_variance

