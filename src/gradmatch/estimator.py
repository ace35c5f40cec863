"""The two-step criterion, its minimizers, and the asymptotic diagnostics.

Step one fits a regression spline to the data (see splines.py).  Step two
chooses the vector-field parameters minimizing

    ( integral of |x-hat'(t) - F(t, x-hat(t), theta)|^2 w(t) dt )^(1/2),

the weighted L^2 discrepancy, over theta, computed by composite trapezoid
quadrature on a grid that includes every spline knot.  No ODE is solved during
estimation.  For fields linear in the free parameters the minimizer has a
closed form; otherwise a damped Gauss-Newton loop runs from the caller's
start.  The diagnostics quantify how first-step error propagates: the
criterion Hessian J* measures local identifiability, and two linear
functionals of the path error (a smooth integral part and a boundary part)
give the leading term of theta-hat - theta*.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GradMatchError, IdentifiabilityError, IdentifiabilityWarning
from .models import PartiallyLinearSystem, Trajectory, VectorFieldModel, duhamel_solve
from .splines import QUAD_NODES, SV_CUTOFF, KnotSequence, SplineFit, eval_fit, grid_table, quadrature_nodes, read_only

_SINGULAR_CONDITION = 1e10
_MAX_ITER = 200

WEIGHT_NAMES = ("boundary", "uniform")


@dataclass(frozen=True)
class WeightFunction:
    """Continuous piecewise-linear nonnegative weight on an interval."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bps.size < 2 or bps.size != vals.size:
            raise ValueError("need matching breakpoints and values, at least two")
        if not (np.all(np.isfinite(bps)) and np.all(np.diff(bps) > 0)):
            raise ValueError("weight breakpoints must be finite and strictly increasing")
        if not np.all(np.isfinite(vals) & (vals >= 0)):
            raise ValueError("weight values must be finite and nonnegative")
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in bps))
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def __call__(self, t):
        return np.interp(t, self.breakpoints, self.values)

    @staticmethod
    def uniform(interval: tuple[float, float]) -> "WeightFunction":
        """w identically 1."""
        return WeightFunction(interval, (1.0, 1.0))

    @staticmethod
    def boundary_vanishing(interval: tuple[float, float]) -> "WeightFunction":
        """w that is 0 at both endpoints with linear ramps to 1.

        Each ramp covers 5% of the interval (on [0, 20]: w(0) = 0, w(1) = 1,
        w(19) = 1, w(20) = 0).
        """
        lo, hi = interval
        ramp = 0.05 * (hi - lo)
        return WeightFunction((lo, lo + ramp, hi - ramp, hi), (0.0, 1.0, 1.0, 0.0))

    @staticmethod
    def named(name: str, interval: tuple[float, float]) -> "WeightFunction":
        """The weight ``name`` in WEIGHT_NAMES stands for: "boundary" (the 5% ramps) or "uniform"."""
        if name == "boundary":
            return WeightFunction.boundary_vanishing(interval)
        if name == "uniform":
            return WeightFunction.uniform(interval)
        raise ValueError(f"unknown weight {name!r}; choose from {WEIGHT_NAMES}")


@dataclass(frozen=True)
class CriterionConfig:
    """Weight of the criterion."""

    weight: WeightFunction


def quadrature_grid(fit: SplineFit) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (1024 uniform nodes merged with all knots) and trapezoid weights."""
    nodes = quadrature_nodes(fit.basis.knots)
    return nodes, 0.5 * _neighbour_spans(nodes)


def _neighbour_spans(a: np.ndarray) -> np.ndarray:
    """a[i+1] - a[i-1] along the first axis, one-sided (a[1] - a[0], a[-1] - a[-2]) at the ends."""
    padded = np.concatenate([a[:1], a, a[-1:]])
    return padded[2:] - padded[:-2]


def _path_values(path, ts: np.ndarray) -> np.ndarray:
    """Evaluate a path argument (SplineFit, Trajectory, or callable) at ts, (m, d)."""
    if isinstance(path, SplineFit):
        return eval_fit(path, ts)
    if isinstance(path, Trajectory):
        return _interp_rows(path.times, path.states, ts)
    out = np.asarray(path(ts), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out


def _interp_rows(grid, values, t):
    """Linear interpolation of precomputed path values at scalar or array t."""
    t = np.asarray(t, dtype=float)
    rows = np.column_stack([np.interp(np.atleast_1d(t), grid, values[:, i]) for i in range(values.shape[1])])
    return rows[0] if t.ndim == 0 else rows


class _PathSample(NamedTuple):
    """A fit on its quadrature grid: nodes, trapezoid weights, x-hat, x-hat'.

    It depends on the fit only, not on the weight, so every
    weight's estimate and criterion can read the same sample (x-hat' is None
    in the public diagnostics' samples).
    """

    nodes: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    xdot: np.ndarray


@lru_cache(maxsize=16)
def _uniform_rows(knots: KnotSequence) -> np.ndarray:
    """Which rows of grid_table(knots) are uniform quadrature nodes, read-only, once per grid."""
    nodes = quadrature_nodes(knots)
    uniform = np.zeros(nodes.size, dtype=bool)
    uniform[np.searchsorted(nodes, np.linspace(*knots.interval, QUAD_NODES))] = True
    return read_only(uniform)[0]


def _sample_path(fit: SplineFit) -> _PathSample:
    """The estimator's one evaluation of the spline path on the quadrature grid, read off its grid's table.

    A fit on its own grid takes the whole table.  A search fit's nodes, the
    uniform nodes and its own knots, are two sets of the table's rows:
    quadrature_grid(fit) gives the same nodes and weights.
    """
    knots, g = fit.grid_path
    nodes, basis, slope = grid_table(knots)
    x, xdot = basis @ g.T, slope @ g.T
    if fit.grid is not None:
        own = fit.basis.knots.interior_knots
        at = np.searchsorted(nodes, own)
        assert np.array_equal(nodes[at], own), "knots outside the grid's table"
        rows = _uniform_rows(knots).copy()
        rows[at] = True
        nodes, x, xdot = nodes[rows], x[rows], xdot[rows]
    return _PathSample(nodes, 0.5 * _neighbour_spans(nodes), x, xdot)


def _residuals(sample: _PathSample, model: VectorFieldModel, theta):
    """x-hat' - F(t, x-hat, theta) on the grid, (m, d); None where not finite."""
    field = np.asarray(model.field(sample.nodes, sample.x, np.asarray(theta, dtype=float)), dtype=float)
    resid = sample.xdot - field
    return resid if np.all(np.isfinite(resid)) else None


def _criterion_parts(sample: _PathSample, model: VectorFieldModel, theta, w):
    """The criterion value and its per-dimension components from one residual; w is the weight on the nodes."""
    resid = _residuals(sample, model, theta)
    if resid is None:
        return np.inf, np.full(sample.x.shape[1], np.inf)
    dw = sample.delta * w
    value = float(np.sum(dw * np.linalg.norm(resid, axis=1) ** 2.0) ** 0.5)
    return value, np.sum(dw[:, None] * np.abs(resid) ** 2.0, axis=0) ** 0.5


def criterion(fit: SplineFit, model: VectorFieldModel, theta, config: CriterionConfig) -> float:
    """Weighted L^2 discrepancy between the spline derivative and the field.

    Non-finite field values on the grid give an infinite criterion rather than
    an exception, so a search can treat them as a rejected trial.
    """
    sample = _sample_path(fit)
    return _criterion_parts(sample, model, theta, config.weight(sample.nodes))[0]


def criterion_components(fit: SplineFit, model: VectorFieldModel, theta, config: CriterionConfig) -> np.ndarray:
    """Per-dimension split of the criterion: component i integrates |resid_i|^2.

    The squares of the components sum to the square of criterion().
    """
    sample = _sample_path(fit)
    return _criterion_parts(sample, model, theta, config.weight(sample.nodes))[1]


@dataclass(frozen=True)
class TwoStepEstimate:
    """Estimated parameters plus the local diagnostics at the estimate.

    theta_hat carries the full parameter vector (fixed entries echoed).
    components is the per-dimension split of criterion_value, as
    criterion_components() gives it at theta_hat.  jstar, gamma_s, gamma_b live
    in free-parameter space, evaluated along the fitted path at theta_hat.
    """

    theta_hat: np.ndarray
    criterion_value: float
    components: np.ndarray
    jstar: np.ndarray
    jstar_condition: float
    gamma_s: np.ndarray
    gamma_b: np.ndarray
    converged: bool
    iterations: int


def _name_directions(model: VectorFieldModel, null_vectors: np.ndarray) -> str:
    names = [model.param_names[i] for i in model.free_indices]
    parts = []
    for vec in np.atleast_2d(null_vectors):
        terms = [
            f"{coef:+.2f}*{name}"
            for coef, name in zip(vec, names)
            if abs(coef) > 0.3
        ]
        parts.append(" ".join(terms) if terms else "(diffuse)")
    return "; ".join(parts)


def _free_jacobian(model: VectorFieldModel, ts, x, theta) -> np.ndarray:
    """D2F at (ts, x, theta) restricted to the free parameters, (m, d, p_free)."""
    return np.asarray(model.jacobian_param(ts, x, theta), dtype=float)[:, :, model.free_indices]


def _solve_linear(sample: _PathSample, model: VectorFieldModel, w, basis, offset) -> np.ndarray:
    """Closed-form minimizer of the discretized criterion, free entries.

    For a linear model F = D2F theta_free + F(theta_free = 0); on the sample,
    ``basis`` is the free D2F, ``offset`` the field at theta_free = 0 and
    ``w`` the weight.
    """
    scale = np.sqrt(w * sample.delta)
    m, d, p_free = basis.shape
    lhs = (scale[:, None, None] * basis).reshape(m * d, p_free)
    rhs = (scale[:, None] * (sample.xdot - offset)).reshape(m * d)
    u, sv, vt = np.linalg.svd(lhs, full_matrices=False)
    keep = sv > SV_CUTOFF * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(keep))
    if rank < p_free:
        raise IdentifiabilityError(
            "free parameters are not identifiable along: "
            + _name_directions(model, vt[rank:]),
            directions=vt[rank:].copy(),
        )
    return vt.T @ ((u.T @ rhs) / sv)


def _assemble_theta(model: VectorFieldModel, theta_free: np.ndarray) -> np.ndarray:
    theta = np.array(model.fixed_values, dtype=float)
    theta[model.free_indices] = theta_free
    return theta


def _estimate(sample, model, theta, jac, w, converged, iterations, stacklevel) -> TwoStepEstimate:
    """Criterion value, its components and the diagnostics at theta, from one sample of the fit.

    ``jac`` is the free D2F and ``w`` the weight on the sample at theta.  The
    nodes start at t_lo and end at t_hi, so gamma_b (see boundary_functional)
    reads the sample's first and last rows, at the fit's ends.
    """
    if not np.all(np.isfinite(sample.x)):
        raise np.linalg.LinAlgError("fitted path is not finite on the quadrature grid")
    jstar, cond = _hessian(sample, jac, w, stacklevel + 1)
    gamma_s = _smooth_integral(sample, model, theta, jac, w, sample.x)
    gamma_b = w[-1] * jac[-1].T @ sample.x[-1] - w[0] * jac[0].T @ sample.x[0]
    value, components = _criterion_parts(sample, model, theta, w)
    return TwoStepEstimate(
        theta_hat=theta,
        criterion_value=value,
        components=components,
        jstar=jstar,
        jstar_condition=cond,
        gamma_s=gamma_s,
        gamma_b=gamma_b,
        converged=converged,
        iterations=iterations,
    )


def _damped_gauss_newton(residual, jacobian, z0):
    """Minimize |residual(z)|^2 by Gauss-Newton with Levenberg damping.

    residual(z) returns the residual vector, or None where it cannot be
    evaluated; such a trial step is rejected.  jacobian(z, r) is the
    derivative of the residual at z, with r = residual(z).  The damping starts
    at 1e-3, shrinks x0.1 (floor 1e-12) on an accepted step and grows x10 on a
    rejected one.  An accepted step with norm < 1e-10 or relative decrease
    < 1e-12 ends the loop as converged; damping past 1e12 ends it too, the
    current point being a numerical minimum.  _MAX_ITER iterations end it
    unconverged.  Returns (z, |r|^2, converged, iterations), or None when z0
    itself is not evaluable.
    """
    z = z0
    r = residual(z)
    if r is None:
        return None
    sq = float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    while iterations < _MAX_ITER and z.size:
        iterations += 1
        jac = jacobian(z, r)
        normal = jac.T @ jac
        grad = jac.T @ (-r)
        diag = np.diag(normal).copy()
        diag[diag <= 0] = max(diag.max(), 1.0) * 1e-14
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            z_new = z + step
            r_new = residual(z_new)
            sq_new = np.inf if r_new is None else float(r_new @ r_new)
            if sq_new < sq:
                rel_decrease = (sq - sq_new) / max(sq, 1e-300)
                z, r, sq = z_new, r_new, sq_new
                lam = max(lam * 0.1, 1e-12)
                accepted = True
                if np.linalg.norm(step) < 1e-10 or rel_decrease < 1e-12:
                    converged = True
                break
            lam *= 10
        if not accepted:
            converged = sq < np.inf
            break
        if converged:
            break
    return z, sq, converged, iterations


def fit_linear_in_theta(fit: SplineFit, model: VectorFieldModel, config: CriterionConfig) -> TwoStepEstimate:
    """Exact minimizer for fields affine in the free parameters.

    The discretized criterion is a weighted linear least-squares problem in
    theta_free; it is solved through an SVD of the sqrt(w * delta)-scaled
    stacked system, which also supplies the rank check.  A rank-deficient
    stack raises IdentifiabilityError naming the unidentified directions.
    """
    return _estimate_weights(fit, model, {None: config}, stacklevel=3)[None]


def fit_nonlinear(fit: SplineFit, model: VectorFieldModel, theta_init, config: CriterionConfig) -> TwoStepEstimate:
    """Damped Gauss-Newton minimization of the discretized criterion from theta_init.

    theta_init is a full-length parameter vector; its fixed entries are
    replaced by the model's.  Convergence: accepted step norm < 1e-10 or
    relative criterion decrease < 1e-12.  A non-finite trial criterion rejects
    the step and increases damping.  A start where the criterion is not finite
    is returned as the estimate, with converged False and iterations 0.
    """
    sample = _sample_path(fit)
    w = config.weight(sample.nodes)
    scale = np.sqrt(w * sample.delta)
    free = model.free_indices

    def residual(z):
        resid = _residuals(sample, model, _assemble_theta(model, z))
        return None if resid is None else (scale[:, None] * resid).reshape(-1)

    def jacobian(z, r):
        # the residual is x-hat' - F, so its derivative is -D2F on the free entries
        jac = _free_jacobian(model, sample.nodes, sample.x, _assemble_theta(model, z))
        return -(scale[:, None, None] * jac).reshape(r.size, free.size)

    z0 = np.asarray(theta_init, dtype=float)[free]
    z, _, converged, iterations = _damped_gauss_newton(residual, jacobian, z0) or (z0, np.inf, False, 0)
    theta = _assemble_theta(model, z)
    jac = _free_jacobian(model, sample.nodes, sample.x, theta)
    return _estimate(sample, model, theta, jac, w, converged, iterations, stacklevel=3)


def estimate_weights(fit: SplineFit, model: VectorFieldModel, criteria: dict) -> dict:
    """fit_linear_in_theta's estimate per named criterion, every one read off one sample of the fit.

    One split F = D2F theta_free + F(theta_free = 0) serves every weight.  ValueError for no
    criteria, or for a model not declared linear (fit_nonlinear takes those, from a start).
    """
    return _estimate_weights(fit, model, criteria, stacklevel=3)


def _estimate_weights(fit, model, criteria, stacklevel) -> dict:
    """estimate_weights, a singular J* warning at ``stacklevel`` as seen from here (each caller's own depth)."""
    if not criteria:
        raise ValueError("need at least one criterion")
    if not model.linear:
        raise ValueError("model is not declared linear in its parameters")
    sample = _sample_path(fit)
    theta0 = _assemble_theta(model, 0.0)
    offset = np.asarray(model.field(sample.nodes, sample.x, theta0), dtype=float)
    jac = _free_jacobian(model, sample.nodes, sample.x, theta0)
    estimates = {}
    for name, crit in criteria.items():
        w = crit.weight(sample.nodes)
        theta = _assemble_theta(model, _solve_linear(sample, model, w, jac, offset))
        estimates[name] = _estimate(sample, model, theta, jac, w, True, 0, stacklevel=stacklevel + 1)
    return estimates


def _diagnostic_sample(path, model: VectorFieldModel, theta, weight: WeightFunction, nodes):
    """The public diagnostics' path sample on checked nodes, theta, free D2F and w there."""
    ts = np.asarray(nodes, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or not np.all(np.diff(ts) > 0):
        raise ValueError("nodes must be a 1-D strictly increasing array of at least 2 points")
    x = _path_values(path, ts)
    theta = np.asarray(theta, dtype=float)
    sample = _PathSample(ts, 0.5 * _neighbour_spans(ts), x, None)
    return sample, theta, _free_jacobian(model, ts, x, theta), weight(ts)


def _hessian(sample: _PathSample, jac: np.ndarray, w: np.ndarray, stacklevel: int) -> tuple[np.ndarray, float]:
    """J* and its condition (see criterion_hessian); if singular, a warning at warnings.warn's ``stacklevel``."""
    jstar = np.einsum("j,jdi,jdk->ik", sample.delta * w, jac, jac)
    jstar = 0.5 * (jstar + jstar.T)
    sv = np.linalg.svd(jstar, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv.size and sv[-1] > 0 else np.inf
    if cond > _SINGULAR_CONDITION:
        warnings.warn(
            f"criterion Hessian is numerically singular (condition {cond:.3g})",
            IdentifiabilityWarning,
            stacklevel=stacklevel,
        )
    return jstar, cond


def _smooth_integral(sample: _PathSample, model: VectorFieldModel, theta, jac, w, target) -> np.ndarray:
    """A(t) along the sample's path (see smooth_functional), integrated against target y on the nodes.

    With P = w D2F', the trapezoid sum of the central differences of P (one-sided
    at the ends) times y is, summed by parts, the sum of P_j z_j with z_j = (y_{j-1} - y_{j+1}) / 2,
    y_{-1} = -y_0 and y_m = -y_{m-1}.  So the integral is
    -sum_j w_j D2F_j' (delta_j D1F_j y_j + z_j), one contraction.
    """
    d1f = np.asarray(model.jacobian_state(sample.nodes, sample.x, theta), dtype=float)  # (m, d, d)
    padded = np.concatenate([-target[:1], target, -target[-1:]])
    inner = sample.delta[:, None] * np.einsum("jdk,jk->jd", d1f, target) + 0.5 * (padded[:-2] - padded[2:])
    return -np.einsum("jdp,jd->p", jac, w[:, None] * inner)


def criterion_hessian(path, model: VectorFieldModel, theta, weight: WeightFunction, nodes) -> tuple[np.ndarray, float]:
    """Quadrature of D2F' D2F w along the path, restricted to free parameters.

    Returns the symmetric PSD matrix and its 2-norm condition number; a
    condition number above 1e10 triggers an IdentifiabilityWarning because the
    criterion is then locally flat along some parameter direction.  ``nodes``
    must be a 1-D strictly increasing array of at least 2 points (ValueError).
    """
    sample, _, jac, w = _diagnostic_sample(path, model, theta, weight, nodes)
    return _hessian(sample, jac, w, stacklevel=3)


def smooth_functional(path, model: VectorFieldModel, theta, weight: WeightFunction, nodes, apply_to=None) -> np.ndarray:
    """Integral part of the first-order error functional, free-parameter space.

    The kernel, derived by expanding the estimating equation around the
    reference path and integrating the derivative term by parts, is

        A(t) = -D2F(t)' D1F(t) w(t) - d/dt[ D2F(t)' w(t) ],

    evaluated along ``path`` at ``theta``; the time derivative is taken by
    central differences on the quadrature grid (one-sided at the ends).  The
    functional applies A to ``apply_to`` (default: the reference path itself)
    and integrates by trapezoid; that sum is evaluated by summation by parts,
    which moves the differences onto ``apply_to`` and needs no kernel.
    Together with the boundary term it gives the leading term of the
    estimator error: theta error ~ J*^{-1} applied to the difference of the
    functionals at the fitted and true paths.  ``nodes`` is
    checked as in criterion_hessian.
    """
    sample, theta, jac, w = _diagnostic_sample(path, model, theta, weight, nodes)
    target = sample.x if apply_to is None else _path_values(apply_to, sample.nodes)
    return _smooth_integral(sample, model, theta, jac, w, target)


def boundary_functional(path, model: VectorFieldModel, theta, weight: WeightFunction, apply_to=None) -> np.ndarray:
    """Endpoint part of the first-order error functional.

    w(t_hi) D2F(t_hi)' x(t_hi) - w(t_lo) D2F(t_lo)' x(t_lo), with D2F along
    ``path`` and x from ``apply_to`` (default: the path itself).  Exactly zero
    for boundary-vanishing weights.
    """
    lo, hi = weight.breakpoints[0], weight.breakpoints[-1]
    ends = np.array([lo, hi])
    x = _path_values(path, ends)
    target = x if apply_to is None else _path_values(apply_to, ends)
    theta = np.asarray(theta, dtype=float)
    jac = _free_jacobian(model, ends, x, theta)
    w_ends = weight(ends)
    return w_ends[1] * jac[1].T @ target[1] - w_ends[0] * jac[0].T @ target[0]


@dataclass(frozen=True)
class PartialObservationEstimate:
    """Result of estimating (eta, v0) from the observed block alone."""

    eta: np.ndarray
    v0: np.ndarray
    criterion_value: float
    converged: bool
    iterations: int


def fit_partially_observed(
    u_fit: SplineFit,
    system: PartiallyLinearSystem,
    eta0,
    a0,
    v0_guess,
    config: CriterionConfig,
    estimate_v0: bool = True,
) -> PartialObservationEstimate:
    """Estimate (eta, v0) when only the u-block is observed, with A held at a0.

    The hidden block is reconstructed by the variation-of-constants recursion
    v' = a0 v + H(u-hat(t); eta), and (eta, v0) is chosen by damped
    Gauss-Newton on the weighted residuals u-hat' - G(u-hat, v-hat, eta), with
    forward-difference Jacobians (backward where the forward probe is not
    evaluable).  With estimate_v0 False, v0 is held at v0_guess.  A
    hidden-state blow-up rejects the trial step and increases damping.
    d_hidden = 0 degenerates to an ordinary fully observed nonlinear fit.
    """
    nodes, delta, u, udot = _sample_path(u_fit)
    scale = np.sqrt(config.weight(nodes) * delta)
    d2 = system.d_hidden

    eta0 = np.atleast_1d(np.asarray(eta0, dtype=float))
    a0 = np.asarray(a0, dtype=float).reshape(d2, d2)
    v00 = np.atleast_1d(np.asarray(v0_guess, dtype=float)).reshape(d2)

    n_eta = eta0.size
    z0 = np.concatenate([eta0, v00]) if estimate_v0 else eta0

    def unpack(z):
        return z[:n_eta], (z[n_eta:] if estimate_v0 else v00)

    def residual(z):
        eta, v0 = unpack(z)
        if d2 > 0:
            forcing = lambda t: np.asarray(
                system.h(_interp_rows(nodes, u, t), eta), dtype=float
            )
            v = duhamel_solve(a0, forcing, v0, nodes)
        else:
            v = np.zeros((nodes.size, 0))
        g = np.asarray(system.g(u, v, eta), dtype=float)
        if g.ndim == 1:
            g = g[:, None]
        return (scale[:, None] * (udot - g)).reshape(-1)

    def safe_residual(z):
        # a hidden-state blow-up or a breakdown of the matrix exponential
        # rejects the trial; any other error is the caller's and propagates
        try:
            r = residual(z)
        except (GradMatchError, FloatingPointError, np.linalg.LinAlgError):
            return None
        return r if np.all(np.isfinite(r)) else None

    def jacobian(z, r):
        jac = np.empty((r.size, z.size))
        for i in range(z.size):
            h = 1e-6 * max(1.0, abs(z[i]))
            zp = z.copy()
            zp[i] += h
            rp = safe_residual(zp)
            if rp is None:
                zp[i] = z[i] - h
                rp = safe_residual(zp)
                if rp is None:
                    rp = r
                jac[:, i] = (r - rp) / h
            else:
                jac[:, i] = (rp - r) / h
        return jac

    result = _damped_gauss_newton(safe_residual, jacobian, z0)
    if result is None:
        raise ValueError("initial point is not evaluable (hidden state blow-up?)")
    z, sq, converged, iterations = result
    eta, v0 = unpack(z)
    return PartialObservationEstimate(
        eta=eta.copy(),
        v0=np.array(v0, dtype=float),
        criterion_value=float(np.sqrt(sq)),
        converged=converged,
        iterations=iterations,
    )


def estimate_report(estimate: TwoStepEstimate) -> dict:
    """Flat JSON-ready dict of an estimate (schema version 1)."""
    return {
        "schema": 1,
        "theta_hat": [float(v) for v in estimate.theta_hat],
        "criterion_value": float(estimate.criterion_value),
        "jstar": [float(v) for v in np.asarray(estimate.jstar).reshape(-1)],
        "jstar_condition": float(estimate.jstar_condition),
        "gamma_s": [float(v) for v in estimate.gamma_s],
        "gamma_b": [float(v) for v in estimate.gamma_b],
        "converged": bool(estimate.converged),
        "iterations": int(estimate.iterations),
    }


def write_report(estimate: TwoStepEstimate, path) -> None:
    with open(path, "w") as fh:
        json.dump(estimate_report(estimate), fh, indent=2)
        fh.write("\n")
