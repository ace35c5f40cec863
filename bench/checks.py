"""Oracles for gradmatch's outputs, built apart from the package.

Nothing here imports gradmatch.  Trajectories come from scipy's DOP853,
spline designs from scipy.interpolate.BSpline, GCV scores, quadrature nodes,
weights and the closed-form estimate are recomputed from their definitions
with numpy, and KS statistics come from scipy.stats.  The design constants
(cubic splines, GCV charge 3m + 1, 5% boundary ramps, quadrature grid merged
with the knots) are the paper's and the README's, restated here on purpose.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline

ORDER = 4
GLV_NAMES = ("a1", "a2", "a3", "b1", "b2", "b3")


class Verdicts:
    """Collects named pass/fail verdicts; the run is correct when none failed."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)

    @property
    def correct(self):
        return not self.failures


# ---------------------------------------------------------------- trajectories


def glv_rhs(theta):
    a1, a2, a3, b1, b2, b3 = (float(v) for v in theta)

    def rhs(t, s):
        x, y = s
        return [x * (a1 * x + a2 * y + a3), y * (b1 * x + b2 * y + b3)]

    return rhs


def glv_truth(theta, x0, grid):
    """Reference trajectory on ``grid`` (starting at t = 0) from DOP853, rtol 1e-12."""
    grid = np.asarray(grid, dtype=float)
    sol = solve_ivp(glv_rhs(theta), (0.0, grid[-1]), np.asarray(x0, dtype=float),
                    method="DOP853", t_eval=grid, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def cycle_first_integral(theta, states):
    """H = b1 x + b3 ln x - a2 y - a3 ln y, constant along a1 = b2 = 0 orbits."""
    _, a2, a3, b1, _, b3 = (float(v) for v in theta)
    x, y = states[:, 0], states[:, 1]
    return b1 * x + b3 * np.log(x) - a2 * y - a3 * np.log(y)


def check_truth(verdicts, label, truth, reference, theta=None, tol=1e-7):
    """The program's truth against DOP853; with theta, also the first integral."""
    err = float(np.max(np.abs(truth - reference)))
    verdicts.check(f"{label}: truth vs DOP853", err <= tol, f"max abs difference {err:.3g} > {tol:g}")
    if theta is not None:
        h = cycle_first_integral(theta, truth)
        drift = float(np.max(np.abs(h - h[0])))
        verdicts.check(f"{label}: first integral", drift <= 1e-8, f"drift {drift:.3g} > 1e-8")


def check_noise(verdicts, label, residuals, sigma):
    """Pooled observation-minus-truth residuals have mean 0 and std sigma (5 standard errors)."""
    r = np.asarray(residuals, dtype=float).reshape(-1)
    count = r.size
    std = float(r.std(ddof=1))
    mean = float(r.mean())
    std_tol = 5.0 * np.sqrt(1.0 / (2.0 * count))
    verdicts.check(f"{label}: noise sigma", abs(std / sigma - 1.0) <= std_tol,
                   f"std {std:.5g} vs sigma {sigma:g} over {count} draws")
    verdicts.check(f"{label}: noise mean", abs(mean) <= 5.0 * sigma / np.sqrt(count),
                   f"mean {mean:.3g} over {count} draws")


# --------------------------------------------------------------------- splines


def augmented_knots(interval, interior):
    lo, hi = interval
    return np.concatenate((np.full(ORDER, lo), np.asarray(interior, dtype=float), np.full(ORDER, hi)))


def spline_design(times, interval, interior):
    tau = augmented_knots(interval, interior)
    return BSpline.design_matrix(np.asarray(times, dtype=float), tau, ORDER - 1).toarray()


def spline_fit(times, ys, interval, interior):
    """Least-squares B-spline coefficients, shape (K, d)."""
    coef, *_ = np.linalg.lstsq(spline_design(times, interval, interior), ys, rcond=None)
    return coef


def spline_eval(interval, interior, coef, ts, nu=0):
    spline = BSpline(augmented_knots(interval, interior), coef, ORDER - 1)
    return spline.derivative(nu)(ts) if nu else spline(ts)


def gcv(times, ys, interval, interior):
    """[(1/n) RSS] / (1 - (3m + 1)/n)^2, RSS pooled over state dimensions."""
    design = spline_design(times, interval, interior)
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    n = design.shape[0]
    rss = float(np.sum((ys - design @ coef) ** 2))
    d = 3 * len(interior) + 1
    return np.inf if d >= n else (rss / n) / (1.0 - d / n) ** 2


def candidate_grid(interval, n):
    """Uniform candidate knots: 15 up to n = 40, 20 up to n = 75, else 30."""
    count = 15 if n <= 40 else 20 if n <= 75 else 30
    lo, hi = interval
    return lo + np.arange(1, count + 1) * (hi - lo) / (count + 1)


def check_local_gcv_minimum(verdicts, label, times, ys, interval, selected, rel=1e-10):
    """No single-knot drop or add from the candidate grid lowers the GCV score."""
    grid = candidate_grid(interval, len(times))
    chosen = np.asarray(selected, dtype=float)
    on_grid = [int(np.argmin(np.abs(grid - k))) for k in chosen]
    if not verdicts.check(f"{label}: knots on candidate grid",
                          np.allclose(grid[on_grid], chosen, rtol=0, atol=1e-12) and len(set(on_grid)) == len(on_grid),
                          f"{chosen} not a subset of {grid}"):
        return
    base = gcv(times, ys, interval, chosen)
    worse = []
    for j in range(grid.size):
        trial = sorted(set(on_grid) ^ {j})
        score = gcv(times, ys, interval, grid[trial])
        if score < base * (1.0 - rel):
            worse.append((j, score))
    verdicts.check(f"{label}: GCV local minimum", np.isfinite(base) and not worse,
                   f"GCV {base:.10g}; lower neighbours (candidate index, GCV): {worse[:3]}")


def check_spline(verdicts, label, times, ys, interval, interior, coefficients, rel=1e-9):
    """The program's (d, K) coefficients against an independent design's fit."""
    ref = spline_fit(times, ys, interval, interior).T
    err = float(np.max(np.abs(coefficients - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    verdicts.check(f"{label}: spline coefficients", err <= rel * scale,
                   f"max abs difference {err:.3g} (scale {scale:.3g})")
    return ref.T


def curve_rmse(interval, interior, coef, fine_grid, fine_truth):
    """Per-dimension sqrt of the trapezoid integral of (fit - truth)^2 on the fine grid."""
    diff = spline_eval(interval, interior, coef, fine_grid) - fine_truth
    h = np.diff(fine_grid)[:, None]
    return np.sqrt(np.sum(0.5 * h * (diff[1:] ** 2 + diff[:-1] ** 2), axis=0))


def check_curve_rmse(verdicts, label, value, reference, rel=1e-6):
    err = float(np.max(np.abs(np.asarray(value) - reference) / reference))
    verdicts.check(f"{label}: curve RMSE", err <= rel, f"{value} vs {reference}")


# ------------------------------------------------------------------- estimator


def quadrature(interval, interior, quad_nodes=1024):
    """Uniform grid merged with the interior knots, and trapezoid weights."""
    lo, hi = interval
    nodes = np.unique(np.concatenate((np.linspace(lo, hi, quad_nodes), np.asarray(interior, dtype=float))))
    delta = np.zeros_like(nodes)
    h = np.diff(nodes)
    delta[:-1] += 0.5 * h
    delta[1:] += 0.5 * h
    return nodes, delta


def weight(name, interval, ts):
    """'uniform' is 1; 'boundary' ramps linearly from 0 to 1 over 5% of the interval at each end."""
    lo, hi = interval
    if name == "uniform":
        return np.ones_like(ts)
    ramp = 0.05 * (hi - lo)
    return np.clip(np.minimum(ts - lo, hi - ts) / ramp, 0.0, 1.0)


def glv_wls(interval, interior, coef, weight_name, theta_star, fixed, quad_nodes=1024):
    """Closed-form GLV estimate: weighted least squares of x-hat' on the field's regressors.

    Fixed parameters keep their values; the rest solve
    min sum_j delta_j w_j |x-hat'(t_j) - F(x-hat(t_j), theta)|^2.
    """
    nodes, delta = quadrature(interval, interior, quad_nodes)
    x = spline_eval(interval, interior, coef, nodes)
    xdot = spline_eval(interval, interior, coef, nodes, nu=1)
    scale = np.sqrt(delta * weight(weight_name, interval, nodes))
    u, v = x[:, 0], x[:, 1]
    zero = np.zeros_like(u)
    # field = regressors @ theta; row block 0 is x' = x (a1 x + a2 y + a3), block 1 is y'
    regressors = np.concatenate([
        np.column_stack([u * u, u * v, u, zero, zero, zero]),
        np.column_stack([zero, zero, zero, u * v, v * v, v]),
    ])
    target = np.concatenate([xdot[:, 0], xdot[:, 1]])
    weights = np.concatenate([scale, scale])
    theta = np.array(theta_star, dtype=float)
    free = [i for i, name in enumerate(GLV_NAMES) if name not in fixed]
    fixed_idx = [i for i, name in enumerate(GLV_NAMES) if name in fixed]
    rhs = target - regressors[:, fixed_idx] @ theta[fixed_idx]
    sol, *_ = np.linalg.lstsq(weights[:, None] * regressors[:, free], weights * rhs, rcond=None)
    theta[free] = sol
    return theta


def check_theta(verdicts, label, theta_hat, reference, tol=1e-8):
    theta_hat = np.asarray(theta_hat, dtype=float)
    err = float(np.max(np.abs(theta_hat - reference) / np.maximum(1.0, np.abs(reference))))
    verdicts.check(f"{label}: theta vs weighted least squares", err <= tol,
                   f"theta_hat {theta_hat} vs {reference} (relative {err:.3g})")


def check_gauss_newton(verdicts, label, closed_form, gauss_newton, tol=1e-6):
    err = float(np.max(np.abs(np.asarray(closed_form) - np.asarray(gauss_newton))))
    verdicts.check(f"{label}: closed form vs Gauss-Newton", err <= tol, f"max abs difference {err:.3g}")


def check_boundary_term(verdicts, label, gamma_b):
    gamma_b = np.asarray(gamma_b)
    verdicts.check(f"{label}: gamma_b under the boundary weight", np.all(gamma_b == 0.0), f"gamma_b = {gamma_b}")


def ks_statistic(sample):
    """KS distance of the self-standardized sample from N(0, 1) (the Lilliefors statistic)."""
    x = np.asarray(sample, dtype=float)
    return float(stats.kstest((x - x.mean()) / x.std(ddof=1), "norm").statistic)


def check_ks(verdicts, label, sample, statistic, tol=1e-12):
    ref = ks_statistic(sample)
    verdicts.check(f"{label}: KS statistic", abs(statistic - ref) <= tol, f"{statistic!r} vs scipy {ref!r}")
