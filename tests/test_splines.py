"""Tests for the B-spline basis, regression, and variance formulas.

The evaluation oracles are an independent naive implementation of the two-term
recurrence, written before the library code and kept deliberately simple, and
the dense all-columns recurrence the library used before its local evaluator,
which the local one must repeat bit for bit.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from gradmatch import (
    BSplineBasis,
    GradMatchError,
    KnotSequence,
    SplineFit,
    design_matrix,
    eval_basis,
    eval_basis_derivative,
    eval_fit,
    eval_fit_derivative,
    fit_least_squares,
    gcv_score,
    pointwise_variance,
)
from gradmatch import splines
from gradmatch.splines import FINE_POINTS, QUAD_NODES, _normal_matrix_pinv, grid_table, quadrature_nodes

from conftest import truncated_power_design


def naive_bspline(tau, i, order, t, hi):
    """Textbook recursion, one basis function at one point. Test oracle."""
    if order == 1:
        if tau[i] <= t < tau[i + 1]:
            return 1.0
        # closed right endpoint: t == hi counts for the last nonempty span
        if t == hi and tau[i] < tau[i + 1] and not np.any(tau[i + 1 :] > tau[i + 1]):
            return 1.0
        return 0.0
    left = 0.0
    if tau[i + order - 1] > tau[i]:
        left = (t - tau[i]) / (tau[i + order - 1] - tau[i]) * naive_bspline(tau, i, order - 1, t, hi)
    right = 0.0
    if tau[i + order] > tau[i + 1]:
        right = (tau[i + order] - t) / (tau[i + order] - tau[i + 1]) * naive_bspline(tau, i + 1, order - 1, t, hi)
    return left + right


def reference_indicator_columns(tau: np.ndarray, ts: np.ndarray, hi: float) -> np.ndarray:
    # Order-1 basis: half-open span indicators, with the last nonempty span
    # closed at hi so the partition of unity extends to the right endpoint.
    cols = ((ts[:, None] >= tau[None, :-1]) & (ts[:, None] < tau[None, 1:])).astype(float)
    at_hi = ts == hi
    if np.any(at_hi):
        nonempty = np.nonzero(tau[1:] > tau[:-1])[0]
        cols[at_hi, :] = 0.0
        if nonempty.size:
            cols[at_hi, nonempty[-1]] = 1.0
    return cols


def reference_basis_columns(tau: np.ndarray, order: int, ts: np.ndarray, hi: float) -> np.ndarray:
    """Values of all order-``order`` B-splines on ``tau``; shape (len(ts), len(tau)-order)."""
    cols = reference_indicator_columns(tau, ts, hi)
    for kp in range(2, order + 1):
        nfun = len(tau) - kp
        d1 = tau[kp - 1 : kp - 1 + nfun] - tau[:nfun]
        d2 = tau[kp : kp + nfun] - tau[1 : 1 + nfun]
        # 0/0 = 0 convention on repeated knots
        left = np.where(d1 > 0.0, (ts[:, None] - tau[None, :nfun]) / np.where(d1 > 0.0, d1, 1.0), 0.0)
        right = np.where(d2 > 0.0, (tau[None, kp : kp + nfun] - ts[:, None]) / np.where(d2 > 0.0, d2, 1.0), 0.0)
        cols = left * cols[:, :nfun] + right * cols[:, 1 : nfun + 1]
    return cols


def reference_derivative_columns(tau: np.ndarray, order: int, ts: np.ndarray, hi: float, r: int) -> np.ndarray:
    if r == 0:
        return reference_basis_columns(tau, order, ts, hi)
    lower = reference_derivative_columns(tau, order - 1, ts, hi, r - 1)
    nfun = len(tau) - order
    d1 = tau[order - 1 : order - 1 + nfun] - tau[:nfun]
    d2 = tau[order : order + nfun] - tau[1 : 1 + nfun]
    c1 = np.where(d1 > 0.0, (order - 1) / np.where(d1 > 0.0, d1, 1.0), 0.0)
    c2 = np.where(d2 > 0.0, (order - 1) / np.where(d2 > 0.0, d2, 1.0), 0.0)
    return c1[None, :] * lower[:, :nfun] - c2[None, :] * lower[:, 1 : nfun + 1]


def random_basis_and_points(rng):
    """Order 2-6 basis on a random interval with 0-24 simple interior knots, and
    points inside, at both ends and on every knot, in random order."""
    order = int(rng.integers(2, 7))
    lo = rng.uniform(-50.0, 50.0)
    hi = lo + rng.uniform(1e-3, 100.0)
    inner = np.unique(rng.uniform(lo, hi, int(rng.integers(0, 25))))
    inner = inner[(inner > lo) & (inner < hi)]
    basis = BSplineBasis(KnotSequence((lo, hi), tuple(inner), order))
    pts = np.concatenate([rng.uniform(lo, hi, int(rng.integers(1, 60))), [lo, hi], inner])
    rng.shuffle(pts)
    return basis, pts


def naive_row(knots: KnotSequence, t):
    tau = BSplineBasis(knots).augmented
    dim = knots.num_interior + knots.order
    return np.array([naive_bspline(tau, i, knots.order, t, knots.interval[1]) for i in range(dim)])


CASES = [
    KnotSequence((0.0, 1.0), (), 2),
    KnotSequence((0.0, 1.0), (0.5,), 2),
    KnotSequence((0.0, 1.0), (0.25, 0.5, 0.75), 4),
    KnotSequence((0.0, 20.0), tuple(np.linspace(1.0, 19.0, 7)), 4),
    KnotSequence((-3.0, 2.5), (-1.0, 0.0, 0.3), 3),
    KnotSequence((0.0, 1.0), (0.1, 0.2, 0.9), 5),
]


class TestKnotSequence:
    def test_augmented_length_and_content(self):
        ks = KnotSequence((0.0, 2.0), (0.5, 1.0), 4)
        tau = BSplineBasis(ks).augmented
        assert len(tau) == 2 + 2 * 4
        np.testing.assert_array_equal(tau[:4], 0.0)
        np.testing.assert_array_equal(tau[-4:], 2.0)
        np.testing.assert_array_equal(tau[4:6], [0.5, 1.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(GradMatchError, match="interval must satisfy t_lo < t_hi"):
            KnotSequence((1.0, 0.0), ())
        with pytest.raises(GradMatchError, match="interior knots must be strictly increasing"):
            KnotSequence((0.0, 1.0), (0.6, 0.4))
        with pytest.raises(GradMatchError, match="interior knots must be strictly increasing"):
            KnotSequence((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(GradMatchError, match="interior knots must lie strictly inside the interval"):
            KnotSequence((0.0, 1.0), (1.0,))
        with pytest.raises(GradMatchError, match="order must be >= 2"):
            KnotSequence((0.0, 1.0), (), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_non_finite_interior_knots(self, bad, position):
        # a NaN knot passes the order and range comparisons, and its basis no longer sums to one
        knots = [0.25, 0.5]
        knots[position] = bad
        with pytest.raises(GradMatchError, match="interior knots must be finite"):
            KnotSequence((0.0, 1.0), tuple(knots))


class TestBasisEvaluation:
    @pytest.mark.parametrize("ks", CASES)
    def test_matches_naive_recursion(self, ks):
        basis = BSplineBasis(ks)
        rng = np.random.default_rng(42)
        lo, hi = ks.interval
        pts = np.concatenate([rng.uniform(lo, hi, 40), [lo, hi], np.asarray(ks.interior_knots)])
        got = eval_basis(basis, pts)
        want = np.array([naive_row(ks, t) for t in pts])
        np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("ks", CASES)
    def test_partition_of_unity(self, ks):
        basis = BSplineBasis(ks)
        lo, hi = ks.interval
        pts = np.linspace(lo, hi, 257)
        sums = eval_basis(basis, pts).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    @pytest.mark.parametrize("ks", CASES)
    def test_nonnegative_and_local_support(self, ks):
        basis = BSplineBasis(ks)
        tau = BSplineBasis(ks).augmented
        lo, hi = ks.interval
        pts = np.linspace(lo, hi, 101)
        vals = eval_basis(basis, pts)
        assert np.all(vals >= -1e-14)
        k = ks.order
        for i in range(basis.dimension):
            outside = (pts < tau[i]) | (pts > tau[i + k])
            np.testing.assert_allclose(vals[outside, i], 0.0, atol=1e-14)

    def test_single_span_order2_hand_values(self):
        # two hat halves on [0,1] with no interior knots
        basis = BSplineBasis(KnotSequence((0.0, 1.0), (), 2))
        np.testing.assert_allclose(eval_basis(basis, 0.25), [0.75, 0.25])
        np.testing.assert_allclose(eval_basis(basis, 1.0), [0.0, 1.0])

    def test_domain_checked(self):
        basis = BSplineBasis(CASES[2])
        with pytest.raises(GradMatchError, match="evaluation points must lie in"):
            eval_basis(basis, 1.5)
        with pytest.raises(GradMatchError, match="evaluation points must lie in"):
            eval_basis_derivative(basis, -0.1)
        with pytest.raises(GradMatchError, match="evaluation points must lie in"):
            eval_basis(basis, [0.5, np.nan])

    def test_bit_identical_to_dense_recurrence(self):
        # the local evaluator repeats the dense recurrence entry for entry
        rng = np.random.default_rng(20261019)
        for case in range(480):
            basis, pts = random_basis_and_points(rng)
            tau, k, hi = basis.augmented, basis.knots.order, basis.interval[1]
            want = reference_basis_columns(tau, k, pts, hi).tobytes()
            assert eval_basis(basis, pts).tobytes() == want, case
            assert design_matrix(basis, pts).tobytes() == want, case
            for r in range(1, k):
                want = reference_derivative_columns(tau, k, pts, hi, r).tobytes()
                assert eval_basis_derivative(basis, pts, r).tobytes() == want, (case, r)

    def test_matches_scipy_design_matrix(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(6)
        for case in range(200):
            basis, pts = random_basis_and_points(rng)
            k = basis.knots.order
            want = interpolate.BSpline.design_matrix(pts, basis.augmented, k - 1).toarray()
            np.testing.assert_allclose(design_matrix(basis, pts), want, rtol=0, atol=1e-13, err_msg=str(case))

    def test_scalar_vs_array_shapes(self):
        basis = BSplineBasis(CASES[2])
        v = eval_basis(basis, 0.3)
        m = eval_basis(basis, np.array([0.3, 0.7]))
        assert v.shape == (basis.dimension,)
        assert m.shape == (2, basis.dimension)
        np.testing.assert_allclose(m[0], v)


class TestBasisDerivative:
    @pytest.mark.parametrize("ks", CASES)
    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_central_differences(self, ks, r):
        if r >= ks.order:
            pytest.skip("derivative order out of range for this basis")
        basis = BSplineBasis(ks)
        lo, hi = ks.interval
        h = 1e-6 * (hi - lo)
        rng = np.random.default_rng(7)
        # keep points away from knots; the r-th derivative can jump there
        bps = np.concatenate(([lo], ks.interior_knots, [hi]))
        pts = []
        for a, b in zip(bps[:-1], bps[1:]):
            pts.extend(rng.uniform(a + 10 * h, b - 10 * h, 5))
        pts = np.asarray(pts)
        got = eval_basis_derivative(basis, pts, r)
        lowered = (
            eval_basis_derivative(basis, pts + h, r - 1)
            if r > 1
            else eval_basis(basis, pts + h)
        )
        lowered_m = (
            eval_basis_derivative(basis, pts - h, r - 1)
            if r > 1
            else eval_basis(basis, pts - h)
        )
        fd = (lowered - lowered_m) / (2 * h)
        np.testing.assert_allclose(got, fd, atol=5e-5, rtol=1e-4)

    def test_derivative_sums_to_zero(self):
        # derivative of the partition of unity
        basis = BSplineBasis(CASES[3])
        pts = np.linspace(0.0, 20.0, 101)
        sums = eval_basis_derivative(basis, pts, 1).sum(axis=1)
        np.testing.assert_allclose(sums, 0.0, atol=1e-10)

    def test_order2_derivative_is_step(self):
        basis = BSplineBasis(KnotSequence((0.0, 1.0), (0.5,), 2))
        d = eval_basis_derivative(basis, 0.25, 1)
        np.testing.assert_allclose(d, [-2.0, 2.0, 0.0])
        d = eval_basis_derivative(basis, 0.75, 1)
        np.testing.assert_allclose(d, [0.0, -2.0, 2.0])

    def test_order_too_high_raises(self):
        basis = BSplineBasis(CASES[2])
        with pytest.raises(GradMatchError, match="derivative order must satisfy"):
            eval_basis_derivative(basis, 0.5, 4)
        with pytest.raises(GradMatchError, match="derivative order must satisfy"):
            eval_basis_derivative(basis, 0.5, 0)


class TestRegression:
    def test_matches_normal_equations(self):
        # explicit normal-equation oracle on a small well-posed problem
        ks = KnotSequence((0.0, 1.0), (0.3, 0.7), 4)
        basis = BSplineBasis(ks)
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 1.0, 12))
        y = rng.normal(size=(12, 2))
        fit = fit_least_squares(basis, times, y)
        design = design_matrix(basis, times)
        want = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(fit.coefficients.T, want, atol=1e-9)
        assert not fit.rank_deficient

    def test_reproduces_spline_data_exactly(self):
        # noiseless data generated from the space itself is recovered
        ks = KnotSequence((0.0, 2.0), (0.5, 1.0, 1.5), 4)
        basis = BSplineBasis(ks)
        rng = np.random.default_rng(11)
        coef = rng.normal(size=(2, basis.dimension))
        times = np.linspace(0.0, 2.0, 40)
        y = eval_basis(basis, times) @ coef.T
        fit = fit_least_squares(basis, times, y)
        np.testing.assert_allclose(fit.coefficients, coef, atol=1e-9)
        np.testing.assert_allclose(fit.residual_variance, 0.0, atol=1e-18)

    def test_residual_orthogonality(self):
        ks = KnotSequence((0.0, 1.0), (0.5,), 4)
        basis = BSplineBasis(ks)
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 1.0, 30)
        y = rng.normal(size=30)
        fit = fit_least_squares(basis, times, y)
        design = design_matrix(basis, times)
        resid = y - eval_fit(fit, times)[:, 0]
        np.testing.assert_allclose(design.T @ resid, 0.0, atol=1e-10)

    def test_rank_deficient_flag_and_min_norm(self):
        # no observations beyond 0.5: the last basis functions are unseen
        ks = KnotSequence((0.0, 1.0), (0.25, 0.5, 0.75), 4)
        basis = BSplineBasis(ks)
        times = np.linspace(0.0, 0.4, 20)
        rng = np.random.default_rng(9)
        y = rng.normal(size=20)
        fit = fit_least_squares(basis, times, y)
        assert fit.rank_deficient
        # minimum-norm solution: smaller or equal norm than any other solution
        design = design_matrix(basis, times)
        other = fit.coefficients[0] + np.linalg.svd(design)[2][-1]
        assert np.linalg.norm(fit.coefficients[0]) <= np.linalg.norm(other) + 1e-12

    def test_variance_estimate_consistent(self):
        # sigma2-hat should land near the true noise variance for large n
        ks = KnotSequence((0.0, 1.0), (0.5,), 4)
        basis = BSplineBasis(ks)
        rng = np.random.default_rng(17)
        times = np.linspace(0.0, 1.0, 2000)
        truth = np.sin(2 * np.pi * times)
        y = truth + 0.3 * rng.normal(size=2000)
        fit = fit_least_squares(basis, times, y)
        assert fit.residual_variance[0] == pytest.approx(0.09, rel=0.08)

    def test_empty_and_mismatched_inputs(self):
        basis = BSplineBasis(CASES[2])
        with pytest.raises(GradMatchError, match="fit_least_squares needs nonempty times and observations"):
            fit_least_squares(basis, [], [])
        with pytest.raises(ValueError):
            fit_least_squares(basis, [0.1, 0.2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="observation times must be nondecreasing"):
            fit_least_squares(basis, [0.1, 0.3, 0.2], [1.0, 2.0, 3.0])
        # the cached design reads the times' bytes as one flat vector
        for times in (0.5, [[0.1], [0.2], [0.3]]):
            with pytest.raises(ValueError, match="observation times must be one-dimensional"):
                fit_least_squares(basis, times, np.ones(np.size(times)))
        with pytest.raises(GradMatchError, match="design matrix needs at least one observation time"):
            design_matrix(basis, [])


# An integral functional and its plug-in variance; nothing in the package calls them.
@dataclass(frozen=True)
class LinearFunctional:
    """Integral functional x -> integral of a(s)' x(s) ds over an interval.

    weight_path maps an array of m times to an (m, d) array (or a scalar time
    to a (d,) vector).
    """

    interval: tuple[float, float]
    weight_path: Callable

    def value(self, path: Callable) -> float:
        """Apply the functional to a path by composite trapezoid quadrature on 4097 nodes."""
        ts = np.linspace(self.interval[0], self.interval[1], 4097)
        a = np.atleast_2d(np.asarray(self.weight_path(ts), dtype=float))
        x = np.atleast_2d(np.asarray(path(ts), dtype=float))
        return float(np.trapezoid(np.sum(a * x, axis=1), ts))


def _span_refined_grid(knots: KnotSequence) -> np.ndarray:
    """Breakpoint-aware grid with 64 trapezoid cells per span."""
    bps = knots.breakpoints
    pieces = [np.linspace(bps[i], bps[i + 1], 65) for i in range(len(bps) - 1)]
    return np.unique(np.concatenate(pieces))


def functional_coefficients(fit: SplineFit, functional: LinearFunctional) -> np.ndarray:
    """gamma = integral of B(s) a(s)' ds, shape (K, d); trapezoid on a knot-aware grid."""
    grid = _span_refined_grid(fit.basis.knots)
    bvals = eval_basis(fit.basis, grid)
    avals = np.atleast_2d(np.asarray(functional.weight_path(grid), dtype=float))
    # integrate each product column over the grid
    return np.trapezoid(bvals[:, :, None] * avals[:, None, :], grid, axis=0)


def functional_variance(fit: SplineFit, functional: LinearFunctional) -> np.ndarray:
    """Plug-in variance matrix of the functional applied to the fit, d x d diagonal.

    Entry (i, i) is sigma2_i * gamma_i' (design'design)^+ gamma_i where gamma_i
    integrates basis * a_i.
    """
    gamma = functional_coefficients(fit, functional)
    pinv = _normal_matrix_pinv(fit)
    quad = np.einsum("ki,kl,li->i", gamma, pinv, gamma)
    return np.diag(fit.residual_variance * quad)


class TestDerivedQuantities:
    def test_fit_derivative_matches_difference_quotient(self):
        ks = KnotSequence((0.0, 1.0), (0.3, 0.6), 4)
        basis = BSplineBasis(ks)
        times = np.linspace(0.0, 1.0, 50)
        y = np.cos(3 * times)
        fit = fit_least_squares(basis, times, y)
        h = 1e-7
        fd = (eval_fit(fit, 0.45 + h) - eval_fit(fit, 0.45 - h)) / (2 * h)
        np.testing.assert_allclose(eval_fit_derivative(fit, 0.45), fd, rtol=1e-5)

    def test_pointwise_variance_against_refit_spread(self):
        # simulate repeated fits of pure noise and compare the empirical
        # variance of x-hat(t0) with the plug-in formula
        ks = KnotSequence((0.0, 1.0), (0.5,), 4)
        basis = BSplineBasis(ks)
        times = np.linspace(0.0, 1.0, 60)
        rng = np.random.default_rng(23)
        sigma = 0.5
        t0 = 0.37
        vals = []
        for _ in range(500):
            y = sigma * rng.normal(size=60)
            f = fit_least_squares(basis, times, y)
            vals.append(eval_fit(f, t0)[0])
        empirical = np.var(vals, ddof=1)
        bvec = eval_basis(basis, t0)
        design = design_matrix(basis, times)
        plug_in = sigma**2 * bvec @ np.linalg.inv(design.T @ design) @ bvec
        assert empirical == pytest.approx(plug_in, rel=0.2)
        # the estimator's own value uses sigma2-hat; check shape and positivity
        f = fit_least_squares(basis, times, sigma * rng.normal(size=60))
        v = pointwise_variance(f, t0)
        assert v.shape == (1,)
        assert v[0] > 0
        # an array of times gives one row per time and agrees with scalars
        probe = np.array([0.2, t0, 0.9])
        rows = pointwise_variance(f, probe)
        assert rows.shape == (3, 1)
        np.testing.assert_allclose(rows[1], v)

    def test_functional_variance_against_refit_spread(self):
        # variance of an integral functional over 500 synthetic refits
        ks = KnotSequence((0.0, 1.0), (0.5,), 4)
        basis = BSplineBasis(ks)
        times = np.linspace(0.0, 1.0, 60)
        rng = np.random.default_rng(29)
        sigma = 0.4
        functional = LinearFunctional((0.0, 1.0), lambda ts: np.column_stack([np.exp(-ts)]))
        vals = []
        for _ in range(500):
            y = sigma * rng.normal(size=60)
            f = fit_least_squares(basis, times, y)
            vals.append(functional.value(lambda ts: eval_fit(f, ts)))
        empirical = np.var(vals, ddof=1)
        f = fit_least_squares(basis, times, sigma * rng.normal(size=60))
        # rescale the plug-in value to the true noise variance so the check
        # isolates the quadrature and pseudoinverse parts of the formula
        plug_in = functional_variance(f, functional)[0, 0] * sigma**2 / f.residual_variance[0]
        assert empirical == pytest.approx(plug_in, rel=0.2)

    def test_functional_linearity(self):
        functional = LinearFunctional((0.0, 1.0), lambda ts: np.column_stack([ts, 1 - ts]))
        p1 = lambda ts: np.column_stack([np.sin(ts), np.cos(ts)])
        p2 = lambda ts: np.column_stack([ts**2, np.exp(ts)])
        combo = lambda ts: 2.0 * p1(ts) - 3.0 * p2(ts)
        v = functional.value(combo)
        assert v == pytest.approx(2.0 * functional.value(p1) - 3.0 * functional.value(p2), rel=1e-12)


def gram_matrices(basis: BSplineBasis, times) -> tuple[np.ndarray, np.ndarray]:
    """Empirical and theoretical Gram matrices of the basis.

    Empirical: (1/n) design' design at the observation times.  Theoretical:
    integral of B B' against the uniform distribution on the interval,
    computed span by span with an ``order``-point Gauss-Legendre rule (exact for
    the degree 2*(order-1) integrand).
    """
    design = design_matrix(basis, times)
    emp = design.T @ design / design.shape[0]

    k = basis.knots.order
    nodes, weights = np.polynomial.legendre.leggauss(k)
    bps = basis.knots.breakpoints
    lo, hi = basis.interval
    theo = np.zeros((basis.dimension, basis.dimension))
    for a, b in zip(bps[:-1], bps[1:]):
        half = 0.5 * (b - a)
        ts = 0.5 * (a + b) + half * nodes
        bv = eval_basis(basis, ts)
        theo += half * (bv.T * weights) @ bv
    return emp, theo / (hi - lo)


class TestGramMatrices:
    def test_theoretical_matches_fine_trapezoid(self):
        ks = KnotSequence((0.0, 1.0), (0.5,), 4)
        basis = BSplineBasis(ks)
        times = np.linspace(0.0, 1.0, 100)
        _, theo = gram_matrices(basis, times)
        grid = np.linspace(0.0, 1.0, 100001)
        bv = eval_basis(basis, grid)
        ref = np.trapezoid(bv[:, :, None] * bv[:, None, :], grid, axis=0)
        np.testing.assert_allclose(theo, ref, atol=1e-9)

    def test_empirical_converges_to_theoretical(self):
        ks = KnotSequence((0.0, 20.0), tuple(np.linspace(2.0, 18.0, 5)), 4)
        basis = BSplineBasis(ks)
        times = np.arange(4000) * 20.0 / 4000  # uniform design on [0, 20)
        emp, theo = gram_matrices(basis, times)
        np.testing.assert_allclose(emp, theo, atol=2e-3)

    def test_gram_matrices_spd(self):
        ks = KnotSequence((0.0, 1.0), (0.2, 0.4, 0.6, 0.8), 4)
        basis = BSplineBasis(ks)
        _, theo = gram_matrices(basis, np.linspace(0, 1, 50))
        eigs = np.linalg.eigvalsh(theo)
        assert np.all(eigs > 0)
        np.testing.assert_allclose(theo, theo.T, atol=1e-15)


class TestGridTable:
    KNOTS = KnotSequence((0.0, 20.0), tuple(20.0 * np.arange(1, 31) / 31), 4)

    def test_rows_are_the_bits_eval_basis_gives(self):
        basis = BSplineBasis(self.KNOTS)
        nodes, values, slopes = grid_table.__wrapped__(self.KNOTS)
        assert nodes.tobytes() == np.union1d(np.linspace(0.0, 20.0, QUAD_NODES), self.KNOTS.interior_knots).tobytes()
        assert values.tobytes() == eval_basis(basis, nodes).tobytes()
        assert slopes.tobytes() == eval_basis_derivative(basis, nodes).tobytes()
        points, fine = grid_table.__wrapped__(self.KNOTS, fine=True)
        assert points.tobytes() == np.linspace(0.0, 20.0, FINE_POINTS).tobytes()
        assert fine.tobytes() == eval_basis(basis, points).tobytes()

    def test_tables_are_read_only(self):
        for table in grid_table(self.KNOTS) + grid_table(self.KNOTS, fine=True):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_one_bounded_cache_keyed_on_the_grid_and_built_on_first_use(self):
        assert grid_table.cache_info().maxsize is not None
        grid_table.cache_clear()
        same = KnotSequence((0.0, 20.0), tuple(self.KNOTS.interior_knots), 4)
        assert grid_table(same) is grid_table(self.KNOTS)
        assert grid_table.cache_info().currsize == 1  # the fine table is built only when asked for
        grid_table(self.KNOTS, fine=True)
        assert grid_table.cache_info().currsize == 2


class TestDesignCache:
    """fit_least_squares reads one cached design per basis and times; design_matrix is its oracle."""

    BASIS = BSplineBasis(KnotSequence((0.0, 20.0), tuple(np.linspace(0.0, 20.0, 22)[1:-1]), 4))
    TIMES = np.arange(1000) * 0.02

    def test_cached_design_is_read_only_and_equals_design_matrix(self):
        design = splines._design(self.BASIS, self.TIMES.tobytes())
        assert splines._design.cache_info().maxsize is not None
        assert design.tobytes() == design_matrix(self.BASIS, self.TIMES).tobytes()
        assert not design.flags.writeable
        with pytest.raises(ValueError):
            design[0, 0] = 1.0

    def test_ten_fits_on_one_basis_and_times_build_one_design(self, monkeypatch):
        calls = []
        real = splines.design_matrix
        monkeypatch.setattr(splines, "design_matrix", lambda *args: calls.append(args) or real(*args))
        splines._design.cache_clear()
        rng = np.random.default_rng(3)
        for _ in range(10):
            ys = rng.normal(size=(self.TIMES.size, 2))
            got = fit_least_squares(self.BASIS, list(self.TIMES), ys)
            want = splines._solve(self.BASIS, self.TIMES, real(self.BASIS, self.TIMES), ys)[0]
            for field in ("coefficients", "residual_variance", "times"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.rank_deficient == want.rank_deficient
        assert len(calls) == 1
        # another basis, or other times, is another design
        other = BSplineBasis(KnotSequence((0.0, 20.0), (5.0, 10.0, 15.0), 4))
        fit_least_squares(other, self.TIMES, ys)
        fit_least_squares(self.BASIS, self.TIMES[:-1], ys[:-1])
        assert len(calls) == 3

    def test_pointwise_variance_reads_the_design_bit_for_bit(self):
        ys = np.sin(self.TIMES)
        fit = fit_least_squares(self.BASIS, self.TIMES, ys)
        _, sv, vt = np.linalg.svd(design_matrix(self.BASIS, self.TIMES), full_matrices=False)
        keep = sv > splines.SV_CUTOFF * sv[0]
        inv2 = np.zeros_like(sv)
        inv2[keep] = 1.0 / sv[keep] ** 2
        assert _normal_matrix_pinv(fit).tobytes() == ((vt.T * inv2) @ vt).tobytes()

    def test_pointwise_variance_reads_a_fit_s_times_as_float64(self):
        # a hand-built fit may hold its times as integers, float32 or a list
        basis = BSplineBasis(KnotSequence((0.0, 20.0), (5.0, 10.0, 15.0), 4))
        fit = fit_least_squares(basis, np.arange(20.0), np.cos(np.arange(20.0)))
        want = pointwise_variance(fit, self.TIMES)
        for times in (np.arange(20), np.arange(20, dtype=np.float32), list(range(20))):
            splines._design.cache_clear()
            got = pointwise_variance(dataclasses.replace(fit, times=times), self.TIMES)
            assert got.tobytes() == want.tobytes(), type(times)

    def test_gcv_score_leaves_the_design_cache_alone(self):
        # each trial's subset basis seldom comes back, so its design is not kept
        splines._design.cache_clear()
        gcv_score(self.TIMES, np.sin(self.TIMES), (4.0, 8.0, 12.0), 4, (0.0, 20.0))
        assert splines._design.cache_info().currsize == 0

    @pytest.mark.parametrize("t_end", [20.0, 19.98, 7.3])
    @pytest.mark.parametrize("count", [20, 30, 45, 60])
    def test_quadrature_nodes_are_the_union_of_the_uniform_nodes_and_the_knots(self, t_end, count):
        # the knots fall on all, some or none of the uniform nodes across these grids
        knots = KnotSequence((0.0, t_end), tuple(t_end * np.arange(1, count + 1) / (count + 1)), 4)
        want = np.union1d(np.linspace(0.0, t_end, QUAD_NODES), knots.interior_knots)
        assert quadrature_nodes(knots).tobytes() == want.tobytes()


class TestTruncatedPower:
    def test_hand_row(self):
        design = truncated_power_design((0.0, 1.0), (0.5,), 2, [0.75])
        np.testing.assert_allclose(design[0], [1.0, 0.75, 0.25])

    def test_spans_same_space_as_bsplines(self):
        # projections onto the two bases agree on data
        ks = KnotSequence((0.0, 1.0), (0.3, 0.7), 4)
        basis = BSplineBasis(ks)
        rng = np.random.default_rng(31)
        times = np.sort(rng.uniform(0, 1, 40))
        y = rng.normal(size=40)
        bs_design = design_matrix(basis, times)
        tp_design = truncated_power_design((0.0, 1.0), (0.3, 0.7), 4, times)
        assert bs_design.shape == tp_design.shape
        proj_bs = bs_design @ np.linalg.lstsq(bs_design, y, rcond=None)[0]
        proj_tp = tp_design @ np.linalg.lstsq(tp_design, y, rcond=None)[0]
        np.testing.assert_allclose(proj_bs, proj_tp, atol=1e-8)
