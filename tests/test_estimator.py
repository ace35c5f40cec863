"""Tests for the two-step criterion, its minimizers, and the diagnostics."""

import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest

from gradmatch import (
    BSplineBasis,
    CriterionConfig,
    ExperimentConfig,
    IdentifiabilityError,
    IdentifiabilityWarning,
    KnotSequence,
    PartiallyLinearSystem,
    TwoStepEstimate,
    VectorFieldModel,
    WeightFunction,
    boundary_functional,
    criterion,
    criterion_components,
    criterion_hessian,
    estimate_report,
    estimate_weights,
    fit_least_squares,
    fit_linear_in_theta,
    fit_nonlinear,
    fit_partially_observed,
    glv_field,
    integrate,
    quadrature_grid,
    select_knots,
    simulate_data,
    smooth_functional,
    write_report,
)
from gradmatch import estimator
from gradmatch.errors import BlowupError

from conftest import central_difference_smooth_integral, glv_param_jacobian_stacked

THETA_CASE1 = np.array([0.0, -1.5, 1.0, 2.0, 0.0, -1.5])
CASE1_MASK = np.array([True, False, False, False, True, False])


def constant_field_model(dim):
    """F(t, x, theta) = theta: D1F = 0 and D2F = identity."""
    eye = np.eye(dim)

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return np.broadcast_to(theta, state.shape).copy()

    def jacobian_state(t, state, theta):
        return np.zeros(state.shape + (dim,))

    def jacobian_param(t, state, theta):
        return np.broadcast_to(eye, state.shape + (dim,)).copy()

    return VectorFieldModel(
        dim=dim,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=tuple(f"c{i}" for i in range(dim)),
        linear=True,
    )


def single_param_model(g, g_state):
    """Scalar field F = theta * g(t, x) with one free parameter."""

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return theta[0] * g(t, state)

    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return (theta[0] * g_state(t, state))[..., None]

    def jacobian_param(t, state, theta):
        return g(t, state)[..., None]

    return VectorFieldModel(
        dim=1,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=("k",),
    )


def duplicated_param_model():
    """Two parameters multiply the same scalar function: never identifiable."""

    def g(t, state):
        return np.cos(t)[..., None] + state**2

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return (theta[0] + theta[1]) * g(t, state)

    def jacobian_state(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return ((theta[0] + theta[1]) * 2 * state)[..., None]

    def jacobian_param(t, state, theta):
        col = g(t, state)
        return np.concatenate([col[..., None], col[..., None]], axis=-1)

    return VectorFieldModel(
        dim=1,
        field=field,
        jacobian_state=jacobian_state,
        jacobian_param=jacobian_param,
        param_names=("k1", "k2"),
        linear=True,
    )


def near_duplicate_param_model(eps=1e-6):
    """duplicated_param_model with the second column moved by eps sin(t): identifiable, J* nearly singular."""
    base = duplicated_param_model()

    def field(t, state, theta):
        theta = np.asarray(theta, dtype=float)
        return base.field(t, state, theta) + theta[1] * eps * np.sin(t)[..., None]

    def jacobian_param(t, state, theta):
        jac = base.jacobian_param(t, state, theta)
        jac[..., 1] += eps * np.sin(t)[..., None]
        return jac

    return dataclasses.replace(base, field=field, jacobian_param=jacobian_param)


def case1_model():
    return glv_field(fixed_mask=CASE1_MASK, fixed_values=THETA_CASE1 * CASE1_MASK)


def case1_truth_fit(n_knots=60, n_obs=1200, t_end=20.0, order=4):
    """Noiseless dense-knot spline fit of the case-1 trajectory."""
    ts = np.linspace(0.0, t_end, n_obs)
    truth = integrate(case1_model(), THETA_CASE1, np.array([1.0, 2.0]), ts, tol=1e-10)
    interior = np.linspace(0.0, t_end, n_knots + 2)[1:-1]
    knots = KnotSequence(interval=(0.0, t_end), interior_knots=tuple(interior), order=order)
    return fit_least_squares(BSplineBasis(knots), ts, truth.states), truth


@functools.lru_cache(maxsize=None)
def noisy_case1_fit(seed=23, n_obs=500, n_knots=20):
    """Least-squares spline on n_knots uniform knots of noisy case-1 data (shared, do not mutate)."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 20.0, n_obs)
    truth = integrate(case1_model(), THETA_CASE1, np.array([1.0, 2.0]), ts, tol=1e-10)
    y = truth.states + 0.2 * rng.standard_normal(truth.states.shape)
    knots = KnotSequence(
        interval=(0.0, 20.0), interior_knots=tuple(np.linspace(0.0, 20.0, n_knots + 2)[1:-1]), order=4
    )
    return fit_least_squares(BSplineBasis(knots), ts, y)


def logged_param_jacobian(model):
    """A copy of the model whose jacobian_param and field log each call: (name, row count, theta)."""
    calls = []

    def logged(name):
        original = getattr(model, name)

        def call(t, state, theta):
            calls.append((name, np.asarray(t).size, tuple(np.asarray(theta, dtype=float))))
            return original(t, state, theta)

        return call

    return dataclasses.replace(model, jacobian_param=logged("jacobian_param"), field=logged("field")), calls


def glv_decomposition(fixed_mask, fixed_values):
    """The split field = basis @ theta_free + offset that the glv model used to write by hand."""
    free = np.nonzero(~fixed_mask)[0]
    fixed = np.nonzero(fixed_mask)[0]

    def linear_basis(t, state):
        return glv_param_jacobian_stacked(np.asarray(state, dtype=float))[..., :, free]

    def linear_offset(t, state):
        jac = glv_param_jacobian_stacked(np.asarray(state, dtype=float))
        return jac[..., :, fixed] @ fixed_values[fixed] if fixed.size else np.zeros(jac.shape[:-1])

    return linear_basis, linear_offset


def svd_solve(nodes, delta, xdot, weight, basis, offset):
    """The SVD solve of the sqrt(w * delta)-scaled stacked system, full rank."""
    scale = np.sqrt(weight(nodes) * delta)
    m, d, p_free = basis.shape
    lhs = (scale[:, None, None] * basis).reshape(m * d, p_free)
    rhs = (scale[:, None] * (xdot - offset)).reshape(m * d)
    u, sv, vt = np.linalg.svd(lhs, full_matrices=False)
    return vt.T @ ((u.T @ rhs) / sv)


def line_fit(slope, intercept, interval=(0.0, 4.0), n_obs=40):
    """Spline fit that reproduces a straight line exactly (it lies in the space)."""
    ts = np.linspace(interval[0], interval[1], n_obs)
    y = np.column_stack([slope[i] * ts + intercept[i] for i in range(len(slope))])
    knots = KnotSequence(interval=interval, interior_knots=(1.0, 2.5), order=4)
    return fit_least_squares(BSplineBasis(knots), ts, y)


class TestWeightFunction:
    def test_uniform_is_one_everywhere(self):
        w = WeightFunction.uniform((0.0, 20.0))
        ts = np.linspace(0.0, 20.0, 101)
        assert np.all(w(ts) == 1.0)

    def test_boundary_vanishing_matches_ramp_profile(self):
        w = WeightFunction.boundary_vanishing((0.0, 20.0))
        assert w(0.0) == 0.0
        assert w(1.0) == 1.0
        assert w(19.0) == 1.0
        assert w(20.0) == 0.0
        assert w(0.5) == pytest.approx(0.5)
        assert w(10.0) == 1.0

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            WeightFunction((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))

    def test_values_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            WeightFunction((0.0, 1.0), (1.0, -0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_breakpoints_and_values_must_be_finite(self, bad):
        for breakpoints in ((bad, 1.0), (0.0, bad), (0.0, bad, 2.0)):
            with pytest.raises(ValueError, match="breakpoints must be finite"):
                WeightFunction(breakpoints, (1.0,) * len(breakpoints))
        for values in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="values must be finite"):
                WeightFunction((0.0, 1.0), values)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction((0.0, 1.0, 2.0), (1.0, 1.0))

    @pytest.mark.parametrize("name", ["boundary", "uniform"])
    def test_named_weights(self, name):
        interval = (0.0, 20.0)
        want = WeightFunction.boundary_vanishing(interval) if name == "boundary" else WeightFunction.uniform(interval)
        assert WeightFunction.named(name, interval) == want
        with pytest.raises(ValueError, match="unknown weight 'flat'"):
            WeightFunction.named("flat", interval)


class TestCriterion:
    def test_exact_solution_gives_zero(self):
        # a straight line solves x' = theta for theta = slope, exactly
        slope = (0.7, -0.3)
        fit = line_fit(slope, (1.0, 2.0))
        model = constant_field_model(2)
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 4.0)))
        value = criterion(fit, model, np.array(slope), config)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_zero_weight_gives_zero_for_any_theta(self):
        fit = line_fit((0.7, -0.3), (1.0, 2.0))
        model = constant_field_model(2)
        config = CriterionConfig(weight=WeightFunction((0.0, 4.0), (0.0, 0.0)))
        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = rng.normal(size=2) * 10
            assert criterion(fit, model, theta, config) == 0.0

    def test_truth_beats_perturbed_parameters(self):
        fit, _ = case1_truth_fit()
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 20.0)))
        at_truth = criterion(fit, model, THETA_CASE1, config)
        perturbed = THETA_CASE1 + np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        assert at_truth < criterion(fit, model, perturbed, config)

    def test_nonfinite_field_returns_infinite_sentinel(self):
        fit = line_fit((1.0,), (0.5,))

        def bad_field(t, state, theta):
            return np.full(state.shape, np.nan)

        model = dataclasses.replace(constant_field_model(1), field=bad_field)
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 4.0)))
        assert criterion(fit, model, np.array([1.0]), config) == np.inf
        assert np.all(np.isinf(criterion_components(fit, model, np.array([1.0]), config)))

    def test_components_aggregate_to_total(self):
        fit, _ = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        theta = THETA_CASE1 + 0.1
        total = criterion(fit, model, theta, config)
        comps = criterion_components(fit, model, theta, config)
        assert np.sum(comps**2) == pytest.approx(total**2, rel=1e-12)

    def test_scaling_weight_scales_squared_criterion(self):
        fit, _ = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        theta = THETA_CASE1 + 0.05
        w = WeightFunction.boundary_vanishing((0.0, 20.0))
        scaled = WeightFunction(w.breakpoints, tuple(3.7 * v for v in w.values))
        base = criterion(fit, model, theta, CriterionConfig(weight=w))
        big = criterion(fit, model, theta, CriterionConfig(weight=scaled))
        assert big**2 == pytest.approx(3.7 * base**2, rel=1e-12)


class TestFitLinear:
    def test_noiseless_case1_recovers_parameters(self):
        fit, _ = case1_truth_fit()
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        est = fit_linear_in_theta(fit, model, config)
        free = model.free_indices
        assert np.max(np.abs(est.theta_hat[free] - THETA_CASE1[free])) < 1e-2
        assert est.theta_hat[0] == 0.0
        assert est.theta_hat[4] == 0.0
        assert est.converged
        assert est.iterations == 0

    def test_matches_explicit_normal_equations(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 20.0, 400)
        truth = integrate(case1_model(), THETA_CASE1, np.array([1.0, 2.0]), ts, tol=1e-10)
        y = truth.states + 0.05 * rng.standard_normal(truth.states.shape)
        knots = KnotSequence(
            interval=(0.0, 20.0), interior_knots=tuple(np.linspace(0.0, 20.0, 17)[1:-1]), order=4
        )
        fit = fit_least_squares(BSplineBasis(knots), ts, y)
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))

        nodes, delta = quadrature_grid(fit)
        w = config.weight(nodes)
        from gradmatch import eval_fit, eval_fit_derivative

        x = eval_fit(fit, nodes)
        xdot = eval_fit_derivative(fit, nodes)
        # the affine split F = D2F theta_free + F(theta_free = 0)
        basis = model.jacobian_param(nodes, x, THETA_CASE1)[:, :, model.free_indices]
        offset = model.field(nodes, x, THETA_CASE1 * CASE1_MASK)
        p = basis.shape[-1]
        normal = np.zeros((p, p))
        rhs = np.zeros(p)
        for j in range(nodes.size):
            mj = basis[j]
            normal += delta[j] * w[j] * mj.T @ mj
            rhs += delta[j] * w[j] * mj.T @ (xdot[j] - offset[j])
        oracle = np.linalg.solve(normal, rhs)

        est = fit_linear_in_theta(fit, model, config)
        np.testing.assert_allclose(est.theta_hat[model.free_indices], oracle, atol=1e-8)

    @pytest.mark.parametrize("weight", ["boundary", "uniform"])
    @pytest.mark.parametrize("design", ["cycle", "damped"])
    def test_equals_the_hand_written_decomposition_bytewise(self, design, weight):
        # the cycle and damped designs of configs/full_case1.json and full_case2.json
        theta_star, x0 = {
            "cycle": (THETA_CASE1, [1.0, 2.0]),
            "damped": (np.array([0.0, -1.5, 1.0, 1.5, -1.0, -1.5]), [4.0, 2.0]),
        }[design]
        model = glv_field(fixed_mask=CASE1_MASK, fixed_values=theta_star * CASE1_MASK)
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 20.0, 500)
        truth = integrate(model, theta_star, np.array(x0), ts, tol=1e-10)
        y = truth.states + 0.2 * rng.standard_normal(truth.states.shape)
        knots = KnotSequence((0.0, 20.0), tuple(np.linspace(0.0, 20.0, 22)[1:-1]), order=4)
        fit = fit_least_squares(BSplineBasis(knots), ts, y)
        interval = (0.0, 20.0)
        w = WeightFunction.boundary_vanishing(interval) if weight == "boundary" else WeightFunction.uniform(interval)
        config = CriterionConfig(weight=w)

        from gradmatch import eval_fit, eval_fit_derivative

        est = fit_linear_in_theta(fit, model, config)
        nodes, delta = quadrature_grid(fit)
        x = eval_fit(fit, nodes)
        basis, offset = (f(nodes, x) for f in glv_decomposition(model.fixed_mask, model.fixed_values))
        oracle = svd_solve(nodes, delta, eval_fit_derivative(fit, nodes), w, basis, offset)
        assert est.theta_hat[model.free_indices].tobytes() == oracle.tobytes()
        assert est.theta_hat[CASE1_MASK].tobytes() == theta_star[CASE1_MASK].tobytes()

    def test_answer_ignores_spline_changes_where_weight_vanishes(self):
        # weight identically zero on [0, 1] and [19, 20]
        w = WeightFunction((0.0, 1.0, 2.0, 18.0, 19.0, 20.0), (0.0, 0.0, 1.0, 1.0, 0.0, 0.0))
        config = CriterionConfig(weight=w)
        fit, _ = case1_truth_fit(n_knots=79, n_obs=900)
        model = case1_model()
        base = fit_linear_in_theta(fit, model, config)

        # order-4 basis functions 0..3 are supported inside [0, 1): changing
        # their coefficients moves the path only where the weight is zero
        knots = fit.basis.knots
        assert knots.interior_knots[3] <= 1.0
        coeffs = fit.coefficients.copy()
        coeffs[:, :4] += 50.0
        bumped = dataclasses.replace(fit, coefficients=coeffs)
        est = fit_linear_in_theta(bumped, model, config)
        np.testing.assert_allclose(est.theta_hat, base.theta_hat, atol=1e-10)

    def test_scaling_weight_leaves_minimizer_unchanged(self):
        fit, _ = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        w = WeightFunction.boundary_vanishing((0.0, 20.0))
        scaled = WeightFunction(w.breakpoints, tuple(5.0 * v for v in w.values))
        a = fit_linear_in_theta(fit, model, CriterionConfig(weight=w))
        b = fit_linear_in_theta(fit, model, CriterionConfig(weight=scaled))
        np.testing.assert_allclose(a.theta_hat, b.theta_hat, atol=1e-10)

    def test_duplicated_columns_raise_identifiability_error(self):
        ts = np.linspace(0.0, 4.0, 60)
        y = (0.3 * ts + 1.0)[:, None]
        knots = KnotSequence(interval=(0.0, 4.0), interior_knots=(1.0, 2.0, 3.0), order=4)
        fit = fit_least_squares(BSplineBasis(knots), ts, y)
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 4.0)))
        with pytest.raises(IdentifiabilityError) as excinfo:
            fit_linear_in_theta(fit, duplicated_param_model(), config)
        assert excinfo.value.directions is not None
        assert "k1" in str(excinfo.value) or "k2" in str(excinfo.value)

    def test_report_roundtrip(self, tmp_path):
        fit, _ = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        est = fit_linear_in_theta(fit, model, config)
        report = estimate_report(est)
        assert set(report) == {
            "schema",
            "theta_hat",
            "criterion_value",
            "jstar",
            "jstar_condition",
            "gamma_s",
            "gamma_b",
            "converged",
            "iterations",
        }
        assert report["schema"] == 1
        assert len(report["theta_hat"]) == 6
        assert len(report["jstar"]) == 16
        assert len(report["gamma_s"]) == 4
        assert len(report["gamma_b"]) == 4
        out = tmp_path / "report.json"
        write_report(est, out)
        parsed = json.loads(out.read_text())
        assert parsed == json.loads(json.dumps(report))


class TestFitNonlinear:
    def test_agrees_with_closed_form(self):
        fit = noisy_case1_fit()
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        closed = fit_linear_in_theta(fit, model, config)
        far = THETA_CASE1 + np.array([0.0, 2.0, -1.0, 3.0, 0.0, -2.0])
        iterative = fit_nonlinear(fit, model, far, config)
        np.testing.assert_allclose(iterative.theta_hat, closed.theta_hat, atol=1e-6)
        assert iterative.converged

    def test_starting_at_minimum_stops_immediately(self):
        fit, _ = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        closed = fit_linear_in_theta(fit, model, config)
        est = fit_nonlinear(fit, model, theta_init=closed.theta_hat, config=config)
        assert est.iterations <= 1
        np.testing.assert_allclose(est.theta_hat, closed.theta_hat, atol=1e-10)

    def test_single_parameter_field_matches_projection_ratio(self):
        ts = np.linspace(0.0, 6.0, 200)
        y = np.sin(1.3 * ts)[:, None] + 0.2
        knots = KnotSequence(
            interval=(0.0, 6.0), interior_knots=tuple(np.linspace(0.0, 6.0, 10)[1:-1]), order=4
        )
        fit = fit_least_squares(BSplineBasis(knots), ts, y)

        def g(t, state):
            return np.cos(t)[..., None] + state**2

        model = single_param_model(g, lambda t, state: 2.0 * state)
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 6.0)))
        est = fit_nonlinear(fit, model, theta_init=np.array([0.0]), config=config)

        from gradmatch import eval_fit, eval_fit_derivative

        nodes, delta = quadrature_grid(fit)
        w = config.weight(nodes)
        gv = g(nodes, eval_fit(fit, nodes))[:, 0]
        xdot = eval_fit_derivative(fit, nodes)[:, 0]
        ratio = np.sum(delta * w * gv * xdot) / np.sum(delta * w * gv * gv)
        assert est.theta_hat[0] == pytest.approx(ratio, abs=1e-8)

    def test_unevaluable_start_is_returned_unconverged(self):
        fit = noisy_case1_fit()
        model = case1_model()
        start = THETA_CASE1.copy()
        start[model.free_indices[0]] = np.nan
        est = fit_nonlinear(fit, model, start, CriterionConfig(weight=WeightFunction.uniform((0.0, 20.0))))
        assert not est.converged and est.iterations == 0
        assert est.theta_hat.tobytes() == start.tobytes()


ESTIMATORS = {
    "closed-form": fit_linear_in_theta,
    "gauss-newton": lambda fit, model, config: fit_nonlinear(fit, model, THETA_CASE1 + 0.1, config),
}


class TestEstimateFromOneSample:
    """An estimate's fields against the public functions evaluated on the SplineFit."""

    @pytest.mark.parametrize("weight", ["boundary", "uniform"])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_fields_match_public_functions_on_the_fit(self, name, weight):
        fit = noisy_case1_fit()
        model = case1_model()
        interval = (0.0, 20.0)
        w = WeightFunction.boundary_vanishing(interval) if weight == "boundary" else WeightFunction.uniform(interval)
        config = CriterionConfig(weight=w)
        est = ESTIMATORS[name](fit, model, config)
        theta = est.theta_hat
        nodes, _ = quadrature_grid(fit)
        jstar, cond = criterion_hessian(fit, model, theta, w, nodes)
        assert est.criterion_value == criterion(fit, model, theta, config)
        np.testing.assert_array_equal(est.jstar, jstar)
        assert est.jstar_condition == cond
        np.testing.assert_array_equal(est.gamma_s, smooth_functional(fit, model, theta, w, nodes))
        np.testing.assert_array_equal(est.gamma_b, boundary_functional(fit, model, theta, w))
        if weight == "uniform":
            assert np.all(est.gamma_b != 0.0)

    def test_gamma_b_is_taken_at_the_fits_ends(self):
        # breakpoints (0, 10, 18) on a fit over (0, 20): gamma_b reads w at the
        # fit's ends, where np.interp holds w(18) = 0.25, not at the weight's ends
        fit = noisy_case1_fit()
        model = case1_model()
        weight = WeightFunction((0.0, 10.0, 18.0), (0.5, 1.0, 0.25))
        at_fit_ends = WeightFunction(fit.basis.interval, (0.5, 0.25))
        for label, run in ESTIMATORS.items():
            est = run(fit, model, CriterionConfig(weight=weight))
            want = boundary_functional(fit, model, est.theta_hat, at_fit_ends)
            assert est.gamma_b.tobytes() == want.tobytes(), label
            assert np.all(est.gamma_b != boundary_functional(fit, model, est.theta_hat, weight)), label

    def test_each_estimate_samples_the_path_once(self, monkeypatch):
        fit = noisy_case1_fit()
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 20.0)))
        start = fit_linear_in_theta(fit, model, config).theta_hat
        calls = {}

        def counted(name):
            original = getattr(estimator, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(estimator, name, wrapper)

        for name in ("quadrature_grid", "grid_table", "eval_fit"):
            counted(name)
        runs = {
            "closed form": lambda: fit_linear_in_theta(fit, model, config),
            "Gauss-Newton from the closed form": lambda: fit_nonlinear(fit, model, start, config),
            "Gauss-Newton from a perturbed start": lambda: fit_nonlinear(fit, model, THETA_CASE1 + 0.5, config),
        }
        for label, run in runs.items():
            calls.clear()
            run()
            # one sample of the grid, read off the grid's tables, which gamma_b reads too
            assert calls == {"quadrature_grid": 1, "grid_table": 1}, label

    def test_closed_form_evaluates_param_jacobian_once_on_the_grid(self):
        fit = noisy_case1_fit()
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 20.0)))
        model, calls = logged_param_jacobian(case1_model())
        fit_linear_in_theta(fit, model, config)
        nodes, _ = quadrature_grid(fit)
        # the solve, J*, gamma_s and gamma_b share one call on the grid
        assert [rows for name, rows, _ in calls if name == "jacobian_param"] == [nodes.size]

    def test_nonfinite_path_raises_linear_algebra_error(self):
        fit = noisy_case1_fit()
        coefficients = np.array(fit.coefficients, dtype=float)
        coefficients[0, 5] = np.nan
        broken = dataclasses.replace(fit, coefficients=coefficients)
        config = CriterionConfig(weight=WeightFunction.uniform((0.0, 20.0)))
        for run in ESTIMATORS.values():
            with pytest.raises(np.linalg.LinAlgError):
                run(broken, case1_model(), config)


UNIFORM_20 = WeightFunction.uniform((0.0, 20.0))

# the designs of configs/full_case1.json and full_case2.json
DESIGNS = {
    "cycle": dict(theta_star=tuple(THETA_CASE1), fixed={"a1": 0.0, "b2": 0.0}, x0=(1.0, 2.0)),
    "damped": dict(theta_star=(0.0, -1.5, 1.0, 1.5, -1.0, -1.5), fixed={"a1": 0.0, "b2": -1.0}, x0=(4.0, 2.0)),
}


def assert_same_estimate(got, want, label):
    for field in dataclasses.fields(TwoStepEstimate):
        a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (label, field.name)


class TestEstimateWeights:
    """estimate_weights against fit_linear_in_theta, one criterion at a time."""

    @staticmethod
    def study_fits(design, n, reps=2):
        config = ExperimentConfig(model="glv", n=n, replications=reps, seed=20260815, **DESIGNS[design])
        criteria = {name: CriterionConfig(weight=config.weight_function(name)) for name in config.weights}
        for rep in range(reps):
            times, ys = simulate_data(config, rep)
            yield rep, select_knots(times, ys, config.interval, config.knot_policy).fit, config, criteria

    @pytest.mark.parametrize("n", [20, 100, 500])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_linear_model_equals_the_closed_form_per_weight(self, design, n):
        for rep, fit, config, criteria in self.study_fits(design, n):
            model = config.build_model()
            got = estimate_weights(fit, model, criteria)
            assert list(got) == list(criteria)
            for name, crit in criteria.items():
                assert_same_estimate(got[name], fit_linear_in_theta(fit, model, crit), (rep, name))

    def test_both_weights_share_one_param_jacobian_and_one_offset(self):
        fit = noisy_case1_fit()
        model, calls = logged_param_jacobian(case1_model())
        criteria = {name: CriterionConfig(WeightFunction.named(name, (0.0, 20.0))) for name in ("boundary", "uniform")}
        got = estimate_weights(fit, model, criteria)
        m = quadrature_grid(fit)[0].size
        theta0 = tuple(estimator._assemble_theta(model, 0.0))
        assert [call for call in calls if call[0] == "jacobian_param"] == [("jacobian_param", m, theta0)]
        assert [call for call in calls if call[0] == "field" and call[2] == theta0] == [("field", m, theta0)]
        # besides the offset, the field is evaluated once per weight, for its criterion at the estimate
        at_estimates = [call[2] for call in calls if call[0] == "field" and call[2] != theta0]
        assert at_estimates == [tuple(est.theta_hat) for est in got.values()]

    def test_no_criteria_raise(self):
        with pytest.raises(ValueError, match="criterion"):
            estimate_weights(noisy_case1_fit(), case1_model(), {})

    def test_other_model_needs_a_start(self):
        # fit_nonlinear, with its start, takes a model not declared linear
        model = dataclasses.replace(case1_model(), linear=False)
        with pytest.raises(ValueError, match="not declared linear"):
            estimate_weights(noisy_case1_fit(), model, {"a": CriterionConfig(UNIFORM_20)})


class TestCriterionHessian:
    def test_orthonormal_columns_give_identity(self):
        model = constant_field_model(2)
        nodes = np.linspace(0.0, 1.0, 501)
        weight = WeightFunction.uniform((0.0, 1.0))
        path = lambda ts: np.column_stack([ts, np.cos(ts)])
        jstar, cond = criterion_hessian(path, model, np.zeros(2), weight, nodes)
        np.testing.assert_allclose(jstar, np.eye(2), atol=1e-12)
        assert cond == pytest.approx(1.0)

    def test_case1_truth_is_positive_definite(self):
        fit, truth = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        weight = WeightFunction.boundary_vanishing((0.0, 20.0))
        nodes = np.linspace(0.0, 20.0, 2001)
        jstar, cond = criterion_hessian(truth, model, THETA_CASE1, weight, nodes)
        np.testing.assert_allclose(jstar, jstar.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(jstar)
        assert eigs.min() > 0
        assert cond < 1e6

    def test_weight_scaling_is_linear_and_condition_invariant(self):
        _, truth = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        nodes = np.linspace(0.0, 20.0, 1001)
        w = WeightFunction.boundary_vanishing((0.0, 20.0))
        scaled = WeightFunction(w.breakpoints, tuple(4.0 * v for v in w.values))
        j1, c1 = criterion_hessian(truth, model, THETA_CASE1, w, nodes)
        j2, c2 = criterion_hessian(truth, model, THETA_CASE1, scaled, nodes)
        np.testing.assert_allclose(j2, 4.0 * j1, rtol=1e-12)
        assert c2 == pytest.approx(c1, rel=1e-9)

    def test_duplicated_parameters_warn_singular(self):
        model = duplicated_param_model()
        nodes = np.linspace(0.0, 4.0, 501)
        weight = WeightFunction.uniform((0.0, 4.0))
        path = lambda ts: (0.3 * ts + 1.0)[:, None]
        with pytest.warns(IdentifiabilityWarning) as record:
            _, cond = criterion_hessian(path, model, np.zeros(2), weight, nodes)
        assert cond > 1e10
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("entry", ["estimate_weights", "fit_linear_in_theta", "fit_nonlinear"])
    def test_estimates_warn_at_their_callers_line(self, entry):
        # the closed form still solves (singular values 1e-6 apart), but J*'s condition is above 1e10
        fit = line_fit([0.3], [1.0])
        model = near_duplicate_param_model()
        config = CriterionConfig(WeightFunction.uniform((0.0, 4.0)))
        calls = {
            "estimate_weights": lambda: estimate_weights(fit, model, {"w": config})["w"],
            "fit_linear_in_theta": lambda: fit_linear_in_theta(fit, model, config),
            "fit_nonlinear": lambda: fit_nonlinear(fit, model, np.zeros(2), config),
        }
        with pytest.warns(IdentifiabilityWarning) as record:
            est = calls[entry]()
        assert est.jstar_condition > 1e10
        assert [w.filename for w in record] == [__file__]


class TestSmoothFunctional:
    def test_zero_path_maps_to_zero(self):
        _, truth = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        weight = WeightFunction.boundary_vanishing((0.0, 20.0))
        nodes = np.linspace(0.0, 20.0, 801)
        zero = lambda ts: np.zeros((ts.size, 2))
        out = smooth_functional(truth, model, THETA_CASE1, weight, nodes, apply_to=zero)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_constant_field_reduces_to_weight_slope_integral(self):
        # for F = theta the kernel is -w'(t) I, so the functional is
        # -integral of w'(t) x(t) dt, computable by hand for ramp weights
        model = constant_field_model(2)
        weight = WeightFunction.boundary_vanishing((0.0, 20.0))  # ramps of length 1
        nodes = np.union1d(np.linspace(0.0, 20.0, 16001), np.array(weight.breakpoints))
        path = lambda ts: np.column_stack([ts, np.cos(ts)])
        out = smooth_functional(path, model, np.zeros(2), weight, nodes)
        # w' = 1 on (0,1), -1 on (19,20), 0 elsewhere
        first = -(0.5 - (20.0**2 - 19.0**2) / 2.0)
        second = -(np.sin(1.0) - (np.sin(20.0) - np.sin(19.0)))
        np.testing.assert_allclose(out, [first, second], rtol=1e-3, atol=1e-5)

    def test_linearity_in_the_path(self):
        _, truth = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        weight = WeightFunction.boundary_vanishing((0.0, 20.0))
        nodes = np.linspace(0.0, 20.0, 801)
        xa = lambda ts: np.column_stack([np.sin(ts), ts])
        xb = lambda ts: np.column_stack([np.exp(-ts / 10.0), np.cos(ts)])
        combo = lambda ts: 2.5 * xa(ts) - 1.25 * xb(ts)
        fa = smooth_functional(truth, model, THETA_CASE1, weight, nodes, apply_to=xa)
        fb = smooth_functional(truth, model, THETA_CASE1, weight, nodes, apply_to=xb)
        fc = smooth_functional(truth, model, THETA_CASE1, weight, nodes, apply_to=combo)
        np.testing.assert_allclose(fc, 2.5 * fa - 1.25 * fb, atol=1e-10)


class TestSmoothFunctionalOracle:
    """gamma_s summed by parts against the central-difference kernel it replaces (conftest)."""

    @pytest.mark.parametrize("n", [20, 100, 500, 1000])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_equals_the_central_difference_kernel(self, design, n):
        other = lambda ts: np.column_stack([np.sin(ts), np.exp(-ts / 10.0)])
        for rep, fit, config, criteria in TestEstimateWeights.study_fits(design, n):
            model = config.build_model()
            sample = estimator._sample_path(fit)
            for name, est in estimate_weights(fit, model, criteria).items():
                weight = criteria[name].weight
                theta = est.theta_hat
                args = (
                    sample.nodes,
                    model.jacobian_state(sample.nodes, sample.x, theta),
                    estimator._free_jacobian(model, sample.nodes, sample.x, theta),
                    weight(sample.nodes),
                )
                for got, target in (
                    (est.gamma_s, sample.x),
                    (smooth_functional(fit, model, theta, weight, sample.nodes, apply_to=other), other(sample.nodes)),
                ):
                    want = central_difference_smooth_integral(*args, target)
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (rep, name)

    def test_summation_by_parts_on_four_nodes(self):
        # F = k (x + t): D2F = x + t, D1F = k.  On nodes (0, 1, 3, 4) with y = (1, 2, -1, 4),
        # k = 2 and w = (0, 1, 2, 0): delta = (0.5, 1.5, 1.5, 0.5), P = w D2F = (0, 3, 4, 0).
        # -sum delta w D2F D1F y = -(18 - 12) = -6; the central differences give
        # sum (P_{j+1} - P_{j-1}) y_j / 2 = 1.5 + 4 + 1.5 - 8 = -1, and by parts
        # z = (-1.5, 1, -1, 1.5) with sum P z = 3 - 4 = -1 as well.  So gamma_s = -6 + 1.
        model = single_param_model(lambda t, x: x + t[:, None], lambda t, x: np.ones_like(x))
        nodes = np.array([0.0, 1.0, 3.0, 4.0])
        weight = WeightFunction(tuple(nodes), (0.0, 1.0, 2.0, 0.0))
        path = lambda ts: np.interp(ts, nodes, [1.0, 2.0, -1.0, 4.0])[:, None]
        assert smooth_functional(path, model, np.array([2.0]), weight, nodes) == pytest.approx([-5.0], abs=1e-14)
        x = path(nodes)
        args = (nodes, np.full((4, 1, 1), 2.0), (x + nodes[:, None])[..., None], weight(nodes), x)
        assert central_difference_smooth_integral(*args) == pytest.approx([-5.0], abs=1e-14)


class TestBoundaryFunctional:
    def test_boundary_vanishing_weight_gives_exact_zero(self):
        rng = np.random.default_rng(31)
        model = case1_model()
        weight = WeightFunction.boundary_vanishing((0.0, 20.0))
        for _ in range(20):
            a, b, c = rng.normal(size=3)
            path = lambda ts: np.column_stack(
                [a * np.sin(ts) + 1.5, b * np.cos(ts) + c * ts + 2.0]
            )
            out = boundary_functional(path, model, THETA_CASE1, weight)
            assert np.all(out == 0.0)

    def test_uniform_weight_constant_field_gives_endpoint_difference(self):
        model = constant_field_model(2)
        weight = WeightFunction.uniform((0.0, 20.0))
        path = lambda ts: np.column_stack([ts**2, np.cos(ts)])
        out = boundary_functional(path, model, np.zeros(2), weight)
        expected = np.array([400.0 - 0.0, np.cos(20.0) - 1.0])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_matches_direct_endpoint_assembly(self):
        model = case1_model()
        weight = WeightFunction((0.0, 20.0), (0.7, 1.3))
        path = lambda ts: np.column_stack([np.sin(ts) + 1.5, np.cos(ts) + 2.0])
        out = boundary_functional(path, model, THETA_CASE1, weight)
        ends = np.array([0.0, 20.0])
        x = path(ends)
        jac = model.jacobian_param(ends, x, THETA_CASE1)[:, :, model.free_indices]
        expected = weight(20.0) * jac[1].T @ x[1] - weight(0.0) * jac[0].T @ x[0]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_apply_to_changes_the_evaluated_path(self):
        model = constant_field_model(1)
        weight = WeightFunction.uniform((0.0, 2.0))
        base = lambda ts: ts[:, None]
        other = lambda ts: (3.0 * ts)[:, None]
        out = boundary_functional(base, model, np.zeros(1), weight, apply_to=other)
        np.testing.assert_allclose(out, [6.0 - 0.0], rtol=1e-12)


def linearization_residual(fit, truth, model, theta_star, theta_hat, weight, nodes):
    """Difference between the estimator error and its first-order prediction.

    Both functionals are built along the true path at theta_star and applied
    to the fitted and true paths; the result is
    (theta_hat - theta_star)_free - J*^{-1} [delta gamma_s + delta gamma_b].
    A singular J* raises IdentifiabilityError.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentifiabilityWarning)
        jstar, cond = criterion_hessian(truth, model, theta_star, weight, nodes)
    if not np.isfinite(cond) or cond > 1e12:
        raise IdentifiabilityError(f"J* is singular (condition {cond:.3g})")
    d_gs = smooth_functional(truth, model, theta_star, weight, nodes, apply_to=fit) - smooth_functional(
        truth, model, theta_star, weight, nodes
    )
    d_gb = boundary_functional(truth, model, theta_star, weight, apply_to=fit) - boundary_functional(
        truth, model, theta_star, weight
    )
    delta_theta = (np.asarray(theta_hat, dtype=float) - theta_star)[model.free_indices]
    return delta_theta - np.linalg.solve(jstar, d_gs + d_gb)


class TestLinearizationResidual:
    """The first-order error representation, built on the public diagnostics."""

    def test_zero_when_fit_equals_truth(self):
        _, truth = case1_truth_fit(n_knots=20, n_obs=300)
        model = case1_model()
        weight = WeightFunction.boundary_vanishing((0.0, 20.0))
        nodes = np.linspace(0.0, 20.0, 801)
        out = linearization_residual(
            truth, truth, model, THETA_CASE1, THETA_CASE1, weight, nodes
        )
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_first_order_prediction_captures_noiseless_error(self):
        fit, truth = case1_truth_fit()
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        est = fit_linear_in_theta(fit, model, config)
        nodes = np.linspace(0.0, 20.0, 4001)
        resid = linearization_residual(
            fit, truth, model, THETA_CASE1, est.theta_hat, config.weight, nodes
        )
        err = (est.theta_hat - THETA_CASE1)[model.free_indices]
        ratio = np.linalg.norm(resid) / np.linalg.norm(err)
        assert ratio < 0.5

    def test_singular_hessian_raises(self):
        model = duplicated_param_model()
        weight = WeightFunction.uniform((0.0, 4.0))
        nodes = np.linspace(0.0, 4.0, 201)
        path = lambda ts: (0.3 * ts + 1.0)[:, None]
        with pytest.raises(IdentifiabilityError):
            linearization_residual(
                path, path, model, np.zeros(2), np.zeros(2), weight, nodes
            )


DIAGNOSTICS = {
    "criterion_hessian": lambda path, model, w, nodes: criterion_hessian(path, model, np.zeros(2), w, nodes),
    "smooth_functional": lambda path, model, w, nodes: smooth_functional(path, model, np.zeros(2), w, nodes),
}

BAD_NODES = {
    "reversed": np.linspace(1.0, 0.0, 101),
    "single": np.array([0.5]),
    "repeated": np.array([0.0, 0.5, 0.5, 1.0]),
    "two-dimensional": np.linspace(0.0, 1.0, 100).reshape(50, 2),
    "nan": np.array([0.0, np.nan, 1.0]),
}


class TestDiagnosticNodes:
    @pytest.mark.parametrize("nodes", sorted(BAD_NODES))
    @pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
    def test_rejects_nodes_not_strictly_increasing(self, name, nodes):
        path = lambda ts: np.column_stack([ts, np.cos(ts)])
        with pytest.raises(ValueError, match="nodes"):
            DIAGNOSTICS[name](path, constant_field_model(2), WeightFunction.uniform((0.0, 1.0)), BAD_NODES[nodes])


def oscillator_fit():
    """Spline fit of u for the oscillator below (eta = 1.69, v0 = 0.5), and a boundary config."""
    ts = np.arange(200) * (10.0 / 200)
    omega = np.sqrt(1.69)
    u_true = np.cos(omega * ts) + (0.5 / omega) * np.sin(omega * ts)
    y = (u_true + 0.01 * np.random.default_rng(43).standard_normal(ts.size))[:, None]
    knots = KnotSequence(
        interval=(0.0, ts[-1]), interior_knots=tuple(np.linspace(0.0, ts[-1], 14)[1:-1]), order=4
    )
    config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, ts[-1])))
    return fit_least_squares(BSplineBasis(knots), ts, y), config


def oscillator_system():
    """u' = v, v' = -eta * u with only u observed; hidden block is scalar."""

    def g(u, v, eta):
        return v

    def h(u, eta):
        return -eta[0] * u

    return PartiallyLinearSystem(d_hidden=1, g=g, h=h)


class TestFitPartiallyObserved:
    def test_nothing_hidden_reduces_to_nonlinear_fit(self):
        rng = np.random.default_rng(41)
        ts = np.linspace(0.0, 20.0, 400)
        truth = integrate(case1_model(), THETA_CASE1, np.array([1.0, 2.0]), ts, tol=1e-10)
        y = truth.states + 0.1 * rng.standard_normal(truth.states.shape)
        knots = KnotSequence(
            interval=(0.0, 20.0), interior_knots=tuple(np.linspace(0.0, 20.0, 17)[1:-1]), order=4
        )
        fit = fit_least_squares(BSplineBasis(knots), ts, y)
        model = case1_model()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 20.0)))
        reference = fit_nonlinear(fit, model, fit_linear_in_theta(fit, model, config).theta_hat, config)

        free = model.free_indices

        def g(u, v, eta):
            theta = np.array(THETA_CASE1)
            theta[free] = eta
            return model.field(None, u, theta)

        system = PartiallyLinearSystem(d_hidden=0, g=g, h=lambda u, eta: np.zeros((u.shape[0], 0)))
        est = fit_partially_observed(
            fit,
            system,
            eta0=reference.theta_hat[free] + 0.3,
            a0=np.zeros((0, 0)),
            v0_guess=np.zeros(0),
            config=config,
            estimate_v0=False,
        )
        np.testing.assert_allclose(est.eta, reference.theta_hat[free], atol=1e-5)
        assert est.criterion_value == pytest.approx(reference.criterion_value, rel=1e-6)

    def test_recovers_oscillator_frequency_and_hidden_start(self):
        omega_sq, v0 = 1.69, 0.5
        fit, config = oscillator_fit()
        est = fit_partially_observed(
            fit,
            oscillator_system(),
            eta0=np.array([1.0]),
            a0=np.zeros((1, 1)),
            v0_guess=np.array([0.0]),
            config=config,
            estimate_v0=True,
        )
        assert abs(est.eta[0] - omega_sq) / omega_sq < 0.05
        assert abs(est.v0[0] - v0) / abs(v0) < 0.05
        assert est.converged

    def test_error_in_user_field_propagates(self):
        fit, config = oscillator_fit()

        def g(u, v, eta):
            raise IndexError("bug in the observed field")

        system = dataclasses.replace(oscillator_system(), g=g)
        with pytest.raises(IndexError, match="bug in the observed field"):
            fit_partially_observed(
                fit, system, eta0=np.array([1.0]), a0=np.zeros((1, 1)), v0_guess=np.array([0.5]),
                config=config,
            )

    def test_blowup_in_a_trial_step_is_rejected(self):
        fit, config = oscillator_fit()
        base = oscillator_system()
        calls = []

        def g(u, v, eta):
            calls.append(eta.copy())
            # call 1 is the start and call 2 the one Jacobian column: call 3 is the first trial step
            if len(calls) == 3:
                raise BlowupError("hidden state exceeded norm bound", escape_time=1.0)
            return base.g(u, v, eta)

        kwargs = dict(
            eta0=np.array([1.0]), a0=np.zeros((1, 1)), v0_guess=np.array([0.5]), config=config,
            estimate_v0=False,
        )
        est = fit_partially_observed(fit, dataclasses.replace(base, g=g), **kwargs)
        reference = fit_partially_observed(fit, base, **kwargs)
        assert len(calls) > 3
        assert est.converged
        np.testing.assert_allclose(est.eta, reference.eta, rtol=1e-6)

    def test_jacobian_falls_back_to_a_backward_difference(self):
        fit, config = oscillator_fit()
        base = oscillator_system()
        start = 2.0  # above the true 1.69, so the search moves down, away from the blow-up
        calls = []

        def g(u, v, eta):
            calls.append(eta[0])
            if eta[0] > start:
                raise BlowupError("hidden state exceeded norm bound", escape_time=1.0)
            return base.g(u, v, eta)

        kwargs = dict(
            eta0=np.array([start]), a0=np.zeros((1, 1)), v0_guess=np.array([0.5]), config=config,
            estimate_v0=False,
        )
        est = fit_partially_observed(fit, dataclasses.replace(base, g=g), **kwargs)
        reference = fit_partially_observed(fit, base, **kwargs)
        # call 1 is the start; the forward probe (call 2) fails, so call 3 probes backward
        assert calls[1] > start > calls[2]
        assert est.converged
        np.testing.assert_allclose(est.eta, reference.eta, rtol=1e-6)

    def test_linear_inner_problem_matches_weighted_least_squares(self):
        # u' = eta1 * u + eta2 * cos(t) + v with v' = -v/2 + u known exactly:
        # residual is affine in eta, so the minimizer solves a WLS system
        ts = np.linspace(0.0, 8.0, 240)
        y = (np.sin(ts) * np.exp(-0.1 * ts) + 2.0)[:, None]
        knots = KnotSequence(
            interval=(0.0, 8.0), interior_knots=tuple(np.linspace(0.0, 8.0, 10)[1:-1]), order=4
        )
        fit = fit_least_squares(BSplineBasis(knots), ts, y)
        a_true = np.array([[-0.5]])
        v0_true = np.array([0.3])

        # the forcing h must not depend on eta for the problem to stay linear
        def h(u, eta):
            return u

        # capture quadrature times for the cos term through a closure
        captured = {}

        def g_capture(u, v, eta):
            t = captured["nodes"]
            if u.shape[0] != t.size:
                t = np.interp(np.linspace(0, 1, u.shape[0]), np.linspace(0, 1, t.size), t)
            return eta[0] * u + eta[1] * np.cos(t)[:, None] + v

        system = PartiallyLinearSystem(d_hidden=1, g=g_capture, h=h)
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing((0.0, 8.0)))
        nodes, delta = quadrature_grid(fit)
        captured["nodes"] = nodes

        est = fit_partially_observed(
            fit,
            system,
            eta0=np.array([0.0, 0.0]),
            a0=a_true,
            v0_guess=v0_true,
            config=config,
            estimate_v0=False,
        )

        # closed-form WLS oracle on the same grid
        from gradmatch import duhamel_solve, eval_fit, eval_fit_derivative

        u = eval_fit(fit, nodes)
        udot = eval_fit_derivative(fit, nodes)
        v = duhamel_solve(a_true, lambda t: _interp_u(nodes, u, t), v0_true, nodes)
        w = config.weight(nodes)
        scale = w * delta
        cols = np.column_stack([u[:, 0], np.cos(nodes)])
        rhs = udot[:, 0] - v[:, 0]
        normal = cols.T @ (scale[:, None] * cols)
        oracle = np.linalg.solve(normal, cols.T @ (scale * rhs))
        np.testing.assert_allclose(est.eta, oracle, atol=1e-7)


def _interp_u(grid, values, t):
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return np.array([np.interp(t, grid, values[:, 0])])
    return np.interp(t, grid, values[:, 0])[:, None]
