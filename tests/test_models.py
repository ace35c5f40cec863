"""Tests for vector-field models, the Dormand-Prince integrator, expm, and the Duhamel solver.

The integrator is checked against two oracles: ``reference_integrate``, the
fixed-step RK4 step-doubling ladder the package used before its dense-output
solver, and scipy's DOP853 at tight tolerances when scipy is installed.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from gradmatch.errors import BlowupError, GradMatchError
from gradmatch.models import (
    MODEL_REGISTRY,
    PartiallyLinearSystem,
    Trajectory,
    _escaped,
    damped_linear_field,
    dense_solve,
    duhamel_solve,
    get_model_spec,
    glv_field,
    integrate,
    matrix_exponential,
    read_trajectory_csv,
    write_trajectory_csv,
)

from conftest import glv_param_jacobian_stacked

THETA_CASE1 = np.array([0.0, -1.5, 1.0, 2.0, 0.0, -1.5])

# the cycle and damped designs of configs/full_case1.json and full_case2.json
DESIGNS = {
    "cycle": (THETA_CASE1, np.array([1.0, 2.0])),
    "damped": (np.array([0.0, -1.5, 1.0, 1.5, -1.0, -1.5]), np.array([4.0, 2.0])),
}


def _rk4_pass(fun, x0, t_grid, substeps, blowup_norm):
    d = len(x0)
    out = np.empty((len(t_grid), d))
    out[0] = x0
    x = np.asarray(x0, dtype=float)
    for i in range(len(t_grid) - 1):
        h = (t_grid[i + 1] - t_grid[i]) / substeps
        t = t_grid[i]
        for _ in range(substeps):
            k1 = fun(t, x)
            k2 = fun(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = fun(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = fun(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            if _escaped(x, blowup_norm):
                raise BlowupError(
                    f"trajectory exceeded norm bound {blowup_norm:g} near t = {t:.6g}",
                    escape_time=t,
                )
        out[i + 1] = x
    return out


def reference_integrate(model, theta, x0, t_grid, tol=1e-8, blowup_norm=1e8):
    """Oracle: classic fixed-step RK4 plus step doubling.

    The substep count per output interval doubles until another halving moves
    every output state by less than ``tol`` in the max norm.
    """
    ts = np.asarray(t_grid, dtype=float)
    theta = np.asarray(theta, dtype=float)
    fun = lambda t, x: np.asarray(model.field(t, x, theta), dtype=float)
    substeps = 4
    prev = _rk4_pass(fun, np.asarray(x0, dtype=float), ts, substeps, blowup_norm)
    max_substeps = 2**16
    while substeps <= max_substeps:
        substeps *= 2
        cur = _rk4_pass(fun, np.asarray(x0, dtype=float), ts, substeps, blowup_norm)
        if np.max(np.abs(cur - prev)) < tol:
            return Trajectory(times=ts, states=cur)
        prev = cur
    raise RuntimeError(f"RK4 step doubling did not reach tol = {tol:g} within {max_substeps} substeps")


def numeric_jacobian(fun, x, h=1e-6):
    """Central-difference Jacobian oracle."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((fun(x + e) - fun(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


class TestGLVField:
    def test_hand_value(self):
        model = glv_field()
        got = model.field(0.0, np.array([1.0, 2.0]), THETA_CASE1)
        np.testing.assert_allclose(got, [-2.0, 1.0])

    def test_batched_evaluation(self):
        model = glv_field()
        states = np.array([[1.0, 2.0], [4.0, 2.0], [0.5, 0.5]])
        batched = model.field(np.zeros(3), states, THETA_CASE1)
        rows = np.array([model.field(0.0, s, THETA_CASE1) for s in states])
        np.testing.assert_allclose(batched, rows)

    def test_state_jacobian_matches_differences(self):
        model = glv_field()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(0.2, 4.0, 2)
            theta = rng.normal(size=6)
            got = model.jacobian_state(0.0, x, theta)
            want = numeric_jacobian(lambda s: model.field(0.0, s, theta), x)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_param_jacobian_matches_differences(self):
        model = glv_field()
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(0.2, 4.0, 2)
            theta = rng.normal(size=6)
            got = model.jacobian_param(0.0, x, theta)
            want = numeric_jacobian(lambda th: model.field(0.0, x, th), theta)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_param_jacobian_rows(self):
        model = glv_field()
        x, y = 1.3, 0.7
        jac = model.jacobian_param(0.0, np.array([x, y]), THETA_CASE1)
        np.testing.assert_allclose(jac[0], [x * x, x * y, x, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(jac[1], [0.0, 0.0, 0.0, x * y, y * y, y])

    def test_free_indices(self):
        mask = np.array([True, False, False, False, True, False])
        model = glv_field(mask)
        np.testing.assert_array_equal(model.free_indices, [1, 2, 3, 5])
        assert model.n_free == 4

    @pytest.mark.parametrize("mask", [None, [True, False, False, False, True, False], [True] * 6])
    def test_free_indices_computed_once_read_only(self, mask):
        model = glv_field(mask)
        free = model.free_indices
        assert free.tobytes() == np.nonzero(~model.fixed_mask)[0].tobytes()
        assert model.free_indices is free
        assert not free.flags.writeable

    @pytest.mark.parametrize("field", ["fixed_mask", "fixed_values"])
    def test_rejects_fixed_arrays_of_the_wrong_length(self, field):
        with pytest.raises(ValueError, match=f"{field} must have shape \\(6,\\)"):
            glv_field(**{field: np.zeros(5)})

    def test_registry(self):
        spec = get_model_spec("glv")
        model = spec.build({"a1": 0.0, "b2": 1.0})
        assert model.n_free == 4
        with pytest.raises(KeyError):
            get_model_spec("unknown-model")
        with pytest.raises(KeyError):
            spec.build({"nope": 1.0})
        assert set(MODEL_REGISTRY) == {"glv", "custom-linear-partial"}
        # the entry reads its dimension and names from the model its factory builds
        assert (spec.dim, spec.param_names) == (2, ("a1", "a2", "a3", "b1", "b2", "b3"))
        assert get_model_spec("custom-linear-partial").param_names == ("th1", "th2")

    def test_parameter_count_is_read_from_the_names(self):
        model = glv_field()
        assert model.n_params == len(model.param_names) == 6
        with pytest.raises(TypeError):
            dataclasses.replace(model, n_params=6)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_registered_field_is_affine_in_its_free_parameters(name):
    # the closed form solves with F = D2F[..., free] @ theta_free + F(theta_free = 0)
    factory = MODEL_REGISTRY[name].factory
    n_params = factory().n_params
    rng = np.random.default_rng(2)
    for _ in range(20):
        mask = rng.random(n_params) < 0.4
        values = np.where(mask, rng.normal(size=n_params), 0.0)
        model = factory(fixed_mask=mask, fixed_values=values)
        assert model.linear
        ts = rng.uniform(0.0, 20.0, 7)
        states = rng.uniform(-3.0, 3.0, size=(7, model.dim))
        theta = np.where(mask, values, rng.normal(size=n_params))
        jac = model.jacobian_param(ts, states, theta)
        # declared linear, so D2F does not depend on theta
        np.testing.assert_array_equal(jac, model.jacobian_param(ts, states, rng.normal(size=n_params)))
        recomposed = jac[:, :, model.free_indices] @ theta[~mask] + model.field(ts, states, values)
        np.testing.assert_allclose(recomposed, model.field(ts, states, theta), rtol=0, atol=1e-12)


def glv_state_jacobian_stacked(state, theta):
    x = state[..., 0]
    y = state[..., 1]
    dxx = 2 * theta[0] * x + theta[1] * y + theta[2]
    dxy = theta[1] * x
    dyx = theta[3] * y
    dyy = theta[3] * x + 2 * theta[4] * y + theta[5]
    return np.stack([np.stack([dxx, dxy], axis=-1), np.stack([dyx, dyy], axis=-1)], axis=-2)


def damped_state_jacobian_stacked(state, theta):
    u = state[..., 0]
    one = np.ones_like(u)
    z = np.zeros_like(u)
    return np.stack([np.stack([z, one], axis=-1), np.stack([theta[0] * one, theta[1] * one], axis=-1)], axis=-2)


def damped_param_jacobian_stacked(state):
    u = state[..., 0]
    v = state[..., 1]
    z = np.zeros_like(u)
    return np.stack([np.stack([z, z], axis=-1), np.stack([u, v], axis=-1)], axis=-2)


# each registered model's (D1F, D2F) as nested np.stack, the form the models' filled arrays replace
STACKED_JACOBIANS = {
    "glv": (glv_state_jacobian_stacked, lambda state, theta: glv_param_jacobian_stacked(state)),
    "custom-linear-partial": (damped_state_jacobian_stacked, lambda state, theta: damped_param_jacobian_stacked(state)),
}


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_jacobians_equal_the_stacked_forms_bit_for_bit(name):
    model = MODEL_REGISTRY[name].build()
    want_state, want_param = STACKED_JACOBIANS[name]
    rng = np.random.default_rng(5)
    theta = rng.normal(size=model.n_params)
    batch = rng.uniform(-3.0, 3.0, size=(1044, model.dim))
    states = [batch, batch[0], batch[:1], np.array([[-0.0, 0.0], [np.inf, np.nan]])]
    for state in states:
        ts = np.zeros(state.shape[:-1])
        for got, want in (
            (model.jacobian_state(ts, state, theta), want_state(state, theta)),
            (model.jacobian_param(ts, state, theta), want_param(state, theta)),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype, state.shape
            assert got.tobytes() == want.tobytes(), state.shape


class TestDampedLinearField:
    def test_jacobians_match_differences(self):
        model = damped_linear_field()
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=2)
            theta = rng.normal(size=2)
            np.testing.assert_allclose(
                model.jacobian_state(0.0, x, theta),
                numeric_jacobian(lambda s: model.field(0.0, s, theta), x),
                atol=1e-6,
            )
            np.testing.assert_allclose(
                model.jacobian_param(0.0, x, theta),
                numeric_jacobian(lambda th: model.field(0.0, x, th), theta),
                atol=1e-6,
            )


class TestIntegrate:
    def test_linear_system_exact_solution(self):
        # u' = v, v' = -u: solution (cos t, -sin t) from (1, 0)... sign check:
        # with th1 = -1, th2 = 0: u(t) = cos t, v(t) = -sin t
        model = damped_linear_field()
        ts = np.linspace(0.0, 6.0, 61)
        traj = integrate(model, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), ts, tol=1e-10)
        np.testing.assert_allclose(traj.states[:, 0], np.cos(ts), atol=1e-8)
        np.testing.assert_allclose(traj.states[:, 1], -np.sin(ts), atol=1e-8)

    def test_classic_lv_first_integral_conserved(self):
        # with a1 = b2 = 0 the quantity b1 x + b3 ln x - a2 y - a3 ln y is
        # conserved along trajectories
        model = glv_field()
        a2, a3, b1, b3 = -1.5, 1.0, 2.0, -1.5
        ts = np.linspace(0.0, 20.0, 201)
        traj = integrate(model, THETA_CASE1, np.array([1.0, 2.0]), ts, tol=1e-10)
        x = traj.states[:, 0]
        y = traj.states[:, 1]
        v = b1 * x + b3 * np.log(x) - a2 * y - a3 * np.log(y)
        np.testing.assert_allclose(v, v[0], atol=1e-7)

    def test_tightening_tol_converges(self):
        model = glv_field()
        ts = np.linspace(0.0, 10.0, 101)
        x0 = np.array([1.0, 2.0])
        loose = integrate(model, THETA_CASE1, x0, ts, tol=1e-6)
        tight = integrate(model, THETA_CASE1, x0, ts, tol=1e-11)
        assert np.max(np.abs(loose.states - tight.states)) < 1e-5

    def test_blowup_raises_with_escape_time(self):
        # x' = x^2 from x = 1 blows up at t = 1
        model = glv_field()
        theta = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(BlowupError) as err:
            integrate(model, theta, np.array([1.0, 1.0]), np.linspace(0.0, 2.0, 21))
        assert err.value.escape_time is not None
        assert 0.9 < err.value.escape_time < 1.1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_is_a_blowup_without_a_norm_bound(self, bad):
        class _Breaks:
            def field(self, t, x, theta):
                return np.array([bad if t > 0.5 else 1.0])

        with pytest.raises(BlowupError) as err:
            integrate(_Breaks(), np.zeros(0), [0.0], np.linspace(0.0, 1.0, 11))
        assert 0.5 < err.value.escape_time <= 0.6

    def test_needs_two_grid_points(self):
        model = glv_field()
        with pytest.raises(GradMatchError, match="integration grid needs at least two points"):
            integrate(model, THETA_CASE1, np.array([1.0, 2.0]), np.array([0.0]))


class TestDenseSolve:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_agrees_with_rk4_step_doubling(self, design):
        theta, x0 = DESIGNS[design]
        ts = np.linspace(0.0, 20.0, 101)
        got = integrate(glv_field(), theta, x0, ts, tol=1e-10)
        want = reference_integrate(glv_field(), theta, x0, ts, tol=1e-10)
        assert np.max(np.abs(got.states - want.states)) <= 1e-10

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_agrees_with_dop853(self, design):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        theta, x0 = DESIGNS[design]
        model = glv_field()
        ts = np.linspace(0.0, 20.0, 2001)
        got = integrate(model, theta, x0, ts, tol=1e-10)
        want = solve_ivp(
            lambda t, x: model.field(t, x, theta), (0.0, 20.0), x0,
            method="DOP853", rtol=1e-13, atol=1e-13, t_eval=ts,
        ).y.T
        assert np.max(np.abs(got.states - want)) <= 1e-10

    def test_states_do_not_depend_on_the_other_grid_points(self):
        # the n = 500 observation grid alone and merged with the fine grid
        theta, x0 = DESIGNS["cycle"]
        obs = np.arange(500) * (20.0 / 500)
        union = np.union1d(obs, np.linspace(0.0, 20.0, 2001))
        alone = integrate(glv_field(), theta, x0, obs, tol=1e-10).states
        merged = integrate(glv_field(), theta, x0, union, tol=1e-10).states
        np.testing.assert_array_equal(merged[np.searchsorted(union, obs)], alone)

    def test_solution_covers_its_span_and_starts_at_x0(self):
        theta, x0 = DESIGNS["damped"]
        solution = dense_solve(glv_field(), theta, x0, 0.0, 20.0, tol=1e-8)
        assert solution.starts[0] == 0.0 and solution.t_end >= 20.0
        np.testing.assert_array_equal(solution(np.array([0.0]))[0], x0)
        with pytest.raises(ValueError):
            solution(np.array([-0.1, 1.0]))
        with pytest.raises(ValueError):
            solution(np.array([solution.t_end + 1.0]))

    def test_rejects_bad_tolerance_and_span(self):
        theta, x0 = DESIGNS["cycle"]
        with pytest.raises(ValueError):
            dense_solve(glv_field(), theta, x0, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            dense_solve(glv_field(), theta, x0, 1.0, 1.0)

    def test_non_finite_start_is_a_blowup_at_t0(self):
        class _Nan:
            def field(self, t, x, theta):
                return np.array([np.nan])

        with pytest.raises(BlowupError) as err:
            dense_solve(_Nan(), np.zeros(0), [0.0], 0.0, 1.0)
        assert err.value.escape_time == 0.0

    def test_non_finite_trial_step_warns_nothing(self):
        class _Breaks:
            def field(self, t, x, theta):
                return np.array([np.nan if t > 0.5 else 1.0])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError) as err:
                dense_solve(_Breaks(), np.zeros(0), [0.0], 0.0, 1.0)
        assert 0.5 < err.value.escape_time <= 0.6


class TestMatrixExponential:
    def test_symmetric_against_eigendecomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.normal(size=(4, 4))
            sym = 0.5 * (m + m.T)
            w, q = np.linalg.eigh(sym)
            want = q @ np.diag(np.exp(w)) @ q.T
            np.testing.assert_allclose(matrix_exponential(sym), want, atol=1e-11)

    def test_nilpotent_closed_form(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(matrix_exponential(n), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_time_scaling(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))
        np.testing.assert_allclose(
            matrix_exponential(a, 0.7), matrix_exponential(0.7 * a), atol=1e-12
        )

    def test_large_norm_scaled_and_squared(self):
        a = np.diag([3.0, -40.0])
        np.testing.assert_allclose(
            matrix_exponential(a), np.diag(np.exp([3.0, -40.0])), rtol=1e-12, atol=1e-25
        )

    def test_matches_scipy_expm(self):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(12)
        squared = 0
        for case in range(200):
            size = int(rng.integers(1, 7))
            a = 10 ** rng.uniform(-2.0, 1.3) * rng.normal(size=(size, size))
            squared += np.linalg.norm(a, np.inf) > 0.25
            want = expm(a)
            np.testing.assert_allclose(
                matrix_exponential(a), want, rtol=0, atol=1e-10 * np.abs(want).max(), err_msg=str(case)
            )
        assert squared > 100  # most cases are scaled down and squared back

    def test_rejects_bad_input(self):
        with pytest.raises(GradMatchError, match="matrix exponential needs finite entries"):
            matrix_exponential(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(GradMatchError, match="expected a square matrix"):
            matrix_exponential(np.zeros((2, 3)))


class TestDuhamel:
    def test_zero_matrix_reduces_to_quadrature(self):
        # A = 0: v(t) = v0 + integral of forcing
        ts = np.linspace(0.0, 2.0, 21)
        got = duhamel_solve(np.zeros((1, 1)), lambda t: np.atleast_1d(np.cos(t)), [0.5], ts)
        want = 0.5 + np.sin(ts)
        np.testing.assert_allclose(got[:, 0], want, atol=1e-4)

    def test_homogeneous_matches_expm(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2)) * 0.5
        v0 = rng.normal(size=2)
        ts = np.linspace(0.0, 3.0, 31)
        got = duhamel_solve(a, lambda t: np.zeros(2), v0, ts)
        want = np.array([matrix_exponential(a, t) @ v0 for t in ts])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_constant_forcing_closed_form(self):
        # v' = a v + c with scalar a: v(t) = (v0 + c/a) e^{a t} - c/a
        a, c, v0 = -0.8, 2.0, 1.0
        ts = np.linspace(0.0, 4.0, 41)
        got = duhamel_solve(np.array([[a]]), lambda t: np.atleast_1d(c), [v0], ts, substeps=32)
        want = (v0 + c / a) * np.exp(a * ts) - c / a
        np.testing.assert_allclose(got[:, 0], want, atol=1e-5)

    def test_matches_rk4_on_oscillator(self):
        # forced oscillator solved both ways
        a = np.array([[0.0, 1.0], [-4.0, -0.4]])
        forcing = lambda t: np.array([0.0, np.sin(3 * t)])
        ts = np.linspace(0.0, 5.0, 201)
        got = duhamel_solve(a, forcing, np.array([1.0, 0.0]), ts, substeps=64)

        class _Lin:
            def field(self, t, x, theta):
                return a @ x + forcing(t)

        ref = integrate(_Lin(), np.zeros(0), np.array([1.0, 0.0]), ts, tol=1e-10)
        np.testing.assert_allclose(got, ref.states, atol=2e-4)

    def test_substep_floor(self):
        # even substeps=1 is promoted to 8
        ts = np.array([0.0, 1.0])
        lo = duhamel_solve(np.zeros((1, 1)), lambda t: np.atleast_1d(t), [0.0], ts, substeps=1)
        assert lo[-1, 0] == pytest.approx(0.5, abs=1e-2)

    def test_blowup_guard(self):
        a = np.array([[50.0]])
        with pytest.raises(BlowupError):
            duhamel_solve(a, lambda t: np.atleast_1d(0.0), [1.0], np.linspace(0.0, 10.0, 11))

    def test_non_finite_state_is_a_blowup_without_a_norm_bound(self):
        forcing = lambda t: np.array([np.inf if t > 0.5 else 0.0])
        with pytest.raises(BlowupError) as err:
            duhamel_solve(np.array([[-0.5]]), forcing, [1.0], np.linspace(0.0, 1.0, 11))
        assert 0.5 < err.value.escape_time <= 0.6

    def test_scalar_only_forcing_falls_back_to_pointwise_calls(self):
        # math.cos rejects an array with TypeError, so the batched probe gives way
        a = np.array([[-0.5]])
        ts = np.linspace(0.0, 4.0, 21)
        pointwise = duhamel_solve(a, lambda t: np.array([math.cos(t)]), [1.0], ts)
        batched = duhamel_solve(a, lambda t: np.cos(t)[..., None], [1.0], ts)
        np.testing.assert_allclose(pointwise, batched, rtol=1e-14, atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(GradMatchError, match="Duhamel solve needs a finite matrix"):
            duhamel_solve(np.array([[np.nan]]), lambda t: np.zeros(1), [1.0], np.linspace(0.0, 1.0, 3))
        with pytest.raises(GradMatchError, match="Duhamel grid is empty"):
            duhamel_solve(np.array([[-0.5]]), lambda t: np.zeros(1), [1.0], np.array([]))

    def test_forcing_error_on_a_batch_propagates(self):
        def forcing(t):
            if np.ndim(t):
                raise RuntimeError("bug in the batched forcing")
            return np.array([1.0])

        with pytest.raises(RuntimeError, match="bug in the batched forcing"):
            duhamel_solve(np.array([[-0.5]]), forcing, [1.0], np.linspace(0.0, 1.0, 5))


class TestTrajectoryIO:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        traj = Trajectory(
            times=np.sort(rng.uniform(0, 10, 20)),
            states=rng.normal(size=(20, 3)),
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.states, traj.states)
        header = path.read_text().splitlines()[0]
        assert header == "t,y1,y2,y3"

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0, 1.0]), states=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), states=np.array([[1.0], [np.nan]]))
        with pytest.raises(GradMatchError, match="trajectory needs at least one time point"):
            Trajectory(times=np.array([]), states=np.zeros((0, 1)))
        with pytest.raises(ValueError, match="times and states disagree in length"):
            Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("x,y1\n0,1\n", ValueError, "expected header starting with 't'"),
            ("", ValueError, "expected header starting with 't'"),
            ("t,y1\n", GradMatchError, "no data rows"),
        ],
    )
    def test_rejects_a_bad_header_or_no_rows(self, tmp_path, text, error, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_trajectory_times_must_be_finite(self, bad):
        for times in ([0.0, bad, 2.0], [0.0, 1.0, bad], [bad, 1.0, 2.0]):
            with pytest.raises(ValueError, match="times must be finite"):
                Trajectory(times=np.array(times), states=np.zeros((3, 1)))

    def test_partially_linear_container(self):
        sys = PartiallyLinearSystem(d_hidden=1, g=lambda u, v, eta: v, h=lambda u, eta: eta[0] * u)
        assert sys.d_hidden == 1
        # the observed and parameter dimensions come from the fit and eta0, not from fields
        for removed in ("d_obs", "n_eta"):
            with pytest.raises(TypeError):
                PartiallyLinearSystem(d_hidden=1, g=sys.g, h=sys.h, **{removed: 1})
