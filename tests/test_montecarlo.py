"""Tests for the simulation harness: streams, replications, aggregation."""

import csv
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from gradmatch import (
    CriterionConfig,
    ExperimentConfig,
    ExperimentError,
    GradMatchError,
    IdentifiabilityError,
    KnotPolicy,
    KnotSequence,
    BSplineBasis,
    boundary_functional,
    criterion,
    criterion_components,
    fit_least_squares,
    integrate,
    ks_normality,
    quadrature_grid,
    run_experiment,
    run_replication,
    select_knots,
    simulate_data,
    smooth_functional,
    summary_text,
    write_raw_csv,
    write_summary_csv,
)
import gradmatch.estimator as estimator
import gradmatch.knots as knots
import gradmatch.montecarlo as mc
import gradmatch.splines as splines
from gradmatch.montecarlo import (
    NOISE_PURPOSE,
    _TRUTH_TOL,
    _truth_grids,
    gaussian_draws,
    observation_times,
    substream,
)

THETA_CASE1 = (0.0, -1.5, 1.0, 2.0, 0.0, -1.5)
CASE1_FIXED = {"a1": 0.0, "b2": 0.0}


def case1_config(**overrides):
    base = dict(
        model="glv",
        theta_star=THETA_CASE1,
        fixed=CASE1_FIXED,
        x0=(1.0, 2.0),
        n=100,
        sigma=0.2,
        seed=77,
        replications=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def clear_program_caches():
    """Empty every functools cache in the gradmatch modules, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "gradmatch" or name.startswith("gradmatch."):
            for value in list(vars(module).values()):
                if getattr(value, "__module__", None) == name and callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def cold_truth():
    """Empty the truth caches before and after a test, as in a fresh process."""
    mc._truth_solution.cache_clear()
    mc._truth_grids.cache_clear()
    yield
    mc._truth_solution.cache_clear()
    mc._truth_grids.cache_clear()


class TestStreams:
    def test_same_key_reproduces_draws(self):
        a = substream(123, 4, NOISE_PURPOSE).random(16)
        b = substream(123, 4, NOISE_PURPOSE).random(16)
        np.testing.assert_array_equal(a, b)

    def test_any_key_component_changes_the_stream(self):
        base = substream(123, 4, 1).random(16)
        for other in (substream(124, 4, 1), substream(123, 5, 1), substream(123, 4, 2)):
            assert not np.array_equal(base, other.random(16))

    def test_gaussian_draws_shapes(self):
        rng = substream(9, 0, 1)
        assert gaussian_draws(rng, (5,)).shape == (5,)
        assert gaussian_draws(rng, (3, 4)).shape == (3, 4)
        assert gaussian_draws(rng, (7,)).shape == (7,)  # odd count uses a half pair

    def test_gaussian_draws_deterministic(self):
        a = gaussian_draws(substream(9, 1, 1), (64,))
        b = gaussian_draws(substream(9, 1, 1), (64,))
        np.testing.assert_array_equal(a, b)

    def test_gaussian_draws_equal_the_per_pair_formula(self):
        for count in (1, 2, 7, 64, 1001):
            rng = substream(5, count, 1)
            u1 = 1.0 - rng.random((count + 1) // 2)
            u2 = rng.random((count + 1) // 2)
            radius = np.sqrt(-2.0 * np.log(u1))
            expected = np.empty(2 * u1.size)
            expected[0::2] = radius * np.cos(2.0 * np.pi * u2)
            expected[1::2] = radius * np.sin(2.0 * np.pi * u2)
            got = gaussian_draws(substream(5, count, 1), (count,))
            assert got.tobytes() == expected[:count].tobytes()

    def test_gaussian_draws_moments(self):
        z = gaussian_draws(substream(2024, 0, 1), (100_000,))
        assert abs(z.mean()) < 0.015
        assert abs(z.std(ddof=1) - 1.0) < 0.01
        assert np.all(np.isfinite(z))


class TestExperimentConfig:
    def test_fixed_dict_is_normalized_sorted(self):
        config = case1_config()
        assert config.fixed == (("a1", 0.0), ("b2", 0.0))

    def test_unknown_fixed_parameter_rejected(self):
        with pytest.raises(ValueError):
            case1_config(fixed={"zz": 0.0})

    def test_fixed_value_must_match_theta_star(self):
        with pytest.raises(ValueError):
            case1_config(fixed={"a1": 0.5, "b2": 0.0})

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            case1_config(n=9)
        with pytest.raises(ValueError):
            case1_config(sigma=-0.1)
        with pytest.raises(ValueError):
            case1_config(t_end=0.0)
        # an infinite t_end would send the truth solve on forever
        for override in ({"t_end": math.inf}, {"t_end": math.nan}, {"sigma": math.inf}, {"sigma": math.nan}):
            with pytest.raises(ValueError, match=f"{next(iter(override))} must be finite"):
                case1_config(**override)
        with pytest.raises(ValueError):
            case1_config(replications=0)
        with pytest.raises(ValueError):
            case1_config(weights=("boundary", "nope"))
        with pytest.raises(ValueError, match="need at least one weight variant"):
            case1_config(weights=())
        with pytest.raises(ValueError):
            case1_config(theta_star=(1.0, 2.0))
        with pytest.raises(ValueError):
            case1_config(seed=-1)
        for x0 in ((1.0,), (1.0, 2.0, 3.0)):
            with pytest.raises(ValueError):
                case1_config(x0=x0)

    def test_interval_and_model_construction(self):
        config = case1_config(t_end=12.0)
        assert config.interval == (0.0, 12.0)
        model = config.build_model()
        np.testing.assert_array_equal(model.fixed_mask, [True, False, False, False, True, False])
        assert config.weight_function("uniform")(6.0) == 1.0
        w = config.weight_function("boundary")
        assert w(0.0) == 0.0 and w(12.0) == 0.0


class TestSimulateData:
    def test_times_follow_the_left_closed_grid(self):
        config = case1_config(n=40)
        times, _ = simulate_data(config, 0)
        np.testing.assert_allclose(times, np.arange(40) * 0.5, atol=1e-15)
        np.testing.assert_array_equal(times, observation_times(config))

    def test_zero_noise_returns_truth_exactly(self):
        config = case1_config(sigma=0.0, n=50)
        times, ys = simulate_data(config, 5)
        oracle = integrate(
            config.build_model(), np.array(THETA_CASE1), np.array([1.0, 2.0]), times, tol=1e-10
        )
        np.testing.assert_array_equal(ys, oracle.states)

    def test_replication_determinism_and_distinctness(self):
        config = case1_config()
        _, a = simulate_data(config, 7)
        _, b = simulate_data(config, 7)
        _, c = simulate_data(config, 8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_level_matches_sigma(self):
        config = case1_config(n=500, sigma=0.2)
        _, truth = simulate_data(case1_config(n=500, sigma=0.0), 0)
        draws = []
        for rep in range(100):
            _, ys = simulate_data(config, rep)
            draws.append(ys - truth)
        noise = np.concatenate([d.ravel() for d in draws])
        assert noise.size == 100_000
        assert abs(noise.std(ddof=1) - 0.2) / 0.2 < 0.01


class TestRunReplication:
    def test_bitwise_determinism(self):
        config = case1_config(n=60)
        a = run_replication(config, 3)
        b = run_replication(config, 3)
        assert a.ok and b.ok
        assert a.selected_knots == b.selected_knots
        for name in config.weights:
            np.testing.assert_array_equal(
                a.estimates[name].theta_hat, b.estimates[name].theta_hat
            )
            assert a.estimates[name].criterion_value == b.estimates[name].criterion_value
        np.testing.assert_array_equal(a.curve_rmse, b.curve_rmse)

    def test_one_path_sample_serves_both_weights(self, monkeypatch):
        config = case1_config()
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("quadrature_grid", "grid_table", "eval_fit"):
            counted(estimator, name)
        counted(mc, "grid_table")
        result = run_replication(config, 0)
        assert result.ok and set(result.estimates) == {"boundary", "uniform"}
        # one sample of the quadrature grid for both weights, which gamma_b
        # reads too, and one of the fine grid (curve RMSE), each read off the
        # grid's tables
        assert calls == {
            "estimator.quadrature_grid": 1,
            "estimator.grid_table": 1,
            "montecarlo.grid_table": 1,
        }

    def test_one_design_for_the_search_and_none_for_the_chosen_fit(self, monkeypatch):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(knots, "design_matrix")  # the search's grid design on the times
        counted(splines, "design_matrix")
        counted(knots, "gcv_score")
        config = case1_config()
        knots._grid_factor.cache_clear()
        assert run_replication(config, 0).ok
        assert calls == ["knots.design_matrix"]
        # every replication shares the grid and the times, and the chosen fit is solved on the grid's K rows
        calls.clear()
        assert run_replication(config, 1).ok
        assert calls == []

    @pytest.mark.parametrize("design", ["cycle", "damped"])
    def test_cold_caches_give_the_warm_replication_bit_for_bit(self, design):
        damped = dict(theta_star=(0.0, -1.5, 1.0, 1.5, -1.0, -1.5), fixed={"a1": 0.0, "b2": -1.0}, x0=(4.0, 2.0))
        config = case1_config(n=500) if design == "cycle" else case1_config(n=500, **damped)
        clear_program_caches()
        assert knots._grid_factor.cache_info().currsize == 0
        cold = run_replication(config, 1)
        warm = run_replication(config, 1)
        assert knots._grid_factor.cache_info().hits >= 1
        assert cold.ok and warm.ok
        assert cold.selected_knots == warm.selected_knots
        assert cold.curve_rmse.tobytes() == warm.curve_rmse.tobytes()
        assert list(cold.estimates) == list(warm.estimates)
        for name, est in cold.estimates.items():
            for field in dataclasses.fields(est):
                a, b = np.asarray(getattr(est, field.name)), np.asarray(getattr(warm.estimates[name], field.name))
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, field.name)

    @pytest.mark.parametrize("design", ["cycle", "damped"])
    def test_diagnostics_equal_the_public_functionals_on_the_fit(self, design):
        damped = dict(theta_star=(0.0, -1.5, 1.0, 1.5, -1.0, -1.5), fixed={"a1": 0.0, "b2": -1.0}, x0=(4.0, 2.0))
        config = case1_config(n=200) if design == "cycle" else case1_config(n=200, **damped)
        model = config.build_model()
        for rep in range(3):
            result = run_replication(config, rep)
            assert result.ok, rep
            times, ys = simulate_data(config, rep)
            selection = select_knots(times, ys, config.interval, config.knot_policy)
            assert selection.selected_knots == result.selected_knots, rep
            fit = selection.fit  # the path in the candidate grid's basis, as the replication read it
            for name in config.weights:
                weight = config.weight_function(name)
                nodes, _ = quadrature_grid(fit)
                est = result.estimates[name]
                gamma_b = boundary_functional(fit, model, est.theta_hat, weight)
                gamma_s = smooth_functional(fit, model, est.theta_hat, weight, nodes)
                assert est.gamma_b.tobytes() == gamma_b.tobytes(), (rep, name)
                assert est.gamma_s.tobytes() == gamma_s.tobytes(), (rep, name)

    def test_components_equal_the_public_criterion_at_the_estimate(self):
        config = case1_config()
        result = run_replication(config, 0)
        assert result.ok
        times, ys = simulate_data(config, 0)
        selection = select_knots(times, ys, config.interval, config.knot_policy)
        assert selection.selected_knots == result.selected_knots
        fit = selection.fit  # the path in the candidate grid's basis, as the replication read it
        model = config.build_model()
        for name in config.weights:
            crit = CriterionConfig(weight=config.weight_function(name))
            est = result.estimates[name]
            np.testing.assert_array_equal(est.components, criterion_components(fit, model, est.theta_hat, crit))
            assert est.criterion_value == criterion(fit, model, est.theta_hat, crit)

    def test_zero_noise_recovers_parameters(self):
        dense = KnotPolicy(candidate_count=60, selection="fixed-uniform")
        config = case1_config(sigma=0.0, n=300, knot_policy=dense)
        result = run_replication(config, 0)
        assert result.ok
        star = np.array(THETA_CASE1)
        for name in config.weights:
            assert np.max(np.abs(result.estimates[name].theta_hat - star)) < 1e-2

    def test_failed_estimates_are_recorded(self, monkeypatch, tmp_path):
        real = mc.estimate_weights
        calls = []

        def failing(fit, model, criteria):
            calls.append(None)
            if len(calls) == 3:  # replication 2
                raise IdentifiabilityError("free parameters are not identifiable along: +1.00*a2")
            estimates = real(fit, model, criteria)
            if len(calls) == 6:  # replication 5: the second weight's estimate is not finite
                theta_hat = estimates["uniform"].theta_hat.copy()
                theta_hat[0] = np.nan
                estimates["uniform"] = dataclasses.replace(estimates["uniform"], theta_hat=theta_hat)
            return estimates

        monkeypatch.setattr(mc, "estimate_weights", failing)
        table = run_experiment(case1_config(n=50, replications=10))
        assert table.n_failed == 2
        assert table.failures == (
            "IdentifiabilityError: free parameters are not identifiable along: +1.00*a2",
            "non-finite estimate (uniform)",
        )
        assert table.weight_summary("uniform").n_used == 8
        write_raw_csv(table, tmp_path / "raw.csv")
        with open(tmp_path / "raw.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 2 * 8 + 2
        assert all(len(row) == len(header) for row in rows)
        failed = [row for row in rows if row[1] == "false"]
        assert [row[0] for row in failed] == ["2", "5"]
        assert [row[-1] for row in failed] == list(table.failures)
        assert all(cell == "" for row in failed for cell in row[2:-1])

    def test_rank_deficient_spline_is_a_failure(self):
        # 30 uniform candidates give 34 cubic coefficients for 20 observations
        policy = KnotPolicy(candidate_count=30, selection="fixed-uniform")
        result = run_replication(case1_config(n=20, knot_policy=policy), 0)
        assert not result.ok
        assert result.failure == "rank-deficient first-step spline"
        assert result.estimates is None

    def test_boundary_weight_estimate_has_zero_boundary_term(self):
        config = case1_config(n=80)
        result = run_replication(config, 1)
        assert result.ok
        assert np.all(result.estimates["boundary"].gamma_b == 0.0)

    def test_curve_rmse_of_truth_against_itself_is_zero(self):
        # the RMSE convention: sqrt of the trapezoid integral of the squared
        # pointwise gap; identical curves give exactly zero
        ts = np.linspace(0.0, 20.0, 2001)
        truth = integrate(
            case1_config().build_model(), np.array(THETA_CASE1), np.array([1.0, 2.0]), ts
        )
        gap = truth.states - truth.states
        rmse = np.sqrt(np.trapezoid(gap**2, ts, axis=0))
        np.testing.assert_array_equal(rmse, [0.0, 0.0])

    def test_zero_noise_curve_rmse_is_small(self):
        dense = KnotPolicy(candidate_count=60, selection="fixed-uniform")
        config = case1_config(sigma=0.0, n=300, knot_policy=dense)
        result = run_replication(config, 0)
        assert result.ok
        assert np.all(result.curve_rmse < 1e-2)


class TestPathFromGridTables:
    """A replication reads its fit's path off the grid's cached tables."""

    @pytest.mark.parametrize("selection", ["elim-add", "fixed-uniform"])
    def test_sample_equals_the_chosen_knots_evaluation(self, selection):
        config = case1_config(n=200, knot_policy=KnotPolicy(selection=selection))
        for rep in range(3):
            times, ys = simulate_data(config, rep)
            fit = select_knots(times, ys, config.interval, config.knot_policy).fit
            # a search fit is read in the candidate grid's basis; the full grid is its own
            assert (fit.grid is None) == (selection == "fixed-uniform"), rep
            sample = estimator._sample_path(fit)
            nodes, delta = quadrature_grid(fit)
            assert sample.nodes.tobytes() == nodes.tobytes() and sample.delta.tobytes() == delta.tobytes()
            want = [splines.eval_basis(fit.basis, nodes) @ fit.coefficients.T,
                    splines.eval_basis_derivative(fit.basis, nodes) @ fit.coefficients.T]
            public = [splines.eval_fit(fit, nodes), splines.eval_fit_derivative(fit, nodes)]
            for got, value in zip([sample.x, sample.xdot] + public, want + want):
                if fit.grid is None:
                    assert got.tobytes() == value.tobytes(), rep
                else:
                    np.testing.assert_allclose(got, value, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("selection", ["elim-add", "fixed-uniform"])
    def test_curve_rmse_equals_the_chosen_knots_evaluation(self, selection):
        config = case1_config(n=200, knot_policy=KnotPolicy(selection=selection))
        _, _, fine_ts, fine_truth = _truth_grids(config)
        for rep in range(3):
            result = run_replication(config, rep)
            times, ys = simulate_data(config, rep)
            fit = select_knots(times, ys, config.interval, config.knot_policy).fit
            diff = splines.eval_basis(fit.basis, fine_ts) @ fit.coefficients.T - fine_truth
            want = np.sqrt(np.trapezoid(diff**2, fine_ts, axis=0))
            if fit.grid is None:
                assert result.curve_rmse.tobytes() == want.tobytes(), rep
            else:
                np.testing.assert_allclose(result.curve_rmse, want, rtol=1e-12, atol=0)

    def test_set_up_builds_no_table(self):
        # the calls of a fixed-knot benchmark set-up, in a fresh interpreter:
        # import, a knot sequence and its basis, a config, 50 datasets and a fit
        code = (
            "import numpy as np\n"
            "from gradmatch import BSplineBasis, ExperimentConfig, KnotSequence, fit_least_squares, simulate_data\n"
            "from gradmatch.splines import grid_table\n"
            "config = ExperimentConfig(model='glv', theta_star=(0.0, -1.5, 1.0, 1.5, -1.0, -1.5), x0=(4.0, 2.0),\n"
            "                          fixed={'a1': 0.0, 'b2': -1.0}, n=1000, replications=50)\n"
            "basis = BSplineBasis(KnotSequence(config.interval, tuple(np.linspace(0.0, 20.0, 22)[1:-1]), 4))\n"
            "data = [simulate_data(config, i) for i in range(50)]\n"
            "fit = fit_least_squares(basis, *data[0])\n"
            "print(grid_table.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mc.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"


class TestTruth:
    @pytest.mark.parametrize(
        "design",
        [
            dict(theta_star=THETA_CASE1, fixed=CASE1_FIXED, x0=(1.0, 2.0)),
            dict(theta_star=(0.0, -1.5, 1.0, 1.5, -1.0, -1.5), fixed={"a1": 0.0, "b2": -1.0}, x0=(4.0, 2.0)),
        ],
        ids=["cycle", "damped"],
    )
    def test_grids_read_off_one_solve_equal_integrate(self, design):
        config = case1_config(n=500, **design)
        model, theta, x0 = config.build_model(), np.array(config.theta_star), np.array(config.x0)
        times, truth, fine_ts, fine_truth = _truth_grids(config)
        for grid, states in ((times, truth), (fine_ts, fine_truth)):
            direct = integrate(model, theta, x0, grid, tol=_TRUTH_TOL)
            np.testing.assert_array_equal(states, direct.states)

    def test_workers_inherit_the_truth(self, cold_truth, monkeypatch, tmp_path):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the parent's truth only when forked")
        log = tmp_path / "solver_pids.txt"
        real = mc.dense_solve

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(mc, "dense_solve", logged)
        run_experiment(case1_config(n=50, replications=4), n_jobs=2)
        assert log.read_text().split() == [str(os.getpid())]


class TestRunExperiment:
    def test_deterministic_and_thread_count_independent(self):
        config = case1_config(n=50, replications=4)
        serial = run_experiment(config, n_jobs=1)
        again = run_experiment(config, n_jobs=1)
        parallel = run_experiment(config, n_jobs=2)
        for other in (again, parallel):
            for name in config.weights:
                np.testing.assert_array_equal(
                    serial.weight_summary(name).thetas, other.weight_summary(name).thetas
                )
            np.testing.assert_array_equal(serial.curve_rmse_mean, other.curve_rmse_mean)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_caller_pool_of_any_start_method_matches_serial(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        config = case1_config(n=50, replications=4)
        serial = run_experiment(config, n_jobs=1)
        with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context(method)) as pool:
            pooled = run_experiment(config, n_jobs=2, pool=pool)
        assert multiprocessing.active_children() == []
        for name in config.weights:
            np.testing.assert_array_equal(serial.weight_summary(name).thetas, pooled.weight_summary(name).thetas)
        np.testing.assert_array_equal(serial.curve_rmse_mean, pooled.curve_rmse_mean)

    @pytest.mark.parametrize("cpus, workers, chunk", [(None, 1, 2), (1, 1, 2), (3, 3, 1)])
    def test_own_pool_holds_at_most_one_worker_per_cpu(self, inline_pools, monkeypatch, cpus, workers, chunk):
        # 16 replications chunk as 16 // (8 * workers), with the capped worker count, not n_jobs
        config = case1_config(n=50, replications=16)
        serial = run_experiment(config, n_jobs=1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pooled = run_experiment(config, n_jobs=100_000)
        assert inline_pools == {"workers": [workers], "chunks": [chunk]}
        for name in config.weights:
            np.testing.assert_array_equal(serial.weight_summary(name).thetas, pooled.weight_summary(name).thetas)

    def test_single_replication_has_no_spread(self):
        config = case1_config(n=50, replications=1)
        table = run_experiment(config)
        single = run_replication(config, 0)
        assert "(single replication)" in summary_text([table])
        for name in config.weights:
            ws = table.weight_summary(name)
            assert ws.std is None
            assert ws.ks == ()
            assert ws.n_used == 1
            np.testing.assert_array_equal(ws.mean, single.estimates[name].theta_hat)
            assert ws.param_mse == pytest.approx(
                float(np.sum((single.estimates[name].theta_hat - np.array(THETA_CASE1)) ** 2))
            )

    def test_zero_noise_summary_sits_on_truth(self):
        dense = KnotPolicy(candidate_count=60, selection="fixed-uniform")
        config = case1_config(sigma=0.0, n=300, replications=2, knot_policy=dense)
        table = run_experiment(config)
        for name in config.weights:
            ws = table.weight_summary(name)
            np.testing.assert_allclose(ws.mean, THETA_CASE1, atol=1e-2)
            assert ws.param_rmse < 1e-2

    def test_failure_fraction_policy(self, monkeypatch):
        import gradmatch.montecarlo as mc

        real = mc.run_replication

        def flaky(config, rep_index):
            if rep_index % 3 == 0:  # 4 of 10 fail
                return mc.ReplicationResult(rep_index, False, failure="synthetic")
            return real(config, rep_index)

        monkeypatch.setattr(mc, "run_replication", flaky)
        config = case1_config(n=50, replications=10)
        with pytest.raises(ExperimentError, match="synthetic"):
            mc.run_experiment(config)

    def test_small_failure_count_is_reported_not_fatal(self, monkeypatch):
        import gradmatch.montecarlo as mc

        real = mc.run_replication

        def flaky(config, rep_index):
            if rep_index == 2:
                return mc.ReplicationResult(rep_index, False, failure="synthetic")
            return real(config, rep_index)

        monkeypatch.setattr(mc, "run_replication", flaky)
        config = case1_config(n=50, replications=10)
        table = mc.run_experiment(config)
        assert table.n_failed == 1
        assert table.failures == ("synthetic",)
        assert table.weight_summary("boundary").n_used == 9

    def test_estimate_never_beats_criterion_at_truth(self):
        config = case1_config(n=50, replications=6)
        table = run_experiment(config)
        star = np.array(THETA_CASE1)
        for result in table.results:
            assert result.ok
            _, ys = simulate_data(config, result.rep_index)
            times = observation_times(config)
            basis = BSplineBasis(
                KnotSequence(config.interval, result.selected_knots, config.knot_policy.order)
            )
            fit = fit_least_squares(basis, times, ys)
            model = config.build_model()
            for name in config.weights:
                crit = CriterionConfig(weight=config.weight_function(name))
                at_truth = criterion(fit, model, star, crit)
                assert result.estimates[name].criterion_value <= at_truth + 1e-12

    def test_parameter_rmse_shrinks_with_sample_size(self):
        small = run_experiment(case1_config(n=100, replications=30, seed=5))
        large = run_experiment(case1_config(n=1000, replications=30, seed=5))
        rmse_small = small.weight_summary("boundary").param_rmse
        rmse_large = large.weight_summary("boundary").param_rmse
        assert rmse_large < rmse_small


def _lilliefors_one(sample):
    """The statistic of one sample, the reference for the row-wise version."""
    n = sample.size
    z = np.sort((sample - sample.mean()) / sample.std(ddof=1))
    cdf = mc._phi(z)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _ks_critical_value_per_resample(n, resamples):
    """The null table drawn one resample at a time, the reference for the blocked draw."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=[mc._KS_SEED, n, resamples])))
    stats = [_lilliefors_one(gaussian_draws(rng, n)) for _ in range(resamples)]
    return float(np.quantile(stats, 0.95))


class TestKSNormality:
    def test_rows_equal_the_one_sample_statistic(self):
        rng = np.random.default_rng(8)
        for n in (50, 51, 333):
            samples = 2.0 * rng.standard_normal((7, n)) - 1.0
            rows = mc._lilliefors_statistic(samples)
            assert [v.hex() for v in rows.tolist()] == [_lilliefors_one(x).hex() for x in samples]
            assert ks_normality(samples[0]).statistic.hex() == _lilliefors_one(samples[0]).hex()

    @pytest.mark.parametrize("n, resamples", [(50, 500), (51, 2000), (79, 500), (200, 2000), (1000, 500)])
    def test_blocked_null_table_equals_the_per_resample_loop(self, n, resamples):
        blocked = mc._ks_critical_value.__wrapped__(n, resamples)
        assert blocked.hex() == _ks_critical_value_per_resample(n, resamples).hex()

    @pytest.mark.slow
    @pytest.mark.parametrize("resamples", [500, 2000])
    def test_blocked_null_table_equals_the_per_resample_loop_over_sizes(self, resamples):
        for n in [*range(50, 80), 99, 100, 101, 150, 199, 200, 333, 500, 777, 1000]:
            blocked = mc._ks_critical_value.__wrapped__(n, resamples)
            assert blocked.hex() == _ks_critical_value_per_resample(n, resamples).hex(), n

    def test_normal_sample_rejection_rate_is_calibrated(self):
        rng = np.random.default_rng(99)
        rejections = 0
        trials = 300
        for _ in range(trials):
            sample = rng.standard_normal(100)
            rejections += int(ks_normality(sample).reject)
        rate = rejections / trials
        assert 0.02 <= rate <= 0.09

    def test_uniform_sample_is_rejected(self):
        rng = np.random.default_rng(13)
        sample = rng.random(500)
        assert ks_normality(sample).reject

    def test_affine_invariance_of_the_statistic(self):
        rng = np.random.default_rng(17)
        sample = rng.standard_normal(200)
        a = ks_normality(sample)
        b = ks_normality(3.0 * sample + 7.0)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert a.reject == b.reject

    def test_deterministic_decision(self):
        rng = np.random.default_rng(21)
        sample = rng.standard_normal(120)
        a = ks_normality(sample)
        b = ks_normality(sample)
        assert (a.statistic, a.critical_value, a.reject) == (
            b.statistic,
            b.critical_value,
            b.reject,
        )
        assert a.sample_size == 120

    def test_phi_equals_the_elementwise_erf_loop(self):
        z = np.concatenate([np.linspace(-9.0, 9.0, 1001), [0.0, -0.0, 1e-300, 40.0, -40.0]])
        loop = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
        np.testing.assert_array_equal(mc._phi(z), loop)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            ks_normality(np.zeros(49) + np.arange(49))

    def test_zero_variance_rejected(self):
        with pytest.raises(GradMatchError, match="sample has zero variance"):
            ks_normality(np.full(60, 3.14))


@pytest.fixture(scope="module")
def tiny_table():
    return run_experiment(case1_config(n=50, replications=3))


class TestWriters:
    def test_summary_csv_layout(self, tiny_table, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv([tiny_table], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one per weight variant
        assert {r["weight"] for r in rows} == {"boundary", "uniform"}
        for r in rows:
            assert r["n"] == "50"
            assert r["used"] == "3"
            assert r["failed"] == "0"
            float(r["param_rmse"])
            float(r["mean_a2"])
            float(r["std_b3"])
            float(r["curve_rmse_1"])
            assert r["ks_stat_a2"] == ""  # needs >= 50 replications

    def test_summary_csv_multiple_tables(self, tiny_table, tmp_path):
        other = run_experiment(case1_config(n=100, replications=2))
        path = tmp_path / "summary.csv"
        write_summary_csv([tiny_table, other], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["50", "50", "100", "100"]

    def test_summary_text_sections(self, tiny_table):
        text = summary_text([tiny_table])
        assert "Parameter estimates" in text
        assert "Parameter error and curve accuracy" in text
        assert "Criterion minima per state dimension" in text
        assert "Normality checks" in text
        assert "(needs >= 50 replications)" in text
        assert "boundary" in text and "uniform" in text
        assert summary_text([]) == "(no experiments)\n"

    def test_summary_text_ks_cells(self, tiny_table):
        ok = mc.KSResult(statistic=0.0612, critical_value=0.12, reject=False, sample_size=60)
        bad = mc.KSResult(statistic=0.25, critical_value=0.12, reject=True, sample_size=60)
        weights = tuple(dataclasses.replace(ws, ks=(("a2", ok), ("b3", bad))) for ws in tiny_table.weights)
        text = summary_text([dataclasses.replace(tiny_table, weights=weights)])
        cells = [line for line in text.splitlines() if line.endswith("b3: reject (D=0.2500)")]
        assert [line.split()[:2] for line in cells] == [["50", "boundary"], ["50", "uniform"]]
        assert all("a2: ok (D=0.0612), " in line for line in cells)

    def test_weight_summary_of_an_unknown_weight_raises(self, tiny_table):
        with pytest.raises(KeyError, match="no summary for weight 'nope'"):
            tiny_table.weight_summary("nope")

    def test_raw_csv_rows(self, tiny_table, tmp_path):
        path = tmp_path / "raw.csv"
        write_raw_csv(tiny_table, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 3 replications x 2 weights
        assert {r["weight"] for r in rows} == {"boundary", "uniform"}
        for r in rows:
            assert r["ok"] == "true"
            float(r["theta_a2"])
            float(r["criterion_value"])
            float(r["curve_rmse_2"])
