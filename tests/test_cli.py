"""End-to-end tests of the command-line interface (invoked in process)."""

import csv
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from gradmatch import (
    CriterionConfig,
    KnotPolicy,
    WeightFunction,
    fit_linear_in_theta,
    get_model_spec,
    read_trajectory_csv,
    select_knots,
    write_report,
)
from gradmatch.cli import main
from gradmatch.errors import BlowupError, ExperimentError

CASE1_THETA = "0,-1.5,1,2,0,-1.5"


def simulate_args(out, n=60, seed=7, sigma="0.2", theta=CASE1_THETA, x0="1,2"):
    return [
        "simulate",
        "--model",
        "glv",
        "--theta",
        theta,
        "--x0",
        x0,
        "--n",
        str(n),
        "--sigma",
        sigma,
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]


def write_mc_config(path, **overrides):
    config = {
        "schema": 1,
        "model": "glv",
        "theta_star": [0.0, -1.5, 1.0, 2.0, 0.0, -1.5],
        "fixed": {"a1": 0.0, "b2": 0.0},
        "x0": [1.0, 2.0],
        "n_list": [50],
        "sigma": 0.2,
        "replications": 3,
        "seed": 11,
        "label": "t",
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestSimulate:
    def test_identical_runs_produce_identical_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(simulate_args(a, n=100, seed=7)) == 0
        assert main(simulate_args(b, n=100, seed=7)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_row_count_and_time_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(simulate_args(out, n=1000)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "y1", "y2"]
        assert len(rows) == 1001
        times = [float(r[0]) for r in rows[1:]]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(19.98)
        assert times[1] - times[0] == pytest.approx(0.02)

    def test_zero_noise_matches_truth(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert main(simulate_args(out, n=40, sigma="0")) == 0
        from gradmatch import integrate, read_trajectory_csv
        from gradmatch.models import get_model_spec

        data = read_trajectory_csv(out)
        model = get_model_spec("glv").build({})
        truth = integrate(
            model, np.array([0.0, -1.5, 1.0, 2.0, 0.0, -1.5]), np.array([1.0, 2.0]),
            data.times, tol=1e-10,
        )
        np.testing.assert_allclose(data.states, truth.states, atol=1e-12)

    def test_unknown_model_is_a_usage_error(self, tmp_path):
        args = simulate_args(tmp_path / "x.csv")
        args[args.index("glv")] = "nope"
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2

    def test_wrong_theta_length_exits_2(self, tmp_path, capsys):
        assert main(simulate_args(tmp_path / "x.csv", theta="1,2,3")) == 2
        assert "theta_star needs 6 entries" in capsys.readouterr().err

    def test_absent_options_take_the_study_defaults(self, tmp_path):
        # without --sigma, --t-end and --seed the run reads ExperimentConfig's 0.2, 20 and 0
        explicit, implicit = tmp_path / "explicit.csv", tmp_path / "implicit.csv"
        args = ["simulate", "--model", "glv", "--theta", CASE1_THETA, "--x0", "1,2", "--n", "60"]
        assert main(args + ["--sigma", "0.2", "--t-end", "20", "--seed", "0", "--out", str(explicit)]) == 0
        assert main(args + ["--out", str(implicit)]) == 0
        assert explicit.read_bytes() == implicit.read_bytes()

    @pytest.mark.parametrize("x0", ["1", "1,2,3"])
    def test_wrong_x0_length_exits_2(self, tmp_path, x0, capsys):
        assert main(simulate_args(tmp_path / "x.csv", x0=x0)) == 2
        assert "x0 needs 2 entries" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_blowup_exits_3(self, tmp_path):
        # positive quadratic self-coupling in the second dimension escapes in
        # finite time from this start, well before t_end
        args = simulate_args(tmp_path / "boom.csv", theta="0,-1.5,1,1.5,1,-1.5", x0="4,2")
        assert main(args) == 3

    # an infinite --t-end would send the truth solve on forever
    @pytest.mark.parametrize(
        "flag, value", [("--theta", "a,b,c,d,e,f"), ("--t-end", "inf"), ("--t-end", "nan"), ("--sigma", "nan")]
    )
    def test_bad_numeric_flag_exits_2(self, tmp_path, flag, value, capsys):
        # the flag given last wins over the one simulate_args spells out
        assert main(simulate_args(tmp_path / "x.csv") + [flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_out_under_a_regular_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(simulate_args(tmp_path / "file" / "x.csv")) == 2
        assert "cannot write" in capsys.readouterr().err


@pytest.fixture(scope="module")
def case1_n500(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "case1_n500.csv"
    assert main(simulate_args(out, n=500, seed=7)) == 0
    return out


class TestFit:
    def test_estimate_lands_near_published_means(self, case1_n500, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "fit",
                "--data",
                str(case1_n500),
                "--model",
                "glv",
                "--weight",
                "boundary",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "theta_hat:" in captured.out
        assert "jstar condition:" in captured.out
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        theta = np.array(report["theta_hat"])
        anchor = np.array([-1.42, 0.95, 1.90, -1.44])
        np.testing.assert_allclose(theta[[1, 2, 3, 5]], anchor, atol=0.35)
        assert theta[0] == 0.0 and theta[4] == 0.0

    def test_boundary_weight_reports_zero_boundary_term(self, case1_n500, tmp_path):
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "fit",
                    "--data",
                    str(case1_n500),
                    "--model",
                    "glv",
                    "--weight",
                    "boundary",
                    "--out",
                    str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["gamma_b"] == [0.0, 0.0, 0.0, 0.0]

    def test_refit_is_deterministic(self, case1_n500, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["fit", "--data", str(case1_n500), "--model", "glv"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_knot_count(self, case1_n500, tmp_path):
        report_path = tmp_path / "k.json"
        code = main(
            [
                "fit",
                "--data",
                str(case1_n500),
                "--model",
                "glv",
                "--knots",
                "25",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        theta = np.array(json.loads(report_path.read_text())["theta_hat"])
        assert np.all(np.isfinite(theta))

    @pytest.mark.parametrize("count", [0, 25, 40])
    def test_knot_count_is_the_fixed_uniform_policy(self, case1_n500, tmp_path, count):
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        args = ["fit", "--data", str(case1_n500), "--model", "glv", "--knots", str(count), "--out", str(got)]
        assert main(args) == 0
        data = read_trajectory_csv(case1_n500)
        interval = (float(data.times[0]), float(data.times[-1]))
        fit = select_knots(data.times, data.states, interval, KnotPolicy(count, selection="fixed-uniform")).fit
        assert len(fit.basis.knots.interior_knots) == count
        model = get_model_spec("glv").build()
        config = CriterionConfig(weight=WeightFunction.boundary_vanishing(interval))
        write_report(fit_linear_in_theta(fit, model, config), want)
        assert got.read_bytes() == want.read_bytes()

    def test_theta_init_for_a_linear_model_exits_2(self, case1_n500, capsys):
        # every registered model is declared linear, so fit takes no start
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--data", str(case1_n500), "--model", "glv", "--theta-init", CASE1_THETA])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --theta-init" in captured.err
        assert "theta_hat" not in captured.out

    @pytest.mark.parametrize("knots", ["-1", "x"])
    def test_bad_knot_count_exits_2(self, case1_n500, knots, capsys):
        code = main(["fit", "--data", str(case1_n500), "--model", "glv", "--knots", knots])
        assert code == 2
        assert "--knots" in capsys.readouterr().err

    def test_rank_deficient_spline_exits_2(self, tmp_path, capsys):
        # 500 uniform knots on 200 points leave most spans empty
        data = tmp_path / "n200.csv"
        assert main(simulate_args(data, n=200)) == 0
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--model", "glv", "--knots", "500"])
        assert code == 2
        captured = capsys.readouterr()
        assert "rank-deficient" in captured.err
        assert "504 spline coefficients" in captured.err and "n = 200" in captured.err
        assert "theta_hat" not in captured.out

    @pytest.mark.parametrize("pair", ["a1", "a1=x"])
    def test_bad_fixed_pair_exits_2(self, case1_n500, pair, capsys):
        assert main(["fit", "--data", str(case1_n500), "--model", "glv", "--theta-fixed", pair]) == 2
        assert "--theta-fixed" in capsys.readouterr().err

    def test_unknown_fixed_name_exits_2(self, case1_n500):
        assert (
            main(
                [
                    "fit",
                    "--data",
                    str(case1_n500),
                    "--model",
                    "glv",
                    "--theta-fixed",
                    "zz=1",
                ]
            )
            == 2
        )

    def test_unknown_fixed_name_prints_the_models_message_unquoted(self, case1_n500, capsys):
        assert main(["fit", "--data", str(case1_n500), "--model", "glv", "--theta-fixed", "nope=1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown parameter 'nope' for model 'glv'\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rows, message",
        [
            (None, "cannot read"),
            ([[t, 1.0] for t in range(20)], "data has 1 state columns, model 'glv' needs 2"),
            ([[t, 1.0, 2.0] for t in range(8)], "first-step fit failed: need at least 10 observations"),
            ([[t, 1.0, 2.0] for t in [0, math.nan] + list(range(2, 20))], "trajectory times must be finite"),
            ([[t, 1.0, 2.0] for t in list(range(19)) + [math.inf]], "trajectory times must be finite"),
        ],
        ids=[
            "missing file",
            "one state column",
            "too few observations for the knot search",
            "nan time",
            "infinite last time",
        ],
    )
    def test_unusable_data_exits_2(self, tmp_path, rows, message, capsys):
        path = tmp_path / "data.csv"
        if rows is not None:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t"] + [f"y{i}" for i in range(1, len(rows[0]))])
                writer.writerows(rows)
        assert main(["fit", "--data", str(path), "--model", "glv"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "theta_hat" not in captured.out

    def test_out_under_a_regular_file_exits_2(self, case1_n500, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "r.json"
        assert main(["fit", "--data", str(case1_n500), "--model", "glv", "--knots", "10", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_degenerate_data_exits_4(self, tmp_path):
        # first state identically zero kills the x-equation design block and
        # the cross column of the y-equation, so the problem is unidentifiable
        path = tmp_path / "flat.csv"
        ts = np.linspace(0.0, 10.0, 80)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "y1", "y2"])
            for t in ts:
                writer.writerow([f"{t:.17g}", "0", f"{np.exp(-0.1 * t):.17g}"])
        code = main(["fit", "--data", str(path), "--model", "glv", "--knots", "6"])
        assert code == 4


class TestMonteCarlo:
    def test_outputs_and_columns(self, tmp_path, capsys):
        config = write_mc_config(tmp_path / "config.json", raw_dump=True)
        out_dir = tmp_path / "out"
        assert main(["mc", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "Parameter estimates" in captured.out
        summary = out_dir / "t_summary.csv"
        text = out_dir / "t_summary.txt"
        raw = out_dir / "t_raw_n50.csv"
        assert summary.exists() and text.exists() and raw.exists()
        with open(summary, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["weight"] for r in rows} == {"boundary", "uniform"}
        with open(raw, newline="") as fh:
            raw_rows = list(csv.DictReader(fh))
        assert len(raw_rows) == 6

    def test_absent_optional_keys_take_the_config_defaults(self, tmp_path):
        required = {
            "schema": 1,
            "model": "glv",
            "theta_star": [0.0, -1.5, 1.0, 2.0, 0.0, -1.5],
            "x0": [1.0, 2.0],
            "n_list": [50],
            "replications": 3,
            "seed": 11,
        }
        spelled = dict(required, fixed={}, sigma=0.2, t_end=20.0, weights=["boundary", "uniform"],
                       label="experiment", raw_dump=False)
        for name, config in (("required", required), ("spelled", spelled)):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            assert main(["mc", "--config", str(tmp_path / f"{name}.json"), "--out-dir", str(tmp_path / name)]) == 0
        for name in ("experiment_summary.csv", "experiment_summary.txt"):
            assert (tmp_path / "required" / name).read_bytes() == (tmp_path / "spelled" / name).read_bytes(), name
        assert sorted(p.name for p in (tmp_path / "required").iterdir()) == ["experiment_summary.csv", "experiment_summary.txt"]

    def test_job_count_does_not_change_results(self, tmp_path):
        config = write_mc_config(tmp_path / "config.json", n_list=[20, 50], raw_dump=True)
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert main(["mc", "--config", str(config), "--out-dir", str(out1), "--jobs", "1"]) == 0
        assert main(["mc", "--config", str(config), "--out-dir", str(out2), "--jobs", "2"]) == 0
        assert multiprocessing.active_children() == []
        names = ["t_summary.csv", "t_summary.txt", "t_raw_n20.csv", "t_raw_n50.csv"]
        assert sorted(p.name for p in out1.iterdir()) == sorted(p.name for p in out2.iterdir()) == sorted(names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_one_pool_serves_every_n(self, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the parent's truth only when forked")
        import gradmatch.cli as cli
        import gradmatch.montecarlo as mc

        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        log = tmp_path / "solver_pids.txt"
        real = mc.dense_solve

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(mc, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(mc, "dense_solve", logged)
        mc._truth_solution.cache_clear()
        mc._truth_grids.cache_clear()
        try:
            config = write_mc_config(tmp_path / "config.json", n_list=[20, 50])
            assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", "2"]) == 0
        finally:
            mc._truth_solution.cache_clear()
            mc._truth_grids.cache_clear()
        assert pools == [min(2, os.cpu_count() or 1)]
        assert log.read_text().split() == [str(os.getpid())]

    def test_jobs_start_at_most_one_worker_per_cpu(self, tmp_path, inline_pools, monkeypatch):
        config = write_mc_config(tmp_path / "config.json", n_list=[20, 50], replications=48, raw_dump=True)
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "one"), "--jobs", "1"]) == 0
        assert inline_pools == {"workers": [], "chunks": []}
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "many"), "--jobs", "100000"]) == 0
        # one pool of 3 workers; each n chunks its 48 replications for 3 workers: 48 // 24
        assert inline_pools == {"workers": [3], "chunks": [2, 2]}
        assert multiprocessing.active_children() == []
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "many").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes(), name

    def test_integral_floats_read_as_integers(self, tmp_path):
        ints = write_mc_config(tmp_path / "ints.json")
        floats = write_mc_config(tmp_path / "floats.json", n_list=[50.0], replications=3.0, seed=11.0)
        for config in (ints, floats):
            assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / config.stem)]) == 0
        for name in ("t_summary.csv", "t_summary.txt"):
            assert (tmp_path / "ints" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes(), name

    def test_invalid_later_n_runs_nothing(self, tmp_path, capsys):
        config = write_mc_config(tmp_path / "config.json", n_list=[50, 5], raw_dump=True)
        out_dir = tmp_path / "o"
        assert main(["mc", "--config", str(config), "--out-dir", str(out_dir), "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "n=5" in captured.err and "n=50: done" not in captured.out
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"n_list": [None]},
            {"n_list": [[50]]},
            {"n_list": [50.7]},
            {"replications": 2.5},
            {"seed": 11.5},
            {"theta_star": 5},
            {"fixed": [1, 2]},
            {"weights": 5},
        ],
        ids=lambda override: json.dumps(override),
    )
    def test_wrongly_typed_value_exits_2(self, tmp_path, override, capsys):
        config = write_mc_config(tmp_path / "config.json", **override)
        out_dir = tmp_path / "o"
        assert main(["mc", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert "error: invalid config" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "override",
        [{"seed": -1}, {"x0": [1.0]}, {"x0": [1.0, 2.0, 3.0]}, {"t_end": math.inf}, {"sigma": math.nan}],
        ids=lambda override: json.dumps(override),
    )
    def test_out_of_range_value_exits_2(self, tmp_path, override, capsys):
        config = write_mc_config(tmp_path / "config.json", **override)
        out_dir = tmp_path / "o"
        assert main(["mc", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        assert "error: invalid config" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, jobs, capsys):
        config = write_mc_config(tmp_path / "config.json")
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override",
        [{"label": "sub/x"}, {"label": ""}, {"label": 5}, {"raw_dump": "no"}, {"n_list": []}],
        ids=lambda override: json.dumps(override),
    )
    def test_bad_label_raw_dump_or_n_list_runs_nothing(self, tmp_path, override, capsys):
        config = write_mc_config(tmp_path / "config.json", **override)
        out_dir = tmp_path / "o"
        assert main(["mc", "--config", str(config), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert next(iter(override)) in captured.err and "done" not in captured.out
        assert not out_dir.exists()

    def test_out_dir_under_a_regular_file_runs_nothing(self, tmp_path, capsys):
        config = write_mc_config(tmp_path / "config.json")
        (tmp_path / "file").write_text("")
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "file" / "o")]) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err and "done" not in captured.out

    def test_quad_nodes_key_is_unknown_exits_2(self, tmp_path, capsys):
        # the quadrature grid is fixed at 1024 nodes, so quad_nodes is not a config key
        config = write_mc_config(tmp_path / "config.json", quad_nodes=1024)
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", "2"]) == 2
        assert "unknown config keys: quad_nodes" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        config = write_mc_config(tmp_path / "config.json", bogus=1)
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_key_exits_2(self, tmp_path):
        config = {
            "schema": 1,
            "model": "glv",
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["mc", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2

    def test_wrong_schema_exits_2(self, tmp_path):
        config = write_mc_config(tmp_path / "config.json", schema=2)
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "is not valid JSON"), ("[1, 2]", "must be a JSON object"), (None, "cannot read config")],
        ids=["invalid JSON", "JSON array", "missing file"],
    )
    def test_unusable_config_file_exits_2(self, tmp_path, text, message, capsys):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert main(["mc", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_excessive_failures_exit_5(self, tmp_path, monkeypatch):
        import gradmatch.cli as cli

        def explode(config, n_jobs=1, pool=None):
            raise ExperimentError("synthetic failure burst")

        monkeypatch.setattr(cli, "run_experiment", explode)
        config = write_mc_config(tmp_path / "config.json")
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_blowup_truth_exits_3(self, tmp_path, jobs):
        config = write_mc_config(
            tmp_path / "config.json",
            theta_star=[0.0, -1.5, 1.0, 1.5, 1.0, -1.5],
            fixed={"a1": 0.0, "b2": 1.0},
            x0=[4.0, 2.0],
        )
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", jobs]) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error, code",
        [(BlowupError("synthetic blow-up"), 3), (ExperimentError("synthetic failure burst"), 5)],
        ids=["blowup", "failures"],
    )
    def test_no_worker_outlives_a_failed_run(self, tmp_path, monkeypatch, error, code):
        import gradmatch.cli as cli

        real = cli.run_experiment

        def second_n_fails(config, n_jobs=1, pool=None):
            table = real(config, n_jobs=n_jobs, pool=pool)  # the first n starts the workers
            if config.n == 50:
                raise error
            return table

        monkeypatch.setattr(cli, "run_experiment", second_n_fails)
        config = write_mc_config(tmp_path / "config.json", n_list=[20, 50])
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", "2"]) == code
        assert multiprocessing.active_children() == []

    def test_truth_solved_once_over_all_n(self, tmp_path, monkeypatch):
        import gradmatch.montecarlo as mc

        calls = []
        real = mc.dense_solve
        monkeypatch.setattr(mc, "dense_solve", lambda *a, **k: calls.append(1) or real(*a, **k))
        mc._truth_solution.cache_clear()
        mc._truth_grids.cache_clear()
        config = write_mc_config(tmp_path / "config.json", n_list=[20, 50])
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
