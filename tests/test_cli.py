"""End-to-end tests of the command-line interface (invoked in process)."""

import csv
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

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

    def test_wrong_theta_length_exits_2(self, tmp_path):
        assert main(simulate_args(tmp_path / "x.csv", theta="1,2,3")) == 2

    def test_blowup_exits_3(self, tmp_path):
        # positive quadratic self-coupling in the second dimension escapes in
        # finite time from this start, well before t_end
        args = simulate_args(tmp_path / "boom.csv", theta="0,-1.5,1,1.5,1,-1.5", x0="4,2")
        assert main(args) == 3

    def test_bad_numeric_flag_exits_2(self, tmp_path):
        assert main(simulate_args(tmp_path / "x.csv", theta="a,b,c,d,e,f")) == 2


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

    def test_bad_fixed_pair_exits_2(self, case1_n500):
        assert (
            main(
                [
                    "fit",
                    "--data",
                    str(case1_n500),
                    "--model",
                    "glv",
                    "--theta-fixed",
                    "a1",
                ]
            )
            == 2
        )

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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "none.csv"), "--model", "glv"]) == 2

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
        assert pools == [2]
        assert log.read_text().split() == [str(os.getpid())]

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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, jobs, capsys):
        config = write_mc_config(tmp_path / "config.json")
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_quad_nodes_below_the_criterion_minimum_exits_2(self, tmp_path, capsys):
        config = write_mc_config(tmp_path / "config.json", quad_nodes=10)
        assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path / "o"), "--jobs", "2"]) == 2
        assert "quad_nodes" in capsys.readouterr().err

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

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["mc", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2

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
