"""The three workloads: set-up, one round of work, and the checks of its outputs.

run.py imports this module after putting the checkout's src/ on sys.path.
Package functions are called as module attributes (``montecarlo.run_experiment``)
so that the wrappers tracing.Recorder installs see these calls too.  The
checks module loads scipy and is imported only when the checks run.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gradmatch import cli, estimator, montecarlo, splines
from gradmatch.errors import GradMatchError

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# The two designs of configs/full_case1.json (cycle) and full_case2.json (damped).
CYCLE = {
    "model": "glv",
    "theta_star": (0.0, -1.5, 1.0, 2.0, 0.0, -1.5),
    "fixed": {"a1": 0.0, "b2": 0.0},
    "x0": (1.0, 2.0),
}
DAMPED = {
    "model": "glv",
    "theta_star": (0.0, -1.5, 1.0, 1.5, -1.0, -1.5),
    "fixed": {"a1": 0.0, "b2": -1.0},
    "x0": (4.0, 2.0),
}
SIGMA = 0.2
T_END = 20.0
WEIGHTS = ("boundary", "uniform")
FINE_GRID = 2001  # points of the grid curve RMSE integrates over

STUDY_N = 500
STUDY_REPLICATIONS = 50  # the fewest for which run_experiment runs the KS check

FIT_N = 1000
FIT_KNOTS = 20  # uniform interior knots, as `gradmatch fit --knots 20`
FIT_DATASETS = 50  # datasets per round; two rounds leave ten fits beyond fit_ms_p90

SWEEP_N = (20, 50, 200)
SWEEP_REPLICATIONS = 6
SWEEP_JOBS = 2


def clear_program_caches():
    """Empty every functools cache in the gradmatch modules, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "gradmatch" or name.startswith("gradmatch."):
            for value in list(vars(module).values()):
                if getattr(value, "__module__", None) == name and callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def experiment_config(design, n, replications, seed):
    return montecarlo.ExperimentConfig(n=n, sigma=SIGMA, t_end=T_END, weights=WEIGHTS,
                                       replications=replications, seed=seed, **design)


def observation_noise(config, rep_index, shape):
    """The noise simulate_data adds for one replication, from the package's seeded substream."""
    rng = montecarlo.substream(config.seed, rep_index, montecarlo.NOISE_PURPOSE)
    return config.sigma * montecarlo.gaussian_draws(rng, shape)


def check_replication(verdicts, label, config, times, ys, result, fine_grid, fine_truth):
    """Knots, spline, curve RMSE, theta-hat and gamma_b of one replication's result."""
    import checks

    interval = config.interval
    knots = result.selected_knots
    checks.check_local_gcv_minimum(verdicts, label, times, ys, interval, knots)
    fit = splines.fit_least_squares(splines.BSplineBasis(splines.KnotSequence(interval, knots, 4)), times, ys)
    coef = checks.check_spline(verdicts, label, times, ys, interval, knots, fit.coefficients)
    checks.check_curve_rmse(verdicts, label, result.curve_rmse,
                            checks.curve_rmse(interval, knots, coef, fine_grid, fine_truth))
    for name in config.weights:
        reference = checks.glv_wls(interval, knots, coef, name, config.theta_star, dict(config.fixed))
        checks.check_theta(verdicts, f"{label} {name}", result.estimates[name].theta_hat, reference)
    checks.check_boundary_term(verdicts, label, result.estimates["boundary"].gamma_b)


class StudyN500:
    """run_experiment on the cycle design at n = 500, both weights, one process."""

    name = "study-n500"
    unit = "montecarlo.run_replication"  # the item whose latency fit_ms_* reports
    min_rounds = 1

    def __init__(self, seed, trace=False):
        self.seed = seed

    def setup(self):
        self.config = experiment_config(CYCLE, STUDY_N, STUDY_REPLICATIONS, self.seed)
        # One replication integrates the truth on both grids; one KS call
        # simulates the null table for 50 samples.  Both are cached per process.
        montecarlo.run_replication(self.config, 0)
        montecarlo.ks_normality(np.linspace(-1.0, 1.0, STUDY_REPLICATIONS))

    def round(self, index):
        self.table = montecarlo.run_experiment(self.config, n_jobs=1)
        return STUDY_REPLICATIONS, self.table.n_failed

    def check(self, verdicts):
        import checks

        config, table = self.config, self.table
        data = [montecarlo.simulate_data(config, i) for i in range(config.replications)]
        times = data[0][0]
        truth = checks.glv_truth(config.theta_star, config.x0, times)
        fine_grid = np.linspace(0.0, config.t_end, FINE_GRID)
        fine_truth = checks.glv_truth(config.theta_star, config.x0, fine_grid)
        program_truth = [ys - observation_noise(config, i, ys.shape) for i, (_, ys) in enumerate(data)]
        checks.check_truth(verdicts, self.name, program_truth[0], truth, theta=config.theta_star)
        spread = max(float(np.max(np.abs(t - program_truth[0]))) for t in program_truth)
        verdicts.check(f"{self.name}: one truth for every replication", spread <= 1e-12, f"spread {spread:.3g}")
        checks.check_noise(verdicts, self.name, [ys - truth for _, ys in data], config.sigma)

        good = [r for r in table.results if r.ok]
        for r in good:
            times, ys = data[r.rep_index]
            check_replication(verdicts, f"{self.name} rep {r.rep_index}", config, times, ys, r, fine_grid, fine_truth)

        model = config.build_model()
        for ws in table.weights:
            thetas = np.array([r.estimates[ws.weight].theta_hat for r in good])
            verdicts.check(f"{self.name} {ws.weight}: summary mean",
                           np.allclose(ws.mean, thetas.mean(axis=0), rtol=1e-12, atol=1e-14),
                           f"{ws.mean} vs {thetas.mean(axis=0)}")
            verdicts.check(f"{self.name} {ws.weight}: KS ran", len(ws.ks) == model.n_free, f"{len(ws.ks)} KS results")
            for pname, res in ws.ks:
                column = thetas[:, model.param_names.index(pname)]
                checks.check_ks(verdicts, f"{self.name} {ws.weight} {pname}", column, res.statistic)


class FitFixedKnots:
    """Spline fit on 20 uniform knots, then closed form and Gauss-Newton under both weights, damped design, n = 1000."""

    name = "fit-fixed-knots"
    unit = None  # round() times each dataset itself
    min_rounds = 2

    def __init__(self, seed, trace=False):
        self.seed = seed

    def setup(self):
        self.config = config = experiment_config(DAMPED, FIT_N, FIT_DATASETS, self.seed)
        lo, hi = config.interval
        interior = tuple(np.linspace(lo, hi, FIT_KNOTS + 2)[1:-1])
        self.basis = splines.BSplineBasis(splines.KnotSequence(config.interval, interior, order=4))
        self.model = config.build_model()
        self.criteria = {name: estimator.CriterionConfig(weight=config.weight_function(name)) for name in WEIGHTS}
        self.data = [montecarlo.simulate_data(config, i) for i in range(FIT_DATASETS)]

    def round(self, index):
        theta_star = np.asarray(self.config.theta_star)
        self.latencies, self.outputs, failed = [], [], 0
        for times, ys in self.data:
            start = time.perf_counter()
            try:
                fit = splines.fit_least_squares(self.basis, times, ys)
                estimates = {
                    name: (estimator.fit_linear_in_theta(fit, self.model, crit),
                           estimator.fit_nonlinear(fit, self.model, theta_star, crit))
                    for name, crit in self.criteria.items()
                }
            except (GradMatchError, np.linalg.LinAlgError):
                failed += 1
                continue
            finally:
                self.latencies.append(time.perf_counter() - start)
            if not all(gn.converged and np.all(np.isfinite(gn.theta_hat)) for _, gn in estimates.values()):
                failed += 1
                continue
            self.outputs.append((times, ys, fit, estimates))
        return len(self.data), failed

    def check(self, verdicts):
        import checks

        config = self.config
        interval = config.interval
        interior = self.basis.knots.interior_knots
        times, ys0 = self.data[0]
        truth = checks.glv_truth(config.theta_star, config.x0, times)
        checks.check_truth(verdicts, self.name, ys0 - observation_noise(config, 0, ys0.shape), truth)
        checks.check_noise(verdicts, self.name, [ys - truth for _, ys in self.data], config.sigma)
        for i, (times, ys, fit, estimates) in enumerate(self.outputs):
            label = f"{self.name} dataset {i}"
            coef = checks.check_spline(verdicts, label, times, ys, interval, interior, fit.coefficients)
            for name, (closed, gn) in estimates.items():
                reference = checks.glv_wls(interval, interior, coef, name, config.theta_star, dict(config.fixed))
                checks.check_theta(verdicts, f"{label} {name}", closed.theta_hat, reference)
                checks.check_gauss_newton(verdicts, f"{label} {name}", closed.theta_hat, gn.theta_hat)
                if name == "boundary":
                    checks.check_boundary_term(verdicts, f"{label} closed form", closed.gamma_b)
                    checks.check_boundary_term(verdicts, f"{label} Gauss-Newton", gn.gamma_b)


class McSweep:
    """`gradmatch mc` in process on the cycle design at n = 20, 50, 200, from a cold truth cache."""

    name = "mc-sweep"
    unit = "montecarlo.run_experiment"
    min_rounds = 3  # one sweep is a single wall-time sample; report the median of three
    label = "sweep"

    def __init__(self, seed, trace=False):
        self.seed = seed
        # workers are not visible to the recorder, so a traced sweep runs in one process
        self.jobs = 1 if trace else SWEEP_JOBS
        self.root = OUT / f"{self.name}-seed{seed}"

    def setup(self):
        # A fresh `gradmatch mc` starts an interpreter and imports the package
        # before it does any work; that start-up is this workload's set-up.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", "import gradmatch.cli"], env=env, check=True)
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.config_path = self.root / "config.json"
        raw = {
            "schema": 1,
            "model": CYCLE["model"],
            "theta_star": list(CYCLE["theta_star"]),
            "fixed": CYCLE["fixed"],
            "x0": list(CYCLE["x0"]),
            "n_list": list(SWEEP_N),
            "sigma": SIGMA,
            "t_end": T_END,
            "weights": list(WEIGHTS),
            "replications": SWEEP_REPLICATIONS,
            "seed": self.seed,
            "label": self.label,
            "raw_dump": True,
        }
        self.config_path.write_text(json.dumps(raw, indent=2) + "\n")

    def round(self, index):
        self.out_dir = self.root / f"round{index}"
        clear_program_caches()
        console = io.StringIO()
        with contextlib.redirect_stdout(console):
            code = cli.main(["mc", "--config", str(self.config_path), "--out-dir", str(self.out_dir),
                             "--jobs", str(self.jobs)])
        (self.out_dir / "stdout.txt").write_text(console.getvalue())
        if code != 0:
            raise RuntimeError(f"gradmatch mc exited with {code}")
        failed = sum(1 for n in SWEEP_N for row in self._raw_rows(n) if row["ok"] != "true")
        return len(SWEEP_N) * SWEEP_REPLICATIONS, failed

    def _raw_rows(self, n):
        with open(self.out_dir / f"{self.label}_raw_n{n}.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, verdicts):
        import checks

        with open(self.out_dir / f"{self.label}_summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        keys = [(int(row["n"]), row["weight"]) for row in summary]
        expected = [(n, w) for n in SWEEP_N for w in WEIGHTS]
        verdicts.check(f"{self.name}: one summary row per (n, weight)", keys == expected, f"{keys}")
        free = [p for p in checks.GLV_NAMES if p not in CYCLE["fixed"]]
        raw = {n: self._raw_rows(n) for n in SWEEP_N}
        for row in summary:
            n, weight = int(row["n"]), row["weight"]
            label = f"{self.name} n={n} {weight}"
            used, failed, reps = int(row["used"]), int(row["failed"]), int(row["replications"])
            verdicts.check(f"{label}: used + failed = replications", used + failed == reps == SWEEP_REPLICATIONS,
                           f"{used} + {failed} vs {reps}")
            rows = [r for r in raw[n] if r["ok"] == "true" and r["weight"] == weight]
            verdicts.check(f"{label}: raw rows", len(rows) == used, f"{len(rows)} raw rows, {used} used")
            for p in free:
                mean = statistics.fmean(float(r[f"theta_{p}"]) for r in rows)
                got = float(row[f"mean_{p}"])
                verdicts.check(f"{label}: mean_{p}", abs(got - mean) <= 1e-9 * max(1.0, abs(mean)), f"{got} vs raw {mean}")

        # Replications recomputed in this process must match the workers' bit for bit.
        n = SWEEP_N[-1]
        config = experiment_config(CYCLE, n, SWEEP_REPLICATIONS, self.seed)
        fine_grid = np.linspace(0.0, T_END, FINE_GRID)
        fine_truth = checks.glv_truth(config.theta_star, config.x0, fine_grid)
        first = self.seed % SWEEP_REPLICATIONS
        for rep in (first, (first + 1) % SWEEP_REPLICATIONS):
            label = f"{self.name} n={n} rep {rep}"
            times, ys = montecarlo.simulate_data(config, rep)
            if rep == first:
                truth = checks.glv_truth(config.theta_star, config.x0, times)
                checks.check_truth(verdicts, label, ys - observation_noise(config, rep, ys.shape), truth,
                                   theta=config.theta_star)
            result = montecarlo.run_replication(config, rep)
            rows = {r["weight"]: r for r in raw[n] if int(r["rep_index"]) == rep}
            for weight in WEIGHTS:
                est = result.estimates[weight]
                row = rows[weight]
                same = (all(float(row[f"theta_{p}"]) == v for p, v in zip(checks.GLV_NAMES, est.theta_hat))
                        and float(row["criterion_value"]) == est.criterion_value
                        and all(float(row[f"curve_rmse_{i + 1}"]) == v for i, v in enumerate(result.curve_rmse)))
                verdicts.check(f"{label} {weight}: raw CSV bit-identical to run_replication", same,
                               f"{row} vs {est.theta_hat}")
            check_replication(verdicts, label, config, times, ys, result, fine_grid, fine_truth)


WORKLOADS = {w.name: w for w in (StudyN500, FitFixedKnots, McSweep)}
