"""Reproducible Monte Carlo harness for the two-step estimator.

A replication draws Gaussian noise around a cached true trajectory (one
dense-output solve per experiment design, read off on every grid), selects
knots, fits the shared spline, and estimates the parameters once per weight
variant.  Replications are independent and reproducible individually: the
noise stream for replication r is seeded by (master seed, r, purpose), so
parallel execution gives bit-identical results to the serial loop.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ExperimentError, GradMatchError
from .estimator import WEIGHT_NAMES, CriterionConfig, WeightFunction, estimate_weights
from .knots import KnotPolicy, select_knots
from .models import dense_solve, get_model_spec
from .splines import FINE_POINTS, grid_table, read_only

# substream purpose code of the observation noise
NOISE_PURPOSE = 1

_KS_SEED = 0x4C494C  # fixed internal seed for the normality-test null table
_KS_RESAMPLES = 2000  # same-size null samples behind each critical value
_KS_BLOCK = 8192  # values per block of the null table; the whole table in one block inflates _phi's object array
_TRUTH_TOL = 1e-10
_MAX_FAILURE_FRACTION = 0.2


def substream(master_seed: int, replication: int, purpose: int) -> np.random.Generator:
    """Independent generator for (seed, replication, purpose).

    Streams are splittable and documented: changing any component gives a
    statistically independent PCG64 stream.
    """
    ss = np.random.SeedSequence(entropy=[int(master_seed), int(replication), int(purpose)])
    return np.random.Generator(np.random.PCG64(ss))


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Box-Muller on uniforms of shape (..., 2, pairs): (..., 2 * pairs) draws, cos/sin interleaved."""
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0, :]))  # 1 - u in (0, 1] keeps the log finite
    angle = 2.0 * np.pi * u[..., 1, :]
    z = np.empty(u.shape[:-2] + (2 * u.shape[-1],))
    z[..., 0::2] = radius * np.cos(angle)
    z[..., 1::2] = radius * np.sin(angle)
    return z


def gaussian_draws(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via the Box-Muller transform on uniforms."""
    count = int(np.prod(shape))
    return _box_muller(rng.random((2, (count + 1) // 2)))[:count].reshape(shape)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation experiment: model, truth, design, and protocol knobs.

    ``fixed`` holds (name, value) pairs of parameters excluded from
    estimation; a dict is accepted and normalized.  ``weights`` names the
    criterion weight variants compared on the shared spline fit.
    """

    model: str
    theta_star: tuple[float, ...]
    x0: tuple[float, ...]
    n: int
    fixed: tuple = ()
    t_end: float = 20.0
    sigma: float = 0.2
    knot_policy: KnotPolicy = KnotPolicy()
    weights: tuple[str, ...] = WEIGHT_NAMES
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        spec = get_model_spec(self.model)
        object.__setattr__(self, "theta_star", tuple(float(v) for v in self.theta_star))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        fixed = self.fixed
        if isinstance(fixed, dict):
            fixed = tuple(sorted(fixed.items()))
        else:
            fixed = tuple((str(k), float(v)) for k, v in fixed)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.theta_star) != len(spec.param_names):
            raise ValueError(
                f"theta_star needs {len(spec.param_names)} entries for model {self.model!r}"
            )
        if len(self.x0) != spec.dim:
            raise ValueError(f"x0 needs {spec.dim} entries for model {self.model!r}")
        for name, value in fixed:
            if name not in spec.param_names:
                raise ValueError(f"unknown fixed parameter {name!r} for model {self.model!r}")
            star = self.theta_star[spec.param_names.index(name)]
            if star != value:
                raise ValueError(
                    f"fixed parameter {name} = {value} disagrees with theta_star entry {star}"
                )
        if self.n < 10:
            raise ValueError(f"need n >= 10 observations, got {self.n}")
        # written so that NaN fails the tests too
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and positive, got {self.t_end!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.weights:
            raise ValueError("need at least one weight variant")
        for name in self.weights:
            self.weight_function(name)  # an unknown name raises ValueError

    @property
    def interval(self) -> tuple[float, float]:
        return (0.0, self.t_end)

    def build_model(self):
        return get_model_spec(self.model).build(dict(self.fixed))

    def weight_function(self, name: str) -> WeightFunction:
        return WeightFunction.named(name, self.interval)


def observation_times(config: ExperimentConfig) -> np.ndarray:
    """t_j = j * t_end / n for j = 0 .. n-1 (right endpoint excluded)."""
    return np.arange(config.n) * (config.t_end / config.n)


@lru_cache(maxsize=8)
def _truth_solution(model: str, fixed: tuple, theta_star: tuple, x0: tuple, t_end: float):
    """The true path from x0 at t = 0, solved once to t_end for every grid and n."""
    field_model = get_model_spec(model).build(dict(fixed))
    return dense_solve(field_model, np.asarray(theta_star), np.asarray(x0), 0.0, t_end, tol=_TRUTH_TOL)


@lru_cache(maxsize=64)
def _truth_grids(config: ExperimentConfig):
    """Observation times, the true states there, the fine grid and the true states there.

    All four are read off the one solve of the design and are read-only.
    """
    solution = _truth_solution(config.model, config.fixed, config.theta_star, config.x0, config.t_end)
    times, fine_ts = observation_times(config), np.linspace(0.0, config.t_end, FINE_POINTS)
    return read_only(times, solution(times), fine_ts, solution(fine_ts))


def simulate_data(config: ExperimentConfig, rep_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Observation times and noisy observations for one replication."""
    times, truth, _, _ = _truth_grids(config)
    rng = substream(config.seed, rep_index, NOISE_PURPOSE)
    noise = config.sigma * gaussian_draws(rng, truth.shape)
    return times, truth + noise


@dataclass(frozen=True)
class ReplicationResult:
    """Outcome of one replication: estimates per weight, or a failure record."""

    rep_index: int
    ok: bool
    failure: str = None
    selected_knots: tuple = None
    curve_rmse: np.ndarray = None
    estimates: dict = None


def run_replication(config: ExperimentConfig, rep_index: int) -> ReplicationResult:
    """Simulate, select knots, fit the shared spline, estimate per weight.

    Failures (identifiability, degrees of freedom, a rank-deficient spline,
    a non-finite estimate, linear algebra breakdown) are recorded, not raised;
    the experiment level decides whether too many accumulated.
    """
    times, ys = simulate_data(config, rep_index)
    model = config.build_model()
    try:
        selection = select_knots(times, ys, config.interval, config.knot_policy)
        fit = selection.fit
        if fit.rank_deficient:
            return ReplicationResult(rep_index, False, failure="rank-deficient first-step spline")

        _, _, fine_ts, fine_truth = _truth_grids(config)
        knots, g = fit.grid_path
        points, basis = grid_table(knots, fine=True)
        assert np.array_equal(points, fine_ts), "fine grid differs from the grid's table"
        diff = basis @ g.T - fine_truth
        curve_rmse = np.sqrt(np.trapezoid(diff**2, fine_ts, axis=0))

        crits = {name: CriterionConfig(weight=config.weight_function(name)) for name in config.weights}
        estimates = estimate_weights(fit, model, crits)
        for name, est in estimates.items():
            if not np.all(np.isfinite(est.theta_hat)):
                return ReplicationResult(rep_index, False, failure=f"non-finite estimate ({name})")
    except (GradMatchError, np.linalg.LinAlgError) as err:
        return ReplicationResult(rep_index, False, failure=f"{type(err).__name__}: {err}")
    return ReplicationResult(
        rep_index,
        True,
        selected_knots=tuple(selection.selected_knots),
        curve_rmse=curve_rmse,
        estimates=estimates,
    )


@dataclass(frozen=True)
class KSResult:
    """Normality check outcome: reject means 'not normal at the 5% level'."""

    statistic: float
    critical_value: float
    reject: bool
    sample_size: int


_erf = np.frompyfunc(math.erf, 1, 1)


def _phi(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(float))


def _lilliefors_statistic(samples: np.ndarray) -> np.ndarray:
    """The statistic of each sample along the last axis, each standardized by its own moments."""
    n = samples.shape[-1]
    centred = samples - samples.mean(axis=-1, keepdims=True)
    z = np.sort(centred / samples.std(axis=-1, ddof=1, keepdims=True), axis=-1)
    cdf = _phi(z)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return np.maximum(upper.max(axis=-1), lower.max(axis=-1))


@lru_cache(maxsize=32)
def _ks_critical_value(n: int, resamples: int) -> float:
    """95th percentile of the statistic under the estimated-parameter null.

    Simulated once per sample size with a fixed internal seed, so decisions
    are deterministic.  A block of resamples takes its uniforms in one call,
    in the order one gaussian_draws(rng, n) per resample would.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=[_KS_SEED, n, resamples])))
    rows = max(1, _KS_BLOCK // n)
    stats = [
        _lilliefors_statistic(_box_muller(rng.random((min(rows, resamples - start), 2, (n + 1) // 2)))[:, :n])
        for start in range(0, resamples, rows)
    ]
    return float(np.quantile(np.concatenate(stats), 0.95))


def ks_normality(samples) -> KSResult:
    """Kolmogorov-Smirnov normality check with estimated mean and variance.

    The sample is standardized by its own mean and standard deviation, so the
    classical critical values do not apply; instead the null distribution of
    the statistic is simulated with 2000 same-size standard normal
    samples (each re-standardized the same way).  Needs at least 50 points.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 50:
        raise ValueError(f"normality check needs >= 50 samples, got {x.size}")
    # a constant sample has zero variance up to rounding of the mean
    if x.std(ddof=1) <= 1e-12 * max(np.max(np.abs(x)), 1e-300):
        raise GradMatchError("sample has zero variance")
    stat = float(_lilliefors_statistic(x))
    crit = _ks_critical_value(x.size, _KS_RESAMPLES)
    return KSResult(statistic=stat, critical_value=crit, reject=stat > crit, sample_size=x.size)


@dataclass(frozen=True)
class WeightSummary:
    """Aggregates for one weight variant over the successful replications."""

    weight: str
    n_used: int
    mean: np.ndarray
    std: np.ndarray
    param_rmse: float
    param_mse: float
    criterion_mean: float
    component_means: np.ndarray
    ks: tuple
    thetas: np.ndarray


@dataclass(frozen=True)
class SummaryTable:
    """Experiment summary: per-weight aggregates plus shared curve accuracy."""

    config: ExperimentConfig
    weights: tuple
    curve_rmse_mean: np.ndarray
    n_failed: int
    failures: tuple
    results: tuple

    def weight_summary(self, name: str) -> WeightSummary:
        for ws in self.weights:
            if ws.weight == name:
                return ws
        raise KeyError(f"no summary for weight {name!r}")


# a module-level task, not run_replication itself: a wrapped run_replication (say a tracing closure) cannot be pickled
def _replication_task(args):
    config, idx = args
    return run_replication(config, idx)


def run_experiment(config: ExperimentConfig, n_jobs: int = 1, pool=None) -> SummaryTable:
    """Run all replications (optionally in parallel) and aggregate.

    With ``pool``, an executor the caller owns (say one ProcessPoolExecutor
    for a whole sweep over n), the replications run on it and n_jobs sizes
    the chunks; without it, n_jobs > 1 makes a pool for this call.  Either
    way n_jobs counts at most os.cpu_count() workers.  Results come back in
    replication order, so the summary is identical for any n_jobs or pool.
    If more than 20% fail, ExperimentError lists the recorded reasons.
    """
    indices = range(config.replications)
    if pool is not None or n_jobs > 1:
        # solve the truth here, so forked workers inherit it instead of solving again
        _truth_grids(config)
        workers = min(n_jobs, os.cpu_count() or 1)
        chunk = max(1, config.replications // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) if pool is None else nullcontext(pool) as executor:
            results = list(executor.map(_replication_task, [(config, i) for i in indices], chunksize=chunk))
    else:
        results = [run_replication(config, i) for i in indices]

    good = [r for r in results if r.ok]
    failed = [r for r in results if not r.ok]
    if len(failed) > _MAX_FAILURE_FRACTION * config.replications:
        reasons = "; ".join(sorted({r.failure for r in failed}))
        raise ExperimentError(
            f"{len(failed)} of {config.replications} replications failed: {reasons}"
        )

    model = config.build_model()
    theta_star = np.asarray(config.theta_star)
    free = model.free_indices
    free_names = [model.param_names[i] for i in free]

    summaries = []
    for name in config.weights:
        thetas = np.array([r.estimates[name].theta_hat for r in good])
        errors = thetas - theta_star[None, :]
        mse = float(np.mean(np.sum(errors**2, axis=1)))
        std = thetas.std(axis=0, ddof=1) if len(good) > 1 else None
        comps = np.array([r.estimates[name].components for r in good])
        crits = np.array([r.estimates[name].criterion_value for r in good])
        if len(good) >= 50:
            ks = tuple(
                (free_names[j], ks_normality(thetas[:, free[j]])) for j in range(free.size)
            )
        else:
            ks = ()
        summaries.append(
            WeightSummary(
                weight=name,
                n_used=len(good),
                mean=thetas.mean(axis=0),
                std=std,
                param_rmse=math.sqrt(mse),
                param_mse=mse,
                criterion_mean=float(crits.mean()),
                component_means=comps.mean(axis=0),
                ks=ks,
                thetas=thetas,
            )
        )

    curve = np.array([r.curve_rmse for r in good]).mean(axis=0)
    return SummaryTable(
        config=config,
        weights=tuple(summaries),
        curve_rmse_mean=curve,
        n_failed=len(failed),
        failures=tuple(r.failure for r in failed),
        results=tuple(results),
    )


def _fmt_vector(vec, width: int = 7, prec: int = 4) -> str:
    if vec is None:
        return "(single replication)"
    return "(" + ", ".join(f"{v:{width}.{prec}f}" for v in np.atleast_1d(vec)) + ")"


def summary_text(tables) -> str:
    """Aligned text report over a list of experiments (typically one per n).

    Sections mirror the usual simulation-study layout: parameter means and
    standard deviations, then parameter RMSE/MSE with curve RMSE, then the
    per-dimension criterion minima, then normality decisions.
    """
    tables = list(tables)
    if not tables:
        return "(no experiments)\n"
    model = tables[0].config.build_model()
    free = model.free_indices
    param_names = [model.param_names[i] for i in free]
    lines = []
    lines.append(f"Model: {tables[0].config.model}   free parameters: {', '.join(param_names)}")
    lines.append("")
    lines.append("Parameter estimates (mean and standard deviation over replications)")
    header = f"{'n':>6}  {'weight':<9} {'mean':<42} {'std':<42}"
    lines.append(header)
    for table in tables:
        for ws in table.weights:
            mean = ws.mean[free]
            std = None if ws.std is None else ws.std[free]
            lines.append(
                f"{table.config.n:>6}  {ws.weight:<9} {_fmt_vector(mean):<42} {_fmt_vector(std):<42}"
            )
    lines.append("")
    lines.append("Parameter error and curve accuracy")
    lines.append(f"{'n':>6}  {'weight':<9} {'param RMSE':>11} {'param MSE':>11} {'curve RMSE':<24} {'failed':>7}")
    for table in tables:
        for ws in table.weights:
            lines.append(
                f"{table.config.n:>6}  {ws.weight:<9} {ws.param_rmse:>11.4f} {ws.param_mse:>11.4f} "
                f"{_fmt_vector(table.curve_rmse_mean):<24} {table.n_failed:>7}"
            )
    lines.append("")
    lines.append("Criterion minima per state dimension (mean over replications)")
    lines.append(f"{'n':>6}  {'weight':<9} {'components':<30}")
    for table in tables:
        for ws in table.weights:
            lines.append(f"{table.config.n:>6}  {ws.weight:<9} {_fmt_vector(ws.component_means):<30}")
    lines.append("")
    lines.append("Normality checks (KS with estimated moments, 5% level)")
    lines.append(f"{'n':>6}  {'weight':<9} {'decisions':<60}")
    for table in tables:
        for ws in table.weights:
            if ws.ks:
                cells = ", ".join(
                    f"{name}: {'reject' if res.reject else 'ok'} (D={res.statistic:.4f})"
                    for name, res in ws.ks
                )
            else:
                cells = "(needs >= 50 replications)"
            lines.append(f"{table.config.n:>6}  {ws.weight:<9} {cells}")
    lines.append("")
    return "\n".join(lines)


def write_summary_csv(tables, path) -> None:
    """Machine-readable experiment summaries, one row per (n, weight)."""
    tables = list(tables)
    model = tables[0].config.build_model()
    free = model.free_indices
    names = [model.param_names[i] for i in free]
    dims = tables[0].curve_rmse_mean.size
    header = (
        ["n", "weight", "replications", "used", "failed"]
        + [f"mean_{p}" for p in names]
        + [f"std_{p}" for p in names]
        + ["param_rmse", "param_mse", "criterion_mean"]
        + [f"curve_rmse_{i + 1}" for i in range(dims)]
        + [f"component_{i + 1}" for i in range(dims)]
        + [f"ks_stat_{p}" for p in names]
        + [f"ks_reject_{p}" for p in names]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for table in tables:
            for ws in table.weights:
                ks_stats = {name: res for name, res in ws.ks}
                row = [table.config.n, ws.weight, table.config.replications, ws.n_used, table.n_failed]
                row += [f"{ws.mean[i]:.10g}" for i in free]
                row += ["" if ws.std is None else f"{ws.std[i]:.10g}" for i in free]
                row += [f"{ws.param_rmse:.10g}", f"{ws.param_mse:.10g}", f"{ws.criterion_mean:.10g}"]
                row += [f"{v:.10g}" for v in table.curve_rmse_mean]
                row += [f"{v:.10g}" for v in ws.component_means]
                row += [f"{ks_stats[p].statistic:.10g}" if p in ks_stats else "" for p in names]
                row += [str(ks_stats[p].reject).lower() if p in ks_stats else "" for p in names]
                writer.writerow(row)


def write_raw_csv(table: SummaryTable, path) -> None:
    """Per-replication dump: estimates, criterion, curve RMSE, failures."""
    model = table.config.build_model()
    names = model.param_names
    dims = table.curve_rmse_mean.size
    header = ["rep_index", "ok", "weight"] + [f"theta_{p}" for p in names] + [
        "criterion_value"
    ] + [f"curve_rmse_{i + 1}" for i in range(dims)] + ["failure"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in table.results:
            if not r.ok:
                writer.writerow([r.rep_index, "false", ""] + [""] * len(names) + [""] + [""] * dims + [r.failure])
                continue
            for name in table.config.weights:
                est = r.estimates[name]
                writer.writerow(
                    [r.rep_index, "true", name]
                    + [f"{v:.17g}" for v in est.theta_hat]
                    + [f"{est.criterion_value:.17g}"]
                    + [f"{v:.17g}" for v in r.curve_rmse]
                    + [""]
                )
