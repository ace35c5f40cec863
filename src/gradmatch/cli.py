"""Command-line front end: simulate data, fit one dataset, run experiments.

Subcommands:

    simulate   integrate a registered model and write noisy samples as CSV
    fit        two-step estimation on a CSV dataset, JSON report output
    mc         replicated simulation study driven by a JSON config file

Exit codes: 0 success, 2 usage or configuration problem (including a
negative knot count, an mc --jobs below 1, or a rank-deficient first-step
spline fit), 3 simulation failure (trajectory blow-up), 4 identifiability
failure, 5 too many failed replications.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import (
    BlowupError,
    ConfigError,
    DegreesOfFreedomError,
    ExperimentError,
    GradMatchError,
    IdentifiabilityError,
)
from .estimator import (
    CriterionConfig,
    WeightFunction,
    fit_linear_in_theta,
    fit_nonlinear,
    write_report,
)
from .knots import KnotPolicy, select_knots
from .models import MODEL_REGISTRY, get_model_spec, read_trajectory_csv, write_trajectory_csv, Trajectory
from .montecarlo import (
    ExperimentConfig,
    run_experiment,
    simulate_data,
    summary_text,
    write_raw_csv,
    write_summary_csv,
)
from .splines import BSplineBasis, KnotSequence, fit_least_squares

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIMULATION = 3
EXIT_IDENTIFIABILITY = 4
EXIT_REPLICATION_FAILURES = 5

_MC_REQUIRED_KEYS = {"schema", "model", "theta_star", "x0", "n_list", "replications", "seed"}
_MC_OPTIONAL_KEYS = {"fixed", "sigma", "t_end", "weights", "label", "raw_dump", "quad_nodes"}


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}")


def _parse_fixed_pairs(pairs) -> dict:
    fixed = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"--theta-fixed expects name=value, got {pair!r}")
        try:
            fixed[name] = float(value)
        except ValueError:
            raise ConfigError(f"--theta-fixed value for {name!r} is not a number: {value!r}")
    return fixed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradmatch",
        description="Two-step (gradient matching) estimation of ODE parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a model and write noisy observations")
    sim.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    sim.add_argument("--theta", required=True, help="comma-separated parameter vector")
    sim.add_argument("--x0", required=True, help="comma-separated initial state")
    sim.add_argument("--n", required=True, type=int, help="number of observations")
    sim.add_argument("--sigma", type=float, default=0.2, help="noise standard deviation")
    sim.add_argument("--t-end", type=float, default=20.0, help="end of the time interval")
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument("--out", required=True, help="output CSV path")

    fit = sub.add_parser("fit", help="two-step estimation on a CSV dataset")
    fit.add_argument("--data", required=True, help="input CSV with columns t,y1,...,yd")
    fit.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    fit.add_argument(
        "--theta-fixed",
        nargs="*",
        default=None,
        metavar="NAME=VALUE",
        help="parameters held fixed (default: the model's registry defaults)",
    )
    fit.add_argument("--weight", choices=("boundary", "uniform"), default="boundary")
    fit.add_argument(
        "--knots",
        default="auto",
        help="'auto' for GCV selection or an integer count of uniform interior knots",
    )
    fit.add_argument("--theta-init", default=None, help="comma-separated start for nonlinear fits")
    fit.add_argument("--out", default=None, help="JSON report path")

    mc = sub.add_parser("mc", help="replicated simulation study from a JSON config")
    mc.add_argument("--config", required=True, help="JSON experiment configuration")
    mc.add_argument("--out-dir", required=True, help="directory for summary and raw CSV files")
    mc.add_argument("--jobs", type=int, default=1, help="parallel replication workers, at least 1")
    return parser


def cmd_simulate(args) -> int:
    spec = get_model_spec(args.model)
    theta = _float_list(args.theta, "--theta")
    x0 = _float_list(args.x0, "--x0")
    if len(theta) != len(spec.param_names):
        print(
            f"error: --theta needs {len(spec.param_names)} values for model {args.model!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if len(x0) != spec.dim:
        print(f"error: --x0 needs {spec.dim} values for model {args.model!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = ExperimentConfig(
            model=args.model,
            theta_star=tuple(theta),
            x0=tuple(x0),
            n=args.n,
            sigma=args.sigma,
            t_end=args.t_end,
            seed=args.seed,
            replications=1,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        times, ys = simulate_data(config, 0)
    except BlowupError as err:
        print(f"error: simulation failed: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    write_trajectory_csv(Trajectory(times, ys), args.out)
    print(f"wrote {times.size} observations to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        data = read_trajectory_csv(args.data)
    except (OSError, GradMatchError, ValueError) as err:
        print(f"error: cannot read {args.data!r}: {err}", file=sys.stderr)
        return EXIT_USAGE

    spec = get_model_spec(args.model)
    if data.states.shape[1] != spec.dim:
        print(
            f"error: data has {data.states.shape[1]} state columns, model {args.model!r} needs {spec.dim}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        fixed = spec.default_fixed if args.theta_fixed is None else _parse_fixed_pairs(args.theta_fixed)
        model = spec.build(fixed)
    except (ConfigError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    interval = (float(data.times[0]), float(data.times[-1]))
    try:
        if args.knots == "auto":
            policy = KnotPolicy()
            selection = select_knots(data.times, data.states, interval, policy)
            knots = KnotSequence(interval, selection.selected_knots, policy.order)
        else:
            try:
                count = int(args.knots)
            except ValueError:
                count = -1
            if count < 0:
                print(f"error: --knots expects 'auto' or an integer >= 0, got {args.knots!r}", file=sys.stderr)
                return EXIT_USAGE
            interior = tuple(np.linspace(interval[0], interval[1], count + 2)[1:-1])
            knots = KnotSequence(interval, interior, order=4)
        fit = fit_least_squares(BSplineBasis(knots), data.times, data.states)
    except (DegreesOfFreedomError, GradMatchError) as err:
        print(f"error: first-step fit failed: {err}", file=sys.stderr)
        return EXIT_USAGE
    if fit.rank_deficient:
        print(
            f"error: first-step fit is rank-deficient: {fit.basis.dimension} spline coefficients "
            f"for n = {data.times.size} observations; use fewer knots",
            file=sys.stderr,
        )
        return EXIT_USAGE

    weight = (
        WeightFunction.boundary_vanishing(interval)
        if args.weight == "boundary"
        else WeightFunction.uniform(interval)
    )
    config = CriterionConfig(weight=weight)
    try:
        if model.linear:
            estimate = fit_linear_in_theta(fit, model, config)
        else:
            if args.theta_init is None:
                print("error: --theta-init is required for this model", file=sys.stderr)
                return EXIT_USAGE
            theta_init = np.array(_float_list(args.theta_init, "--theta-init"))
            estimate = fit_nonlinear(fit, model, theta_init=theta_init, config=config)
    except IdentifiabilityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IDENTIFIABILITY

    named = ", ".join(
        f"{name}={value:.6g}" for name, value in zip(model.param_names, estimate.theta_hat)
    )
    print(f"theta_hat: {named}")
    print(f"criterion: {estimate.criterion_value:.6g}")
    print(f"jstar condition: {estimate.jstar_condition:.6g}")
    if args.out:
        write_report(estimate, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK


def _integer(value, key: str) -> int:
    """A config count or seed: an integral JSON number (50.0 reads as 50)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def load_mc_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("schema") != 1:
        raise ConfigError(f"unsupported config schema {raw.get('schema')!r}; expected 1")
    unknown = set(raw) - _MC_REQUIRED_KEYS - _MC_OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = _MC_REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(sorted(missing))}")
    if not isinstance(raw["n_list"], list) or not raw["n_list"]:
        raise ConfigError("n_list must be a nonempty list of sample sizes")
    return raw


def cmd_mc(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs expects an integer >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        raw = load_mc_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    # every n is checked before any replication runs or any output is written
    configs = []
    for n in raw["n_list"]:
        try:
            config = ExperimentConfig(
                model=raw["model"],
                theta_star=tuple(raw["theta_star"]),
                fixed=raw.get("fixed", {}),
                x0=tuple(raw["x0"]),
                n=_integer(n, "n_list entry"),
                sigma=raw.get("sigma", 0.2),
                t_end=raw.get("t_end", 20.0),
                weights=tuple(raw.get("weights", ("boundary", "uniform"))),
                replications=_integer(raw["replications"], "replications"),
                seed=_integer(raw["seed"], "seed"),
                quad_nodes=_integer(raw.get("quad_nodes", 1024), "quad_nodes"),
            )
        except (ValueError, KeyError, TypeError) as err:
            print(f"error: invalid config for n={n}: {err}", file=sys.stderr)
            return EXIT_USAGE
        configs.append(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label = raw.get("label", "experiment")

    tables = []
    # one pool serves every n, so its workers keep their caches across the sweep
    with ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else nullcontext() as pool:
        for n, config in zip(raw["n_list"], configs):
            try:
                table = run_experiment(config, n_jobs=args.jobs, pool=pool)
            except BlowupError as err:
                print(f"error: simulation failed at n={n}: {err}", file=sys.stderr)
                return EXIT_SIMULATION
            except ExperimentError as err:
                print(f"error: too many failed replications at n={n}: {err}", file=sys.stderr)
                return EXIT_REPLICATION_FAILURES
            tables.append(table)
            print(f"n={n}: done ({table.n_failed} failed replications)")
            if raw.get("raw_dump", False):
                write_raw_csv(table, out_dir / f"{label}_raw_n{n}.csv")

    write_summary_csv(tables, out_dir / f"{label}_summary.csv")
    text = summary_text(tables)
    (out_dir / f"{label}_summary.txt").write_text(text)
    print()
    print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "fit": cmd_fit, "mc": cmd_mc}
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
