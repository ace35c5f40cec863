#!/usr/bin/env python3
"""Benchmark of gradmatch: GCV study throughput, fixed-knot fit latency, a cold `mc` sweep.

Run from the repository root:

    python3 bench/run.py --workload study-n500 --seed 1 --seconds 10 --trace 0

Workloads: study-n500, fit-fixed-knots, mc-sweep (bench/workloads.py and
bench/README.md).  The inputs are made from --seed.  After a timed set-up
(done three times, median reported) the workload runs whole rounds until
--seconds have passed and at least its minimum number of rounds is done.  The
outputs of the last round are then checked against computations made apart
from the package (bench/checks.py).  With --trace 1 the run does one set-up
and one round with every layer function wrapped (bench/tracing.py) and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (commit, nproc, versions,
all figures) is written to bench/out/, and with --trace 1 the spans as well.
"""

import os

# One BLAS thread in this process and in every process it starts.  Set before
# numpy is imported, which is when OpenBLAS reads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS, Recorder, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "replications_per_s": "1/s",
    "fit_ms_p50": "ms",
    "fit_ms_p90": "ms",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def cpu_seconds():
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """The larger of this process's peak RSS and its largest child's (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values, q):
    """Linear-interpolation percentile of two or more values (statistics' inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment():
    import numpy as np

    blas = {}
    with contextlib.suppress(KeyError, TypeError, ValueError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        if top and Path(top[0]).resolve() == ROOT:
            commit = top[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "gradmatch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(workload, seconds, trace):
    """Set up, run the rounds, and return (attempted, failed, metrics, detail, recorder)."""
    from workloads import clear_program_caches

    # Untraced runs wrap only the function whose calls are the latency unit.
    recorder = Recorder() if trace else Recorder([workload.unit] if workload.unit else [])
    setup_times = []
    with recorder:
        for _ in range(1 if trace else SETUP_REPEATS):
            clear_program_caches()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        if not trace:
            recorder.spans.clear()

        walls, cpus, latencies = [], [], []
        attempted = failed = 0
        started = time.perf_counter()
        while len(walls) < (1 if trace else workload.min_rounds) or (
                not trace and time.perf_counter() - started < seconds):
            mark = len(recorder.spans)
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            ops, fails = workload.round(len(walls))
            walls.append(time.perf_counter() - wall0)
            cpus.append(cpu_seconds() - cpu0)
            attempted += ops
            failed += fails
            if workload.unit is None:
                latencies += workload.latencies
            else:
                latencies += [s[2] - s[1] for s in recorder.spans[mark:] if s[0] == workload.unit]
        rss = peak_rss_mb()

    e2e = {
        "setup_s": statistics.median(setup_times),
        "replications_per_s": attempted / sum(walls),
        "fit_ms_p50": 1e3 * statistics.median(latencies),
        "fit_ms_p90": 1e3 * percentile(latencies, 90),
        "sweep_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
    }
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer_metrics(recorder.spans).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    detail = {
        "setup_times_s": setup_times,
        "round_walls_s": walls,
        "round_cpus_s": cpus,
        "items": len(latencies),
        "end_to_end": e2e,
        "missing_layers": recorder.missing,
    }
    return attempted, failed, metrics, detail, recorder


def main(argv=None):
    if not (SRC / "gradmatch" / "__init__.py").is_file():
        print(f"error: no gradmatch package under {SRC}; run from a gradmatch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={env['commit']} "
          f"src={env['source_sha256'][:12]} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} blas_threads={env['blas_threads']}")

    workload = WORKLOADS[args.workload](args.seed, bool(args.trace))
    attempted, failed, metrics, detail, recorder = run(workload, args.seconds, bool(args.trace))

    import checks  # loads scipy, so only after peak_rss_mb is read

    verdicts = checks.Verdicts()
    start = time.perf_counter()
    workload.check(verdicts)
    check_s = time.perf_counter() - start
    for failure in verdicts.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(f"# rounds={len(detail['round_walls_s'])} round_wall_s={statistics.median(detail['round_walls_s']):.4f} "
          f"setup_s={statistics.median(detail['setup_times_s']):.4f} checks={verdicts.passed} passed, "
          f"{len(verdicts.failures)} failed in {check_s:.1f} s")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.write(OUT / f"{stem}.spans.jsonl")
    result = {"correct": verdicts.correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, detail=detail, check_failures=verdicts.failures, check_seconds=check_s)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
