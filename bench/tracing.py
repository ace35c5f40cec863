"""Spans around gradmatch's public functions, recorded from outside the package.

`Recorder.install()` replaces each function named in `LAYERS` with a wrapper
in every gradmatch module that holds a reference to it (``from .x import f``
copies the reference, so the defining module alone is not enough), and
`uninstall()` puts the originals back.  A wrapper appends one span
``[name, start, end, parent, extra]`` to an in-memory list; nothing is
written until the run ends.  The package itself is never edited.

Functions that a later version of the package no longer has are skipped, so
their layer metrics read 0 instead of the benchmark failing.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import time

MODULES = (
    "gradmatch",
    "gradmatch.splines",
    "gradmatch.knots",
    "gradmatch.models",
    "gradmatch.estimator",
    "gradmatch.montecarlo",
    "gradmatch.cli",
)

# span name -> (defining module, function name)
LAYERS = {
    "knots.select_knots": ("gradmatch.knots", "select_knots"),
    "knots.gcv_score": ("gradmatch.knots", "gcv_score"),
    "splines.design_matrix": ("gradmatch.splines", "design_matrix"),
    "splines.fit_least_squares": ("gradmatch.splines", "fit_least_squares"),
    "splines.eval_fit": ("gradmatch.splines", "eval_fit"),
    "splines.eval_fit_derivative": ("gradmatch.splines", "eval_fit_derivative"),
    "estimator.fit_linear_in_theta": ("gradmatch.estimator", "fit_linear_in_theta"),
    "estimator.fit_nonlinear": ("gradmatch.estimator", "fit_nonlinear"),
    "estimator.criterion_hessian": ("gradmatch.estimator", "criterion_hessian"),
    "estimator.smooth_functional": ("gradmatch.estimator", "smooth_functional"),
    "estimator.boundary_functional": ("gradmatch.estimator", "boundary_functional"),
    "estimator.quadrature_grid": ("gradmatch.estimator", "quadrature_grid"),
    "estimator.criterion_components": ("gradmatch.estimator", "criterion_components"),
    "models.integrate": ("gradmatch.models", "integrate"),
    "montecarlo.run_replication": ("gradmatch.montecarlo", "run_replication"),
    "montecarlo.simulate_data": ("gradmatch.montecarlo", "simulate_data"),
    "montecarlo.run_experiment": ("gradmatch.montecarlo", "run_experiment"),
    "montecarlo.ks_normality": ("gradmatch.montecarlo", "ks_normality"),
    "montecarlo.write_summary_csv": ("gradmatch.montecarlo", "write_summary_csv"),
    "montecarlo.write_raw_csv": ("gradmatch.montecarlo", "write_raw_csv"),
    "montecarlo.summary_text": ("gradmatch.montecarlo", "summary_text"),
    "cli.main": ("gradmatch.cli", "main"),
}

DIAGNOSTICS = ("estimator.criterion_hessian", "estimator.smooth_functional", "estimator.boundary_functional")
ESTIMATES = ("estimator.fit_linear_in_theta", "estimator.fit_nonlinear")
EVALS = ("splines.eval_fit", "splines.eval_fit_derivative")
WRITES = ("montecarlo.write_summary_csv", "montecarlo.write_raw_csv", "montecarlo.summary_text")

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "knots.select_ms": "ms",
    "knots.gcv_calls": "count",
    "knots.gcv_us": "us",
    "knots.selected_knots": "count",
    "splines.design_matrix_calls": "count",
    "splines.design_matrix_us": "us",
    "splines.fit_least_squares_ms": "ms",
    "splines.eval_fit_calls": "count",
    "splines.eval_fit_ms": "ms",
    "estimator.fit_linear_ms": "ms",
    "estimator.fit_nonlinear_ms": "ms",
    "estimator.gn_iterations": "count",
    "estimator.diagnostics_ms": "ms",
    "estimator.quadrature_grid_calls": "count",
    "estimator.criterion_components_ms": "ms",
    "models.integrate_s": "s",
    "models.integrate_calls": "count",
    "models.field_evals": "count",
    "montecarlo.replication_ms": "ms",
    "montecarlo.simulate_ms": "ms",
    "montecarlo.experiment_s": "s",
    "montecarlo.ks_ms": "ms",
    "cli.write_ms": "ms",
}

NAME, START, END, PARENT, EXTRA = range(5)


def _counting_model(model, span):
    """A copy of the model whose field adds one to span[EXTRA] per evaluation."""
    field = model.field
    span[EXTRA] = 0

    def counted(*args, **kwargs):
        span[EXTRA] += 1
        return field(*args, **kwargs)

    return dataclasses.replace(model, field=counted)


# span name -> function(result) giving the span's extra value
_RESULT_EXTRAS = {
    "knots.select_knots": lambda result: len(result.selected_knots),
    "estimator.fit_nonlinear": lambda result: result.iterations,
}


class Recorder:
    """Records a span per call of the selected layer functions."""

    def __init__(self, names=tuple(LAYERS)):
        self.names = tuple(names)
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra_of = _RESULT_EXTRAS.get(name)
        count_fields = name == "models.integrate"

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if count_fields and args:
                    args = (_counting_model(args[0], span),) + args[1:]
                elif count_fields:
                    kwargs["model"] = _counting_model(kwargs["model"], span)
                result = fn(*args, **kwargs)
                if extra_of is not None:
                    span[EXTRA] = extra_of(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name in self.names:
            module_name, attr = LAYERS[name]
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        return self

    def uninstall(self):
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write the spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT]}) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _median(values, scale):
    return statistics.median(values) * scale if values else 0.0


def _ratio(count, base):
    return count / base if base else 0.0


def layer_metrics(spans):
    """The per-layer metrics of LAYER_UNITS from one traced run's spans.

    Times are medians per call; counts are per operation (per dataset, per
    estimate, per knot search or per integrate call).  A layer the workload
    never calls reads 0.
    """
    dur, extra, count = {}, {}, {}
    for s in spans:
        dur.setdefault(s[NAME], []).append(s[END] - s[START])
        extra.setdefault(s[NAME], []).append(s[EXTRA])
        count[s[NAME]] = count.get(s[NAME], 0) + 1

    def n(name):
        return count.get(name, 0)

    own = self_times(spans)
    replication_self = [own[i] for i, s in enumerate(spans) if s[NAME] == "montecarlo.run_replication"]

    diag_by_estimate = {}
    for s in spans:
        if s[NAME] in DIAGNOSTICS and s[PARENT] >= 0 and spans[s[PARENT]][NAME] in ESTIMATES:
            diag_by_estimate[s[PARENT]] = diag_by_estimate.get(s[PARENT], 0.0) + s[END] - s[START]

    writes_by_command = {}
    for i, s in enumerate(spans):
        if s[NAME] in WRITES:
            root = i
            while spans[root][PARENT] >= 0:
                root = spans[root][PARENT]
            if spans[root][NAME] == "cli.main":
                writes_by_command[root] = writes_by_command.get(root, 0.0) + s[END] - s[START]

    estimates = sum(n(e) for e in ESTIMATES)
    datasets = n("splines.fit_least_squares")
    return {
        "knots.select_ms": _median(dur.get("knots.select_knots"), 1e3),
        "knots.gcv_calls": _ratio(n("knots.gcv_score"), n("knots.select_knots")),
        "knots.gcv_us": _median(dur.get("knots.gcv_score"), 1e6),
        "knots.selected_knots": _ratio(sum(extra.get("knots.select_knots", [])), n("knots.select_knots")),
        "splines.design_matrix_calls": _ratio(n("splines.design_matrix"), datasets),
        "splines.design_matrix_us": _median(dur.get("splines.design_matrix"), 1e6),
        "splines.fit_least_squares_ms": _median(dur.get("splines.fit_least_squares"), 1e3),
        "splines.eval_fit_calls": _ratio(sum(n(e) for e in EVALS), estimates),
        "splines.eval_fit_ms": _median(sum((dur.get(e, []) for e in EVALS), []), 1e3),
        "estimator.fit_linear_ms": _median(dur.get("estimator.fit_linear_in_theta"), 1e3),
        "estimator.fit_nonlinear_ms": _median(dur.get("estimator.fit_nonlinear"), 1e3),
        "estimator.gn_iterations": _ratio(sum(extra.get("estimator.fit_nonlinear", [])), n("estimator.fit_nonlinear")),
        "estimator.diagnostics_ms": _median(list(diag_by_estimate.values()), 1e3),
        "estimator.quadrature_grid_calls": _ratio(n("estimator.quadrature_grid"), estimates),
        "estimator.criterion_components_ms": _median(dur.get("estimator.criterion_components"), 1e3),
        "models.integrate_s": _median(dur.get("models.integrate"), 1.0),
        "models.integrate_calls": float(n("models.integrate")),
        "models.field_evals": _ratio(sum(extra.get("models.integrate", [])), n("models.integrate")),
        "montecarlo.replication_ms": _median(replication_self, 1e3),
        "montecarlo.simulate_ms": _median(dur.get("montecarlo.simulate_data"), 1e3),
        "montecarlo.experiment_s": _median(dur.get("montecarlo.run_experiment"), 1.0),
        "montecarlo.ks_ms": _median(dur.get("montecarlo.ks_normality"), 1e3),
        "cli.write_ms": _median(list(writes_by_command.values()), 1e3),
    }
