"""Instrumentation installed at the package's module globals.

The benchmark never edits the package. It replaces public functions at the
module attributes through which callers reach them (for example
``cdfsvm.modelsel.gram`` and ``cdfsvm.bench.cv_table``) and restores them
afterwards. Two kinds of wrapper exist:

* ``FitCounters`` wrappers read no clock. They count fits, exceptions and
  non-converged models and check ``select_best`` results, so they stay on
  in the untraced run that produces the end-to-end metrics.
* ``Tracer`` wrappers record spans (name, start, end, parent, attributes)
  in memory; ``layer_metrics`` reduces them to the per-layer metrics and
  ``write`` stores them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time

import numpy as np

import cdfsvm.bench as bench
import cdfsvm.datagen as datagen
import cdfsvm.distribution as distribution
import cdfsvm.evaluation as evaluation
import cdfsvm.modelsel as modelsel
import cdfsvm.solvers as solvers

# public fit function name at cdfsvm.modelsel -> method name
FIT_FUNCTIONS = {
    "fit_csvm": "csvm",
    "fit_lssvm": "lssvm",
    "fit_vsvm": "vsvm",
    "fit_idlssvm": "idlssvm",
    "fit_eps_l1_svm": "eps-l1svm",
    "fit_eps_l1_vsvm": "eps-l1vsvm",
}
CLOSED_FORM = ("lssvm", "vsvm", "idlssvm")
ENGINE = "_solve_pairwise"

# (module, attribute, span name): every global through which the package or
# the workloads reach a public function of a measured layer
SPAN_TARGETS = (
    [(modelsel, "gram", "kernels.gram"),
     (modelsel, "cross_gram", "kernels.cross_gram"),
     (solvers, "cross_gram", "kernels.cross_gram"),
     (modelsel, "v_vector", "distribution.v_vector"),
     (modelsel, "v_matrix", "distribution.v_matrix"),
     (distribution, "v_vector", "distribution.v_vector"),
     (solvers, ENGINE, "solvers.engine"),
     (solvers, "predict", "solvers.predict")]
    + [(modelsel, fn, "solvers.fit." + method) for fn, method in FIT_FUNCTIONS.items()]
    + [(mod, fn, "evaluation." + fn)
       for mod, fn in ((modelsel, "accuracy"), (modelsel, "vac"),
                       (bench, "accuracy"), (bench, "boundary_from_linear"),
                       (bench, "dist_to_bayes"), (evaluation, "accuracy"),
                       (evaluation, "vac"))]
    + [(modelsel, "cv_table", "modelsel.cv_table"),
       (bench, "cv_table", "modelsel.cv_table"),
       (modelsel, "select_best", "modelsel.select_best"),
       (bench, "select_best", "modelsel.select_best"),
       (bench, "fit_full", "bench.fit_full"),
       (bench, "run_bayes_benchmark", "bench.run_bayes_benchmark"),
       (bench, "gen_gaussian_2d", "datagen.gen_gaussian_2d"),
       (bench, "bayes_boundary_2d", "datagen.bayes_boundary_2d"),
       (datagen, "gen_gaussian_2d", "datagen.gen_gaussian_2d")]
)


class Patches:
    """Module-attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper):
        if not hasattr(module, attr):
            raise SystemExit(f"perfbench: {module.__name__}.{attr} no longer exists; "
                             "update perfbench/tracer.py")
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _gamma_of(fn, args, kwargs) -> float:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return float(bound["cfg"].gamma if "cfg" in bound else bound["gamma"])


class FitCounters:
    """Clock-free counts of fit outcomes and checks of ``select_best``.

    A fit is one call of a public ``fit_*`` function. It fails when it
    raises, when cv_table marks its row invalid for another reason, or
    when it returns a model with ``converged == False``.
    """

    def __init__(self):
        self.fits = 0
        self.raised = 0
        self.raised_in_cv = 0
        self.nonconverged = 0
        self.cv_rows = 0
        self.cv_invalid = 0
        self.selections: list[tuple[str, float]] = []
        self.bad_selections = 0
        self._cv_depth = 0

    @property
    def failed_fits(self) -> int:
        scoring_failures = self.cv_invalid - self.raised_in_cv
        return self.raised + scoring_failures + self.nonconverged

    def install(self, patches: Patches):
        for fn in FIT_FUNCTIONS:
            patches.replace(modelsel, fn, self._fit_wrapper)
        for mod in (modelsel, bench):
            patches.replace(mod, "cv_table", self._cv_wrapper)
            patches.replace(mod, "select_best", self._select_wrapper)

    def _fit_wrapper(self, fn):
        @functools.wraps(fn)
        def counted_fit(*args, **kwargs):
            self.fits += 1
            try:
                model = fn(*args, **kwargs)
            except Exception:
                self.raised += 1
                self.raised_in_cv += self._cv_depth > 0
                raise
            self.nonconverged += not model.converged
            return model
        return counted_fit

    def _cv_wrapper(self, fn):
        @functools.wraps(fn)
        def counted_cv_table(*args, **kwargs):
            self._cv_depth += 1
            try:
                rows = fn(*args, **kwargs)
            finally:
                self._cv_depth -= 1
            self.cv_rows += len(rows)
            self.cv_invalid += sum(not row["valid"] for row in rows)
            return rows
        return counted_cv_table

    def _select_wrapper(self, fn):
        @functools.wraps(fn)
        def checked_select_best(rows, indicator):
            best, score = fn(rows, indicator)
            if math.isfinite(score):
                self.selections.append((indicator, float(score)))
            else:
                self.bad_selections += 1
            return best, score
        return checked_select_best


class Tracer:
    """In-memory span recorder; spans of one job share its ``job`` id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[int] = []

    def install(self, patches: Patches):
        for module, attr, name in SPAN_TARGETS:
            patches.replace(module, attr, lambda fn, name=name: self._wrap(fn, name))

    def _wrap(self, fn, name):
        annotate = _ANNOTATORS.get(".".join(name.split(".")[:2]))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = dict(id=len(self.spans), name=name, job=self.job,
                        parent=self._stack[-1] if self._stack else None)
            self._stack.append(span["id"])
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(span, fn, args, kwargs, result)
            return result
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _annotate_engine(span, fn, args, kwargs, result):
    # no public function returns the iteration count; read it from the
    # engine's PairwiseResult and fail loudly if that record changes
    try:
        span["iterations"] = int(result.iterations)
        span["converged"] = bool(result.converged)
    except AttributeError as exc:
        raise SystemExit(f"perfbench: solvers.{ENGINE} result lacks {exc.name}; "
                         "update perfbench/tracer.py") from exc


def _annotate_fit(span, fn, args, kwargs, result):
    span["gamma"] = _gamma_of(fn, args, kwargs)
    span["converged"] = bool(result.converged)


def _annotate_predict(span, fn, args, kwargs, result):
    coefficients = args[0].coefficients
    span["support_rows"] = int(coefficients.size)
    span["support_nonzero"] = int(np.count_nonzero(coefficients))


_ANNOTATORS = {
    "solvers.engine": _annotate_engine,
    "solvers.fit": _annotate_fit,
    "solvers.predict": _annotate_predict,
}


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _ms(span) -> float:
    return (span["end"] - span["start"]) * 1e3


def _quantile(values, q) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; absent layers report 0."""
    by_name: dict[str, list[dict]] = {}
    child_ms = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_ms[span["parent"]] += _ms(span)

    def named(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    def total_ms(group):
        return sum(_ms(s) for s in group)

    def self_ms(group):
        return sum(_ms(s) - child_ms[s["id"]] for s in group)

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (int(value) if unit == "count" else float(value), unit)

    for layer, fn in (("kernels", "gram"), ("kernels", "cross_gram"),
                      ("distribution", "v_vector"), ("distribution", "v_matrix")):
        group = by_name.get(f"{layer}.{fn}", [])
        put(f"{layer}.{fn}_calls", len(group), "count")
        put(f"{layer}.{fn}_ms", total_ms(group), "ms")

    engine = by_name.get("solvers.engine", [])
    fits = named("solvers.fit.")
    iters = sum(s["iterations"] for s in engine)
    buckets = dict(small_gamma=0, mid_gamma=0, large_gamma=0)
    wasted = 0
    for s in engine:
        parent = spans[s["parent"]] if s["parent"] is not None else None
        if parent is None or not parent["name"].startswith("solvers.fit."):
            raise SystemExit("perfbench: engine call outside a fit_* span")
        gamma = parent["gamma"]
        bucket = ("small_gamma" if gamma < 1.0 else
                  "mid_gamma" if gamma < 16.0 else "large_gamma")
        buckets[bucket] += s["iterations"]
        wasted += 0 if parent["converged"] else s["iterations"]
    engine_ms = total_ms(engine)
    put("solvers.engine_calls", len(engine), "count")
    put("solvers.engine_ms", engine_ms, "ms")
    put("solvers.engine_iters", iters, "count")
    for bucket, value in buckets.items():
        put(f"solvers.engine_iters.{bucket}", value, "count")
    put("solvers.engine_us_per_iter", engine_ms * 1e3 / iters if iters else 0.0, "us")
    put("solvers.engine_nonconverged", sum(not s["converged"] for s in engine), "count")
    put("solvers.engine_iters_wasted_frac", wasted / iters if iters else 0.0, "ratio")

    closed = [s for s in fits if s["name"].rsplit(".", 1)[1] in CLOSED_FORM]
    put("solvers.closed_form_calls", len(closed), "count")
    put("solvers.closed_form_ms", total_ms(closed), "ms")
    for method in FIT_FUNCTIONS.values():
        group = by_name.get("solvers.fit." + method, [])
        put(f"solvers.fit_ms_p50.{method}", _quantile([_ms(s) for s in group], 0.5), "ms")
    put("solvers.fit_ms_p99", _quantile([_ms(s) for s in fits], 0.99), "ms")
    put("solvers.fit_self_ms", self_ms(fits), "ms")

    predicts = by_name.get("solvers.predict", [])
    rows = sum(s["support_rows"] for s in predicts)
    put("solvers.predict_calls", len(predicts), "count")
    put("solvers.predict_ms", total_ms(predicts), "ms")
    put("solvers.support_rows", rows, "count")
    put("solvers.support_nonzero_frac",
        sum(s["support_nonzero"] for s in predicts) / rows if rows else 0.0, "ratio")

    evals = named("evaluation.")
    put("evaluation.calls", len(evals), "count")
    put("evaluation.ms", total_ms(evals), "ms")

    cv = by_name.get("modelsel.cv_table", [])
    put("modelsel.cv_table_calls", len(cv), "count")
    put("modelsel.cv_table_ms", total_ms(cv), "ms")
    put("modelsel.select_best_ms", total_ms(by_name.get("modelsel.select_best", [])), "ms")
    put("modelsel.self_ms", self_ms(cv), "ms")

    full = by_name.get("bench.fit_full", [])
    put("bench.fit_full_calls", len(full), "count")
    put("bench.fit_full_ms", total_ms(full), "ms")
    put("bench.self_ms", self_ms(by_name.get("bench.run_bayes_benchmark", [])), "ms")

    put("datagen.ms", total_ms(named("datagen.")), "ms")
    return out
