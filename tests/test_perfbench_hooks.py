"""The benchmark's tracer patches package globals and reads the engine's
result; these tests fail when a package change removes one of its hooks,
before a benchmark run would."""

import os
import pathlib
import subprocess
import sys
import types

import numpy as np

import cdfsvm.solvers as solvers
from cdfsvm.core import Dataset, KernelSpec, normalize, subset
from cdfsvm.datagen import GaussianSpec2D, gen_gaussian_2d
from cdfsvm.kernels import gram
from cdfsvm.modelsel import METHODS, GridSpec, WeightConfig, kfold_split
from cdfsvm.solvers import SolverConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_source(name):
    # compiled from source, so nothing is written under perfbench/; the
    # module is registered while it runs because dataclasses look it up
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.__dict__


def three_points():
    feats, scaler = normalize(np.array([[0.0, 0.1], [0.4, 0.9], [1.0, 0.3]]))
    return Dataset(feats, np.array([0, 1, 1]), scaler)


def test_engine_result_carries_iterations_and_convergence():
    data = three_points()
    K = gram(KernelSpec.linear(), data.features).values
    caps = np.full(3, 2.0)
    res = solvers._solve_pairwise(K, data.labels.astype(float), np.full(3, 0.1),
                                  -caps, caps)
    assert res.converged is True
    assert isinstance(res.iterations, int) and res.iterations >= 1


def test_tracer_patches_install_and_restore():
    tracer = load_source("tracer")
    targets = {(module, attr) for module, attr, _ in tracer["SPAN_TARGETS"]}
    originals = {key: getattr(*key) for key in targets}
    patches = tracer["Patches"]()
    counters, spans = tracer["FitCounters"](), tracer["Tracer"]()
    try:
        counters.install(patches)
        spans.install(patches)
        assert all(getattr(*key) is not originals[key] for key in targets)
        data = three_points()
        modelsel = tracer["modelsel"]
        K = modelsel.gram(KernelSpec.linear(), data.features)
        model = modelsel.fit_eps_l1_svm(data, K, SolverConfig(gamma=2.0, epsilon=0.1))
    finally:
        patches.restore()
    assert all(getattr(*key) is originals[key] for key in targets)
    assert counters.fits == 1 and counters.nonconverged == 0 and model.converged
    engine = [s for s in spans.spans if s["name"] == "solvers.engine"]
    assert len(engine) == 1 and engine[0]["converged"] is True
    metrics = tracer["layer_metrics"](spans.spans)
    assert metrics["solvers.engine_calls"] == (1, "count")
    assert metrics["solvers.engine_iters"] == (engine[0]["iterations"], "count")
    assert metrics["solvers.fit_ms_p50.eps-l1svm"][0] > 0.0


def test_tracer_reads_a_fit_that_switches_to_the_interior_point(monkeypatch):
    # a switched fit is still one engine call inside one fit span, and the
    # engine's iteration count is its pair steps over both phases
    data = gen_gaussian_2d(GaussianSpec2D(n=200, seed=10007))
    train = subset(data, kfold_split(200, 5, 10007, labels=data.labels)[0][0])
    weights = WeightConfig().weights_for(train.features, data.features, 0.5)
    results = []
    engine = solvers._solve_pairwise

    def recorded(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "_solve_pairwise", recorded)
    tracer = load_source("tracer")
    patches = tracer["Patches"]()
    counters, spans = tracer["FitCounters"](), tracer["Tracer"]()
    try:
        counters.install(patches)
        spans.install(patches)
        modelsel = tracer["modelsel"]
        K = modelsel.gram(KernelSpec.rbf(0.25), train.features)
        model = modelsel.fit_eps_l1_vsvm(train, K, weights,
                                         SolverConfig(gamma=256.0, epsilon=2.0**-4))
    finally:
        patches.restore()
    (res,) = results
    assert res.interior_iterations > 0
    assert res.iterations > solvers._switch_budget(train.m)
    assert counters.fits == 1 and counters.nonconverged == 0 and model.converged
    (span,) = [s for s in spans.spans if s["name"] == "solvers.engine"]
    assert spans.spans[span["parent"]]["name"] == "solvers.fit.eps-l1vsvm"
    assert (span["iterations"], span["converged"]) == (res.iterations, True)
    metrics = tracer["layer_metrics"](spans.spans)
    assert metrics["solvers.engine_calls"] == (1, "count")
    assert metrics["solvers.engine_iters"] == (res.iterations, "count")
    assert metrics["solvers.engine_iters.large_gamma"] == (res.iterations, "count")
    assert metrics["solvers.engine_nonconverged"] == (0, "count")


def test_cv_table_makes_one_counted_fit_per_row():
    # the benchmark counts one public fit_* call per (cell, fold) row and
    # divides ok_frac by that count; every model must report its convergence
    tracer = load_source("tracer")
    modelsel = tracer["modelsel"]
    rng = np.random.default_rng(3)
    feats, scaler = normalize(np.vstack([rng.normal(0.35, 0.15, (15, 2)),
                                         rng.normal(0.65, 0.15, (15, 2))]))
    data = Dataset(feats, np.repeat([0, 1], 15), scaler)
    grid = GridSpec(gammas=(0.5, 8.0), deltas=(0.5, 1.0), epsilons=(0.25,),
                    sigmas=(0.5, 2.0), folds=2)
    patches = tracer["Patches"]()
    counters = tracer["FitCounters"]()
    models = []

    def keep_model(fn):
        def kept(*args, **kwargs):
            model = fn(*args, **kwargs)
            models.append(model)
            return model
        return kept

    try:
        counters.install(patches)
        for fn in tracer["FIT_FUNCTIONS"]:
            patches.replace(modelsel, fn, keep_model)
        for method in METHODS:
            modelsel.cv_table(data, method, grid)
    finally:
        patches.restore()
    assert counters.cv_rows > 0
    assert counters.fits == counters.cv_rows
    assert counters.raised == 0 and len(models) == counters.fits
    assert {model.method for model in models} == set(METHODS)
    assert all(type(model.converged) is bool for model in models)


def test_score_workload_reads_the_fitted_models():
    # the score workload checks predict against its own expansion of the
    # model's intercept, coefficients, support, kernel.delta and score
    # scale/shift; jobs 0 and 1 score the tube and the lssvm model
    score = load_source("workloads")["Score"](1, "tiny")
    score.setup()
    assert [model.method for model in score.models] == ["eps-l1vsvm", "lssvm"]
    for job in (0, 1):
        result = score.job(job)
        assert result.checks_failed == 0 and result.rows == score.batch


def test_benchmark_selftest_passes():
    # every workload at tiny sizes through perfbench/run.py, untraced and
    # traced; the runs write only under the git-ignored perfbench/out/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, env=env, capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
