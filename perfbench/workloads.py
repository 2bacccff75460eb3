"""The four workloads: inputs made from the seed, jobs, and output checks.

Every job calls the package only through module attributes (``modelsel.
grid_search``, ``solvers.predict``, ...), so the wrappers in tracer.py see
each call. A job returns a ``JobResult``; its ``seconds`` cover the work a
user waits for and leave out the benchmark's own output checks.

Why these four (also recorded in BENCHMARK.json):

* cv-tube: tube-model grid search, where the pairwise dual engine does
  almost all the work and the eps = 2^-4, gamma >= 16 corner hits max_iter.
* cv-closed: closed-form grid search on d=10 data, where dense solves,
  v_matrix and gram dominate and the engine never runs.
* bayes: the paper's boundary-recovery path through bench.run_bayes_benchmark,
  fit_full and boundary_from_linear on a rank-2 linear Gram.
* score: the read path after model selection, where predict cost scales
  with the support rows a model keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

import cdfsvm.bench as bench
import cdfsvm.core as core
import cdfsvm.datagen as datagen
import cdfsvm.distribution as distribution
import cdfsvm.evaluation as evaluation
import cdfsvm.modelsel as modelsel
import cdfsvm.solvers as solvers

@dataclass
class JobResult:
    seconds: float
    rows: int = 0  # rows scored, on `score`
    fits: int = 0  # CV fits completed, on the fitting workloads
    checks_failed: int = 0
    acc: float | None = None  # batch scores on `score`; else from select_best
    vac: float | None = None
    lines: dict = field(default_factory=dict)  # (method, indicator) -> (k, q)


def job_seed(seed: int, job: int) -> int:
    return seed * 10_007 + job


def _pow2(lo: int, hi: int, step: int = 1) -> tuple[float, ...]:
    return tuple(2.0**k for k in range(lo, hi + 1, step))


# ---------------------------------------------------------------------------
# cv-tube and cv-closed: one job is one dataset's grid searches

class CvTube:
    name = "cv-tube"
    op = "fit"
    wcfg = modelsel.WeightConfig()
    methods = ("eps-l1vsvm", "csvm")

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n = 200 if size == "full" else 40
        self.min_jobs, self.trace_jobs = 2, 1
        if size == "full":
            self.grid = modelsel.GridSpec(
                gammas=(2.0**-4, 1.0, 16.0, 256.0), deltas=(0.25, 1.0),
                epsilons=(2.0**-4, 2.0**-2), sigmas=(0.5,), folds=5)
        else:
            self.grid = modelsel.GridSpec(gammas=(2.0**-4, 16.0), deltas=(1.0,),
                                          epsilons=(2.0**-4,), sigmas=(0.5,), folds=2)

    def setup(self):
        self.dataset(0)

    def dataset(self, job: int):
        spec = datagen.GaussianSpec2D(n=self.n, seed=job_seed(self.seed, job))
        return datagen.gen_gaussian_2d(spec)

    def job(self, job: int) -> JobResult:
        start = time.perf_counter()
        data = self.dataset(job)
        grid = replace(self.grid, seed=job_seed(self.seed, job))
        for method in self.methods:
            result = modelsel.grid_search(data, method, grid, "rbf", self.wcfg)
            modelsel.select_best(result.rows, "vac")
        return JobResult(time.perf_counter() - start)


def two_gaussians(n: int, d: int, seed: int) -> core.Dataset:
    """Balanced classes N(+mu, I) and N(-mu, I) in d dimensions, |mu| = 1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    mu = np.full(d, 1.0 / np.sqrt(d))
    raw = np.vstack([mu + rng.standard_normal((half, d)),
                     -mu + rng.standard_normal((half, d))])
    labels = np.concatenate([np.ones(half, dtype=np.int64),
                             np.zeros(half, dtype=np.int64)])
    features, scaler = core.normalize(raw)
    return core.Dataset(features, labels, scaler, name=f"gauss{d}d(n={n},seed={seed})")


class CvClosed(CvTube):
    name = "cv-closed"
    methods = ("vsvm", "lssvm", "idlssvm")

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n = 600 if size == "full" else 60
        self.min_jobs, self.trace_jobs = 2, 1
        if size == "full":
            self.grid = modelsel.GridSpec(gammas=_pow2(-4, 8, 2), deltas=(0.5, 2.0),
                                          sigmas=(0.25, 1.0), folds=5)
        else:
            self.grid = modelsel.GridSpec(gammas=(2.0**-4, 16.0), deltas=(2.0,),
                                          sigmas=(1.0,), folds=2)

    def dataset(self, job: int):
        return two_gaussians(self.n, 10, job_seed(self.seed, job))


# ---------------------------------------------------------------------------
# bayes: one job is one repetition of the boundary benchmark

class Bayes:
    name = "bayes"
    op = "fit"
    indicators = ("acc", "vac")
    # uniform-box measure: the closed-form (non-empirical) weight integrals
    wcfg = modelsel.WeightConfig(g_kind="gaussian", mu_kind="uniform")

    def __init__(self, seed: int, size: str):
        self.seed = seed
        if size == "full":
            self.n, self.min_jobs = 200, 10
            # the acceptance suite's criterion-5 grid
            self.grid = modelsel.GridSpec(gammas=_pow2(-4, 4), deltas=(1.0,),
                                          epsilons=(0.25,), sigmas=(0.5,), folds=4)
        else:
            self.n, self.min_jobs = 40, 2
            self.grid = modelsel.GridSpec(gammas=(2.0**-4, 1.0), deltas=(1.0,),
                                          epsilons=(0.25,), sigmas=(0.5,), folds=2)
        self.trace_jobs = self.min_jobs  # dist_to_bayes needs at least two

    def setup(self):
        datagen.gen_gaussian_2d(datagen.GaussianSpec2D(n=self.n, seed=job_seed(self.seed, 0)))

    def job(self, job: int) -> JobResult:
        start = time.perf_counter()
        columns = bench.run_bayes_benchmark(
            n=self.n, repetitions=1, methods=modelsel.METHODS, grid=self.grid,
            wcfg=self.wcfg, indicators=self.indicators, seed=job_seed(self.seed, job))
        seconds = time.perf_counter() - start
        lines = {key: (col.ks[0], col.qs[0]) for key, col in columns.items() if col.ks}
        return JobResult(seconds, lines=lines)

    @staticmethod
    def distances(results) -> tuple[dict, int]:
        """dist_to_bayes per column over the given jobs, and how many columns
        that were not aborted gave a non-finite distance."""
        columns = {}
        for result in results:
            for key, (k, q) in result.lines.items():
                col = columns.setdefault(key, bench.BoundaryColumn(*key))
                col.ks.append(k)
                col.qs.append(q)
        dists, bad = {}, 0
        for key, col in columns.items():
            summary = col.summary(2.0, 0.0)
            dists[key] = summary["dist"]
            bad += not summary["aborted"] and not np.isfinite(summary["dist"])
        return dists, bad


# ---------------------------------------------------------------------------
# score: one job is one batch scored by one of two fitted models

def reference_scores(model, Z: np.ndarray) -> np.ndarray:
    """scale*(sum_i a_i exp(-|x_i - z|^2 / 2 delta^2) + b) + shift, computed
    here in numpy, independently of cdfsvm.kernels."""
    X = model.support
    sq = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :] - 2.0 * (X @ Z.T)
    raw = (model.coefficients @ np.exp(-np.maximum(sq, 0.0) / (2.0 * model.kernel.delta**2))
           + model.intercept)
    return model.score_scale * raw + model.score_shift


class Score:
    name = "score"
    op = "row"
    wcfg = modelsel.WeightConfig()
    # about 200-260 of 2000 eps-l1vsvm coefficients are nonzero; lssvm keeps all
    tube_params = dict(gamma=1.0, delta=0.5, epsilon=0.25, sigma=0.5)
    lssvm_params = dict(gamma=1.0, delta=0.5)

    def __init__(self, seed: int, size: str):
        self.seed = seed
        # 1000 batches a run keep the latency tail well sampled
        self.n, self.batch, self.min_jobs, self.trace_jobs = (
            (2000, 256, 1000, 200) if size == "full" else (200, 32, 20, 20))

    def setup(self):
        spec = datagen.GaussianSpec2D(n=self.n, seed=job_seed(self.seed, 0))
        train = datagen.gen_gaussian_2d(spec)
        self.models = (modelsel.fit_full(train, "eps-l1vsvm", self.tube_params, "rbf", self.wcfg),
                       modelsel.fit_full(train, "lssvm", self.lssvm_params, "rbf", self.wcfg))
        self.g = self.wcfg.g_spec(None)
        self.mu = self.wcfg.measure(train.features)
        # a fresh sample, shuffled so that every batch holds both classes,
        # scaled into the training frame
        raw, labels = datagen.sample_gaussian_2d(
            replace(spec, n=self.batch * self.min_jobs, seed=job_seed(self.seed, 1)))
        order = np.random.default_rng(job_seed(self.seed, 2)).permutation(labels.size)
        self.pool = train.scaler.transform(raw[order])
        self.pool_labels = labels[order]

    def job(self, job: int) -> JobResult:
        lo = (job % self.min_jobs) * self.batch
        Z = self.pool[lo:lo + self.batch]
        y = self.pool_labels[lo:lo + self.batch]
        model = self.models[job % 2]
        start = time.perf_counter()
        scores = solvers.predict(model, Z)
        labels = core.decide(scores)
        v = distribution.v_vector(Z, self.g, self.mu, combine=self.wcfg.combine).values
        acc = evaluation.accuracy(y, labels)
        vac = evaluation.vac(y, labels, v)
        seconds = time.perf_counter() - start
        ok = (np.allclose(scores, reference_scores(model, Z), rtol=1e-9, atol=1e-9)
              and np.all((labels == 0) | (labels == 1))
              and acc == float(np.mean(labels == y)))
        return JobResult(seconds, len(y), checks_failed=int(not ok), acc=acc, vac=vac)


WORKLOADS = {cls.name: cls for cls in (CvTube, CvClosed, Bayes, Score)}
