"""Cross-validated grid search over the standard parameter grids.

Grid axes apply per method: every model searches the tradeoff gamma (and
the rbf bandwidth delta when the kernel is rbf); the tube models also
search epsilon; the distribution-weighted models additionally search the
gaussian G width sigma (the step kernel has no width). Ties break toward
the smallest (gamma, delta, epsilon, sigma).

Both Acc and Vac are recorded for every cell and fold, so either indicator
can select without refitting. Vac's test weights come from one fixed
evaluation (G, mu) configuration shared by all cells and methods, keeping
values comparable; distribution weights consumed by the models themselves
are built once per (training fold, sigma) against the full-sample reference
set (transductively); ``cv_table`` orders its loops and its rows by fold ->
sigma -> delta -> gamma -> epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, GKernelSpec, KernelSpec, decide, subset, write_csv
from .distribution import MeasureSpec, VMatrix, VWeights, v_matrix, v_vector
from .evaluation import accuracy, vac
from .kernels import cross_gram, gram
from .solvers import (SolverConfig, SolverError, _score_with_cross, _switch_budget,
                      fit_csvm, fit_eps_l1_svm, fit_eps_l1_vsvm, fit_idlssvm,
                      fit_lssvm, fit_vsvm)

__all__ = [
    "GridSearchResult",
    "GridSpec",
    "METHODS",
    "WeightConfig",
    "cv_table",
    "fit_full",
    "grid_search",
    "kfold_split",
    "rows_to_csv",
    "select_best",
]

METHODS = ("csvm", "lssvm", "vsvm", "idlssvm", "eps-l1svm", "eps-l1vsvm")
_TUBE_METHODS = ("eps-l1svm", "eps-l1vsvm")
_V_METHODS = ("vsvm", "eps-l1vsvm")


def _pow2(lo: int, hi: int) -> tuple[float, ...]:
    return tuple(float(2.0**k) for k in range(lo, hi + 1))


@dataclass(frozen=True)
class GridSpec:
    """Search grids, fold count, selection indicator and split seed."""

    gammas: tuple[float, ...] = _pow2(-8, 8)
    deltas: tuple[float, ...] = _pow2(-4, 4)
    epsilons: tuple[float, ...] = _pow2(-4, -2)
    sigmas: tuple[float, ...] = _pow2(-4, 4)
    folds: int = 10
    indicator: str = "acc"
    seed: int = 0

    def __post_init__(self):
        for grid_name in ("gammas", "deltas", "epsilons", "sigmas"):
            if not getattr(self, grid_name):
                raise ValueError(f"{grid_name} grid must be non-empty")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.indicator not in ("acc", "vac"):
            raise ValueError(f"unknown indicator {self.indicator!r}")


@dataclass(frozen=True)
class WeightConfig:
    """Distribution-weight configuration shared by models and the Vac indicator.

    ``sigma_eval`` fixes the gaussian G width used for Vac test weights (the
    step kernel needs none); model-side sigmas remain grid-searched.
    ``combine`` applies to v-vectors only: vsvm's V-matrix has no additive
    form, so vsvm rejects ``combine="additive"``.
    """

    g_kind: str = "gaussian"
    mu_kind: str = "empirical"
    combine: str = "product"
    sigma_eval: float = 1.0

    def __post_init__(self):
        if self.g_kind not in ("gaussian", "step"):
            raise ValueError(f"unknown G kernel kind {self.g_kind!r}")
        if self.mu_kind not in ("empirical", "uniform", "gaussian", "point_mass"):
            raise ValueError(f"unknown measure kind {self.mu_kind!r}")
        if self.combine not in ("product", "additive"):
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if not self.sigma_eval > 0.0:
            raise ValueError("sigma_eval must be positive")

    def g_spec(self, sigma: float | None) -> GKernelSpec:
        if self.g_kind == "step":
            return GKernelSpec.step()
        return GKernelSpec.gaussian(self.sigma_eval if sigma is None else sigma)

    def measure(self, references: np.ndarray) -> MeasureSpec:
        if self.mu_kind == "empirical":
            return MeasureSpec.empirical(references)
        if self.mu_kind == "uniform":
            return MeasureSpec.unit_box(references.shape[1])
        if self.mu_kind == "gaussian":
            std = references.std(axis=0)
            return MeasureSpec.gaussian(references.mean(axis=0),
                                        np.maximum(std, 1e-9))
        return MeasureSpec.point_mass()

    def weights_for(self, samples: np.ndarray, references: np.ndarray,
                    sigma: float | None = None) -> VWeights:
        return v_vector(samples, self.g_spec(sigma), self.measure(references),
                        combine=self.combine, normalize=True)


def kfold_split(m: int, folds: int, seed: int, labels=None):
    """Deterministic k-fold partition, stratified by label when given.

    Returns a list of (train_indices, test_indices); test sets are disjoint
    and exhaust range(m).
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > m:
        raise ValueError(f"folds={folds} exceeds m={m}")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(folds)]
    cursor = 0
    if labels is None:
        groups = [rng.permutation(m)]
    else:
        labels = np.asarray(labels)
        groups = [rng.permutation(np.flatnonzero(labels == value))
                  for value in np.unique(labels)]
    for group in groups:
        for idx in group:
            buckets[cursor % folds].append(int(idx))
            cursor += 1
    everything = np.arange(m)
    splits = []
    for bucket in buckets:
        test = np.sort(np.asarray(bucket, dtype=np.int64))
        train = np.setdiff1d(everything, test)
        splits.append((train, test))
    return splits


# ---------------------------------------------------------------------------
# grid evaluation

def _kernel_spec(kernel_kind: str, delta: float | None) -> KernelSpec:
    if kernel_kind == "linear":
        return KernelSpec.linear()
    if kernel_kind == "rbf":
        return KernelSpec.rbf(delta)
    raise ValueError(f"unknown kernel kind {kernel_kind!r}")


def _model_weight(method: str, wcfg: WeightConfig, samples: np.ndarray,
                  references: np.ndarray, sigma: float | None):
    """The v-vector (eps-l1vsvm) or V-matrix (vsvm) a method fits with, else None."""
    if method == "eps-l1vsvm":
        return wcfg.weights_for(samples, references, sigma)
    if method == "vsvm":
        if wcfg.combine != "product":
            raise ValueError("vsvm's V-matrix has no additive combine form")
        return v_matrix(samples, wcfg.g_spec(sigma), wcfg.measure(references))
    return None


def _fit_cell(method: str, train: Dataset, K, gamma: float,
              epsilon: float | None, weight: VWeights | VMatrix | None,
              interior_first: bool = False):
    if method == "csvm":
        return fit_csvm(train, K, SolverConfig(gamma=gamma, interior_first=interior_first))
    if method == "lssvm":
        return fit_lssvm(train, K, gamma)
    if method == "idlssvm":
        return fit_idlssvm(train, K, gamma)
    if method == "vsvm":
        return fit_vsvm(train, K, weight, gamma)
    if method == "eps-l1svm":
        return fit_eps_l1_svm(train, K, SolverConfig(
            gamma=gamma, epsilon=epsilon, interior_first=interior_first))
    if method == "eps-l1vsvm":
        return fit_eps_l1_vsvm(train, K, weight, SolverConfig(
            gamma=gamma, epsilon=epsilon, interior_first=interior_first))
    raise ValueError(f"unknown method {method!r}")


# A dual fit whose previous-gamma fit of the same (fold, sigma, delta,
# epsilon) ran more than 1 / _INTERIOR_FIRST_SHARE of the switch budget in
# pair steps, 3 m at m <= 175, skips the budget and starts on the interior
# point. Hard fits cluster at large gamma, so one is a good sign of the next.
# A flagged fit is judged by its own pair steps, all of them polish. On
# cv-tube (seeds 1, 14, 19 and 31, 2 jobs each, m = 160) the rule flags
# 116 fits, 111 of the 194 that switch, and removes 38% of the pair steps;
# its 5 false flags, fits the pair loop would have solved, are 4 eps-l1vsvm
# fits at gamma = 256 (1,702-1,894 steps) and 1 csvm fit (430). On bayes
# (seeds 1, 2, 3 and 14, 10 jobs each, m = 150) it flags 160 fits, 125 of
# them falsely, and removes 22%. Every CV row and pick was unchanged.
# Keeping a fit flagged once its previous gamma was flagged removed 44% and
# 33% with 5 and 179 false flags. Past m = 634 the budget is not below the
# default max_iter, and the engine ignores the flag.
_INTERIOR_FIRST_SHARE = 4


def cv_table(data: Dataset, method: str, grid: GridSpec, kernel_kind: str = "rbf",
             wcfg: WeightConfig = WeightConfig()):
    """Evaluate every grid cell on every fold.

    Returns one row per (cell, fold) carrying both indicators, in the order
    (fold, sigma, delta, gamma, epsilon). Each fold's model weight is built
    once per sigma, and its Gram and cross-Gram once per (sigma, delta). A
    fit that raised marks its row invalid instead of aborting the search;
    ``valid`` means the fit returned and was scored, and ``converged``,
    ``iterations`` and ``interior_iterations`` copy the model's record
    (False, 0 and 0 for a row that is not valid).

    Gammas run in grid order (ascending on the standard grids) within each
    (fold, sigma, delta), and a dual fit starts on the interior point
    (``SolverConfig.interior_first``) when the previous gamma's fit at the
    same epsilon ran more than ``_switch_budget(m) // _INTERIOR_FIRST_SHARE``
    pair steps. A fit that raised leaves no such evidence for the next gamma.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    deltas = grid.deltas if kernel_kind == "rbf" else (None,)
    epsilons = grid.epsilons if method in _TUBE_METHODS else (None,)
    sigmas = (grid.sigmas if method in _V_METHODS and wcfg.g_kind == "gaussian"
              else (None,))
    splits = kfold_split(data.m, grid.folds, grid.seed, labels=data.labels)
    eval_v = wcfg.weights_for(data.features, data.features, sigma=None).values
    # step-kernel weights against a bounded measure can vanish at extreme
    # samples; the Vac column is then undefined and recorded as NaN
    vac_defined = bool(np.all(eval_v > 0.0))

    rows = []
    for fold_id, (tr, va) in enumerate(splits):
        train = subset(data, tr)
        hard = _switch_budget(train.m) // _INTERIOR_FIRST_SHARE
        X_val, y_val = data.features[va], data.labels[va]
        v_val = eval_v[va]
        for sigma in sigmas:
            weight = None  # frees the last sigma's V and its V·K memo entry first
            weight = _model_weight(method, wcfg, train.features, data.features, sigma)
            for delta in deltas:
                kspec = _kernel_spec(kernel_kind, delta)
                K = gram(kspec, train.features)
                cross = cross_gram(kspec, train.features, X_val)
                steps = dict.fromkeys(epsilons, 0)  # last gamma's pair steps
                for gamma in grid.gammas:
                    for epsilon in epsilons:
                        cell = dict(gamma=gamma, delta=delta, epsilon=epsilon,
                                    sigma=sigma, fold=fold_id)
                        try:
                            model = _fit_cell(method, train, K, gamma, epsilon,
                                              weight, steps[epsilon] > hard)
                            pred = decide(_score_with_cross(model, cross))
                            cell["acc"] = accuracy(y_val, pred)
                            cell["vac"] = (vac(y_val, pred, v_val)
                                           if vac_defined else np.nan)
                            cell.update(valid=True, converged=model.converged,
                                        iterations=model.iterations,
                                        interior_iterations=model.interior_iterations)
                        except (SolverError, ValueError) as exc:
                            cell.update(acc=np.nan, vac=np.nan, valid=False,
                                        converged=False, iterations=0,
                                        interior_iterations=0, error=str(exc))
                        steps[epsilon] = cell["iterations"]
                        rows.append(cell)
    return rows


# Acc and Vac lie in [0, 1], so a correctly rounded fold sum (math.fsum)
# divided by the fold count is within 1.5 eps (relative) of the exact mean of
# the rounded fold scores; means that are equal in exact arithmetic therefore
# differ by at most 3 eps and must tie.
_TIE_RTOL = 4.0 * float(np.finfo(float).eps)


def _cell_key(row) -> tuple:
    return tuple(0.0 if row[k] is None else float(row[k])
                 for k in ("gamma", "delta", "epsilon", "sigma"))


def select_best(rows, indicator: str):
    """Mean CV score per cell; argmax with ties toward smaller parameters.

    Means equal in exact arithmetic tie whatever the order of their folds.
    Cells with any failed or non-converged fold, or an undefined (NaN)
    score, are skipped: a fit stopped at ``max_iter`` is not the model the
    cell names.
    """
    if indicator not in ("acc", "vac"):
        raise ValueError(f"unknown indicator {indicator!r}")
    cells: dict[tuple, list] = {}
    bad: set[tuple] = set()
    params: dict[tuple, dict] = {}
    for row in rows:
        key = _cell_key(row)
        params.setdefault(key, {k: row[k] for k in ("gamma", "delta", "epsilon", "sigma")})
        # a row built without the converged column counts as converged
        if not (row["valid"] and row.get("converged", True)):
            bad.add(key)
            continue
        cells.setdefault(key, []).append(row[indicator])
    best_key, best_score = None, -np.inf
    for key in sorted(cells):
        if key in bad:
            continue
        score = math.fsum(cells[key]) / len(cells[key])
        if score > best_score and not math.isclose(score, best_score,
                                                   rel_tol=_TIE_RTOL):
            best_key, best_score = key, score
    if best_key is None:
        raise SolverError(
            f"no usable grid cell for indicator {indicator!r} "
            "(fits failed or did not converge, or the indicator is undefined "
            "for these weights)")
    return params[best_key], best_score


@dataclass(frozen=True)
class GridSearchResult:
    best: dict
    score: float
    indicator: str
    rows: list = field(repr=False)


def grid_search(data: Dataset, method: str, grid: GridSpec,
                kernel_kind: str = "rbf",
                wcfg: WeightConfig = WeightConfig()) -> GridSearchResult:
    """Full grid evaluation plus argmax selection by the grid's indicator."""
    rows = cv_table(data, method, grid, kernel_kind, wcfg)
    best, score = select_best(rows, grid.indicator)
    return GridSearchResult(best=best, score=score, indicator=grid.indicator,
                            rows=rows)


def rows_to_csv(rows, path, header_comment: str = "") -> None:
    """One CSV row per grid cell per fold."""
    columns = ("gamma", "delta", "epsilon", "sigma", "fold", "acc", "vac", "valid",
               "converged", "iterations", "interior_iterations")
    write_csv(path, columns, ([row.get(col, "") for col in columns] for row in rows),
              header_comment)


def fit_full(data: Dataset, method: str, params: dict, kernel_kind: str = "rbf",
             wcfg: WeightConfig = WeightConfig()):
    """Fit one method on the whole dataset with explicit cell parameters."""
    kspec = _kernel_spec(kernel_kind, params.get("delta"))
    K = gram(kspec, data.features)
    weight = _model_weight(method, wcfg, data.features, data.features,
                           params.get("sigma"))
    return _fit_cell(method, data, K, params["gamma"], params.get("epsilon"),
                     weight)
