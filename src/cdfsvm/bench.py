"""Benchmark harnesses: Bayes-boundary reproduction and dataset comparisons.

The boundary benchmark repeatedly samples the 2-D generator, tunes each
method by cross-validation, fits on the full sample, extracts the linear
decision line and summarizes the ensemble against the known optimal
boundary through the deviation-times-dispersion distance. Both indicators
can select from the same cross-validation table, so Acc- and Vac-selected
columns come from identical fits.

The dataset benchmark selects a configuration by cross-validation on the
full data, then reports mean +/- std G-mean and Acc over a fresh k-fold
round, one row per dataset and method.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, decide, format_table, subset, write_csv
from .datagen import GaussianSpec2D, bayes_boundary_2d, gen_gaussian_2d
from .evaluation import (accuracy, boundary_from_linear, dist_to_bayes, gmean)
from .modelsel import (GridSpec, WeightConfig, cv_table, fit_full, kfold_split,
                       select_best)
from .solvers import SolverError, predict

__all__ = [
    "BoundaryColumn",
    "DatasetRow",
    "bayes_table_text",
    "run_bayes_benchmark",
    "run_uci_benchmark",
    "total_variation",
    "uci_table_text",
    "write_bayes_csv",
    "write_uci_csv",
]


@dataclass
class BoundaryColumn:
    """Line ensemble for one (method, indicator) column of the boundary table."""

    method: str
    indicator: str
    ks: list = field(default_factory=list)
    qs: list = field(default_factory=list)
    failures: int = 0
    aborted: bool = False

    def summary(self, k0: float, q0: float) -> dict:
        ks = np.asarray(self.ks, dtype=float)
        qs = np.asarray(self.qs, dtype=float)
        if self.aborted or ks.size < 2:
            return dict(method=self.method, indicator=self.indicator,
                        runs=int(ks.size), dist=np.nan, k_mean=np.nan,
                        k_std=np.nan, q_mean=np.nan, q_std=np.nan,
                        aborted=True)
        return dict(method=self.method, indicator=self.indicator,
                    runs=int(ks.size),
                    dist=dist_to_bayes(ks, qs, k0, q0),
                    k_mean=float(ks.mean()), k_std=float(ks.std(ddof=1)),
                    q_mean=float(qs.mean()), q_std=float(qs.std(ddof=1)),
                    aborted=False)


def run_bayes_benchmark(n: int, repetitions: int, methods, grid: GridSpec,
                        wcfg: WeightConfig = WeightConfig(),
                        indicators=("acc",), seed: int = 0,
                        spec: GaussianSpec2D | None = None,
                        max_failures: int = 3,
                        solver: dict | None = None) -> dict:
    """Repeated sample/tune/fit rounds on the 2-D generator.

    Returns {(method, indicator): BoundaryColumn}. The pseudo-method
    "bayes" reports the analytic optimal line each repetition (distance 0
    by construction). A method's column is abandoned, not the whole run,
    after ``max_failures`` consecutive-round failures.
    """
    base = spec or GaussianSpec2D(n=n)
    if base.n != n:
        base = replace(base, n=n)
    reference = bayes_boundary_2d(base)
    columns = {(method, ind): BoundaryColumn(method, ind)
               for method in methods for ind in indicators}
    for rep in range(repetitions):
        data = gen_gaussian_2d(replace(base, seed=seed + rep))
        rep_grid = replace(grid, seed=seed + rep)
        for method in methods:
            cols = [columns[(method, ind)] for ind in indicators]
            if all(c.aborted for c in cols):
                continue
            if method == "bayes":
                for col in cols:
                    col.ks.append(reference.slope)
                    col.qs.append(reference.intercept)
                continue
            try:
                rows = cv_table(data, method, rep_grid, kernel_kind="linear",
                                wcfg=wcfg, solver=solver)
                chosen = {}
                for ind in indicators:
                    best, _ = select_best(rows, ind)
                    key = tuple(sorted(best.items(), key=lambda kv: kv[0]))
                    if key not in chosen:
                        chosen[key] = fit_full(data, method, best, "linear",
                                               wcfg, solver=solver)
                    line = boundary_from_linear(chosen[key])
                    columns[(method, ind)].ks.append(line.slope)
                    columns[(method, ind)].qs.append(line.intercept)
            except (SolverError, ValueError):
                for col in cols:
                    col.failures += 1
                    if col.failures >= max_failures:
                        col.aborted = True
    return columns


def bayes_table_text(columns: dict, k0: float = 2.0, q0: float = 0.0) -> str:
    lines = []
    for (method, ind) in sorted(columns):
        s = columns[(method, ind)].summary(k0, q0)
        if s["aborted"]:
            lines.append((method, ind, str(s["runs"]), "aborted", "-", "-"))
        else:
            lines.append((method, ind, str(s["runs"]), f"{s['dist']:.4f}",
                          f"{s['k_mean']:.2f}±{s['k_std']:.2f}",
                          f"{s['q_mean']:.3f}±{s['q_std']:.3f}"))
    return format_table(("method", "indicator", "runs", "Dist", "k_mean±std",
                         "q_mean±std"), lines)


def write_bayes_csv(columns: dict, path, header_comment: str = "",
                    k0: float = 2.0, q0: float = 0.0) -> None:
    """Summary plus the per-repetition (k, q) pairs, for audit."""
    write_csv(path, ["method", "indicator", "repetition", "k", "q"],
              ([method, ind, rep, repr(k), repr(q)]
               for (method, ind), col in sorted(columns.items())
               for rep, (k, q) in enumerate(zip(col.ks, col.qs))),
              header_comment)


@dataclass
class DatasetRow:
    dataset: str
    method: str
    status: str = "ok"
    gmean_mean: float = np.nan
    gmean_std: float = np.nan
    acc_mean: float = np.nan
    acc_std: float = np.nan
    best: dict | None = None


def run_uci_benchmark(datasets, methods, grid: GridSpec,
                      kernel_kind: str = "rbf",
                      wcfg: WeightConfig = WeightConfig(),
                      solver: dict | None = None) -> list[DatasetRow]:
    """Per dataset and method: CV-selected configuration, then k-fold metrics.

    ``datasets`` holds (name, Dataset | Exception) pairs; unreadable entries
    produce a warning row instead of aborting the table.
    """
    out: list[DatasetRow] = []
    for name, data in datasets:
        if not isinstance(data, Dataset):
            out.extend(DatasetRow(dataset=name, method=m, status=f"skipped: {data}")
                       for m in methods)
            continue
        for method in methods:
            try:
                rows = cv_table(data, method, grid, kernel_kind, wcfg, solver=solver)
                best, _ = select_best(rows, grid.indicator)
                splits = kfold_split(data.m, grid.folds, grid.seed + 1,
                                     labels=data.labels)
                gms, accs = [], []
                for tr, te in splits:
                    model = fit_full(subset(data, tr), method, best, kernel_kind,
                                     wcfg, solver=solver)
                    pred = decide(predict(model, data.features[te]))
                    gms.append(gmean(data.labels[te], pred))
                    accs.append(accuracy(data.labels[te], pred))
                gms, accs = np.asarray(gms), np.asarray(accs)
                out.append(DatasetRow(
                    dataset=name, method=method,
                    gmean_mean=float(gms.mean()), gmean_std=float(gms.std(ddof=1)),
                    acc_mean=float(accs.mean()), acc_std=float(accs.std(ddof=1)),
                    best=best))
            except (SolverError, ValueError) as exc:
                out.append(DatasetRow(dataset=name, method=method,
                                      status=f"failed: {exc}"))
    return out


def uci_table_text(rows: list[DatasetRow]) -> str:
    lines = []
    for row in rows:
        if row.status != "ok":
            lines.append((row.dataset, row.method, row.status))
        else:
            lines.append((row.dataset, row.method,
                          f"{100*row.gmean_mean:.2f}±{100*row.gmean_std:.2f}"
                          f"({100*row.acc_mean:.2f})"))
    return format_table(("dataset", "method", "G-mean(Acc)%"), lines)


def write_uci_csv(rows: list[DatasetRow], path, header_comment: str = "") -> None:
    write_csv(path, ["dataset", "method", "status", "gmean_mean", "gmean_std",
                     "acc_mean", "acc_std", "best"],
              ([row.dataset, row.method, row.status, row.gmean_mean,
                row.gmean_std, row.acc_mean, row.acc_std, row.best]
               for row in rows),
              header_comment)


def total_variation(scores) -> float:
    """Sum of absolute increments of a score curve on an ordered grid."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size < 2:
        raise ValueError("need a 1-d curve with at least two points")
    return float(np.abs(np.diff(scores)).sum())
