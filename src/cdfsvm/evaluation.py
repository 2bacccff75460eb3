"""Classification indicators and boundary geometry.

Acc counts exact label matches; Vac weighs each correct prediction by the
test point's distribution weight v_t, so it degenerates to Acc when v_t is
identically 1. G-mean is the geometric mean of sensitivity and specificity
and is the headline benchmark metric. For two-dimensional linear models the
decision line is extracted in the original (pre-normalization) frame so it
can be compared against a known optimal boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import THRESHOLD, format_table, write_csv

__all__ = [
    "BoundaryLine",
    "EvalReport",
    "accuracy",
    "boundary_from_linear",
    "confusion_counts",
    "dist_to_bayes",
    "evaluate",
    "format_report_table",
    "gmean",
    "reports_to_csv",
    "vac",
]


def _pair(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise ValueError(f"label shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size < 1:
        raise ValueError("empty label vectors")
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = _pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def vac(y_true, y_pred, v_t) -> float:
    """Distribution-weighted accuracy: (1/T) sum_t 1[y_t = yhat_t] * v_t."""
    y_true, y_pred = _pair(y_true, y_pred)
    v_t = np.asarray(v_t, dtype=float)
    if v_t.shape != y_true.shape:
        raise ValueError("weight vector length mismatch")
    if np.any(v_t <= 0.0):
        raise ValueError("v_t must be positive")
    return float(np.mean((y_true == y_pred) * v_t))


def confusion_counts(y_true, y_pred) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) with class 1 positive."""
    y_true, y_pred = _pair(y_true, y_pred)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return tp, fp, tn, fn


def _sens_spec(tp, fp, tn, fn) -> tuple[float, float]:
    sens = tp / (tp + fn) if tp + fn else 0.0
    spec = tn / (tn + fp) if tn + fp else 0.0
    return float(sens), float(spec)


def gmean(y_true, y_pred) -> float:
    """sqrt(sensitivity * specificity); 0 when a class is absent from y_true."""
    sens, spec = _sens_spec(*confusion_counts(y_true, y_pred))
    return float(np.sqrt(sens * spec))


@dataclass(frozen=True)
class EvalReport:
    """One model's test metrics plus the provenance of the Vac weights."""

    acc: float
    vac: float
    gmean: float
    sensitivity: float
    specificity: float
    tp: int
    fp: int
    tn: int
    fn: int
    v_provenance: str = "uniform (v=1)"

    CSV_HEADER = ("acc", "vac", "gmean", "sensitivity", "specificity",
                  "tp", "fp", "tn", "fn", "v_provenance")

    def csv_row(self) -> list:
        return [self.acc, self.vac, self.gmean, self.sensitivity,
                self.specificity, self.tp, self.fp, self.tn, self.fn,
                self.v_provenance]


def evaluate(y_true, y_pred, v_t=None, v_provenance: str | None = None) -> EvalReport:
    """Score predictions; without v_t the Vac column degenerates to Acc."""
    tp, fp, tn, fn = confusion_counts(y_true, y_pred)
    sens, spec = _sens_spec(tp, fp, tn, fn)
    acc = accuracy(y_true, y_pred)
    if v_t is None:
        vac_value = acc
        provenance = v_provenance or "uniform (v=1)"
    else:
        vac_value = vac(y_true, y_pred, v_t)
        provenance = v_provenance or "custom"
    return EvalReport(acc=acc, vac=vac_value, gmean=float(np.sqrt(sens * spec)),
                      sensitivity=sens, specificity=spec,
                      tp=tp, fp=fp, tn=tn, fn=fn, v_provenance=provenance)


def format_report_table(reports: dict[str, EvalReport]) -> str:
    """Human-readable metric table, one row per model name."""
    return format_table(
        ("model", "acc", "vac", "gmean", "sens", "spec", "tp", "fp", "tn", "fn"),
        [(name, f"{rep.acc:.4f}", f"{rep.vac:.4f}", f"{rep.gmean:.4f}",
          f"{rep.sensitivity:.4f}", f"{rep.specificity:.4f}",
          str(rep.tp), str(rep.fp), str(rep.tn), str(rep.fn))
         for name, rep in reports.items()])


def reports_to_csv(reports: dict[str, EvalReport], path, header_comment: str = "") -> None:
    write_csv(path, ("model",) + EvalReport.CSV_HEADER,
              ([name] + rep.csv_row() for name, rep in reports.items()),
              header_comment)


@dataclass(frozen=True)
class BoundaryLine:
    """Decision line x2 = slope * x1 + intercept in original coordinates."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not (np.isfinite(self.slope) and np.isfinite(self.intercept)):
            raise ValueError("boundary line must be finite")


def boundary_from_linear(model) -> BoundaryLine:
    """Extract the decision line of a 2-D linear-kernel model.

    The normalized-frame weight vector w = sum_i a_i x_i is mapped back to
    the original frame by inverting the model's scaler, so the returned
    (slope, intercept) refer to un-normalized coordinates.
    """
    if model.kernel.kind != "linear":
        raise ValueError("boundary extraction needs a linear kernel")
    if model.support.shape[1] != 2:
        raise ValueError("boundary extraction needs 2-dimensional inputs")
    w_norm = model.coefficients @ model.support
    # score = scale*(w.x_norm + intercept) + shift = THRESHOLD
    t_norm = (THRESHOLD - model.score_shift) / model.score_scale - model.intercept
    span = model.scaler.maxs - model.scaler.mins
    if np.any(span <= 0.0):
        raise ValueError("boundary extraction needs non-constant features")
    u = w_norm / span
    s = t_norm + float(u @ model.scaler.mins)
    scale = float(np.max(np.abs(u)))
    if scale <= 0.0 or abs(u[1]) < 1e-12 * scale:
        raise ValueError(
            "degenerate boundary: weight on feature 2 vanishes (vertical line)"
        )
    return BoundaryLine(slope=float(-u[0] / u[1]), intercept=float(s / u[1]))


def dist_to_bayes(ks, qs, k0: float = 2.0, q0: float = 0.0) -> float:
    """Deviation-times-dispersion distance of a line ensemble from a target.

        |mean(ks) - k0| * std(ks) + |mean(qs) - q0| * std(qs)

    with sample standard deviations (R-1 denominator).
    """
    ks = np.asarray(ks, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if ks.ndim != 1 or ks.shape != qs.shape:
        raise ValueError("slope/intercept vectors must match")
    if ks.size < 2:
        raise ValueError("need at least two runs")
    return float(abs(ks.mean() - k0) * ks.std(ddof=1)
                 + abs(qs.mean() - q0) * qs.std(ddof=1))
