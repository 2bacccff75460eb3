"""Core domain types: datasets, kernel descriptions, scaling and label rules.

Every dataset carries {0, 1} labels and features min-max scaled to the unit
hypercube; scores are thresholded at 0.5. External +/-1 labels are remapped
on ingestion (-1 becomes 0). Every CSV file and padded text table the
package writes goes through ``write_csv`` and ``format_table``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "THRESHOLD",
    "Dataset",
    "GKernelSpec",
    "KernelSpec",
    "Scaler",
    "decide",
    "format_table",
    "normalize",
    "subset",
    "to_internal_labels",
    "write_csv",
]

THRESHOLD = 0.5


def _frozen_array(values, dtype=float, ndim=None, what="array"):
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _frozen_symmetric(values, what):
    """Read-only copy of a square, exactly symmetric matrix."""
    arr = _frozen_array(values)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square")
    if not np.array_equal(arr, arr.T):
        raise ValueError(f"{what} must be exactly symmetric")
    return arr


# entries in one row block of the kernel-matrix builders: 128 KB of floats,
# so a block stays in L2 cache through all of its elementwise passes
_BLOCK = 16_384


def _block_rows(width: int) -> int:
    """Rows of a ``width``-column matrix that make one block, at least one."""
    return max(1, _BLOCK // max(width, 1))


def _mirror(values: np.ndarray) -> np.ndarray:
    """Mirror a square matrix's upper triangle onto its lower one, in place.

    Works one strip of rows at a time and returns ``values``. Every entry
    equals that of ``np.triu(values) + np.triu(values, 1).T``, which the
    diagonal squares still evaluate; the rest of a strip gets ``+ 0.0``, so
    -0.0 becomes +0.0 as there, and the strip below each square copies
    those entries.
    """
    m = values.shape[0]
    rows = _block_rows(m)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        square = values[lo:hi, lo:hi]
        values[lo:hi, lo:hi] = np.triu(square) + np.triu(square, 1).T
        right = np.add(values[lo:hi, hi:], 0.0, out=values[lo:hi, hi:])
        values[hi:, lo:hi] = right.T
    return values


@dataclass(frozen=True)
class Scaler:
    """Per-dimension (min, max) pairs used for unit-interval scaling.

    Dimensions with min == max are constant; they scale to 0.5 and invert
    back to the constant value.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", _frozen_array(self.mins, ndim=1, what="scaler mins"))
        object.__setattr__(self, "maxs", _frozen_array(self.maxs, ndim=1, what="scaler maxs"))
        if self.mins.shape != self.maxs.shape:
            raise ValueError("scaler mins/maxs length mismatch")
        if not (np.all(np.isfinite(self.mins)) and np.all(np.isfinite(self.maxs))):
            raise ValueError("scaler bounds must be finite")
        if np.any(self.mins > self.maxs):
            raise ValueError("scaler requires min <= max per dimension")

    @property
    def n_features(self) -> int:
        return self.mins.size

    def transform(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 2 or raw.shape[1] != self.n_features:
            raise ValueError(f"expected (m, {self.n_features}) matrix, got {raw.shape}")
        span = self.maxs - self.mins
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = (raw - self.mins) / span
        scaled = np.where(span > 0.0, scaled, 0.5)
        return np.clip(scaled, 0.0, 1.0)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        scaled = np.asarray(scaled, dtype=float)
        span = self.maxs - self.mins
        return np.where(span > 0.0, scaled * span + self.mins, self.mins)

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Scaler":
        return cls(np.asarray(payload["mins"]), np.asarray(payload["maxs"]))


def normalize(raw, scaler: Scaler | None = None) -> tuple[np.ndarray, Scaler]:
    """Min-max scale every column to [0, 1].

    When ``scaler`` is omitted it is fitted on the full input matrix, so each
    non-constant column attains both 0 and 1 (constant columns map to 0.5).
    With a provided scaler, values outside its range are clipped to [0, 1].
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("feature matrix must be 2-dimensional")
    if raw.shape[0] < 1:
        raise ValueError("feature matrix needs at least one row")
    if not np.all(np.isfinite(raw)):
        raise ValueError("features must be finite")
    if scaler is None:
        scaler = Scaler(raw.min(axis=0), raw.max(axis=0))
    elif scaler.n_features != raw.shape[1]:
        raise ValueError(
            f"scaler covers {scaler.n_features} dimensions, data has {raw.shape[1]}"
        )
    return scaler.transform(raw), scaler


def decide(score):
    """Map scores to {0, 1}: class 1 iff score > THRESHOLD; ties go to 0."""
    arr = np.asarray(score, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite score")
    labels = (arr > THRESHOLD).astype(np.int64)
    return labels if labels.ndim else int(labels)


def to_internal_labels(values, positive_label=None) -> np.ndarray:
    """Map a two-token label column onto {0, 1}.

    Numeric {0, 1} and {-1, +1} conventions are recognized directly (-1 maps
    to 0); any other token pair needs an explicit ``positive_label``.
    """
    raw = list(values)
    if not raw:
        raise ValueError("empty label column")
    tokens = sorted({str(v) for v in raw})
    if len(tokens) > 2:
        raise ValueError(f"more than two label tokens: {tokens}")
    if positive_label is not None:
        pos = str(positive_label)
        if pos not in tokens:
            raise ValueError(f"positive label {pos!r} not among tokens {tokens}")
        return np.array([1 if str(v) == pos else 0 for v in raw], dtype=np.int64)
    try:
        numeric = np.array([float(v) for v in raw])
    except (TypeError, ValueError):
        raise ValueError(
            f"non-numeric label tokens {tokens} need an explicit positive label"
        ) from None
    uniq = set(np.unique(numeric).tolist())
    if uniq <= {0.0, 1.0}:
        return numeric.astype(np.int64)
    if uniq <= {-1.0, 1.0}:
        return (numeric > 0).astype(np.int64)
    raise ValueError(
        f"label values {sorted(uniq)} are neither {{0,1}} nor {{-1,+1}}; "
        "pass the positive label explicitly"
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Normalized feature matrix with binary labels and scaling provenance.

    Instances compare and hash by identity, so per-dataset work can be
    memoized on them.
    """

    features: np.ndarray
    labels: np.ndarray
    scaler: Scaler
    name: str = ""

    def __post_init__(self):
        feats = _frozen_array(self.features, ndim=2, what="features")
        labs = _frozen_array(self.labels, dtype=np.int64, ndim=1, what="labels")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        if feats.shape[0] < 2 or feats.shape[1] < 1:
            raise ValueError("dataset needs m >= 2 samples and d >= 1 features")
        if labs.shape[0] != feats.shape[0]:
            raise ValueError("label/feature row count mismatch")
        if np.any(feats < 0.0) or np.any(feats > 1.0):
            raise ValueError("features must lie in [0, 1]; run normalize first")
        if np.any((labs != 0) & (labs != 1)):
            raise ValueError("labels must be 0 or 1")
        if self.scaler.n_features != feats.shape[1]:
            raise ValueError("scaler dimension mismatch")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def has_both_classes(self) -> bool:
        return bool(np.any(self.labels == 0) and np.any(self.labels == 1))

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


def subset(data: Dataset, idx) -> Dataset:
    """Row subset sharing the parent's scaler."""
    idx = np.asarray(idx, dtype=np.int64)
    return Dataset(data.features[idx], data.labels[idx], data.scaler, data.name)


@dataclass(frozen=True)
class KernelSpec:
    """Solution kernel description: 'rbf' with bandwidth delta, or 'linear'."""

    kind: str
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not self.delta > 0.0:
            raise ValueError("rbf kernel needs delta > 0")

    @classmethod
    def rbf(cls, delta: float) -> "KernelSpec":
        return cls("rbf", float(delta))

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "delta": self.delta}

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelSpec":
        return cls(payload["kind"], payload.get("delta", 1.0))


@dataclass(frozen=True)
class GKernelSpec:
    """Distribution kernel description: 'gaussian' with width sigma, or 'step'.

    The step kernel is the product over dimensions of closed one-dimensional
    indicators (1 iff u >= x coordinate-wise).
    """

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "step"):
            raise ValueError(f"unknown distribution kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.sigma > 0.0:
            raise ValueError("gaussian distribution kernel needs sigma > 0")

    @classmethod
    def gaussian(cls, sigma: float) -> "GKernelSpec":
        return cls("gaussian", float(sigma))

    @classmethod
    def step(cls) -> "GKernelSpec":
        return cls("step")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "sigma": self.sigma}

    @classmethod
    def from_dict(cls, payload: dict) -> "GKernelSpec":
        return cls(payload["kind"], payload.get("sigma", 1.0))


def write_csv(path, header, rows, comment: str = "") -> None:
    """Write one ``# `` line per comment line, then the header and data rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comment.splitlines():
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def format_table(header, rows) -> str:
    """Left-aligned text columns two spaces apart, trailing blanks stripped."""
    lines = [header, *rows]
    widths = [max(len(line[c]) for line in lines) for c in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in lines)
