"""Synthetic generators with known optimal boundaries, plus CSV ingestion.

The 2-D generator draws balanced classes from N(mu, Sigma) and N(-mu, Sigma)
with diagonal Sigma; its optimal linear boundary is x2 = k0*x1 + q0 with
k0 = -(mu1/var1)/(mu2/var2) and q0 = 0 (slope 2 for the default spec). The
1-D generator produces two overlapping normal classes whose exact posterior
is logistic in x. Class assignment is exactly balanced (first half positive)
rather than Bernoulli, and everything is reproducible from (spec, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Scaler, normalize, to_internal_labels, write_csv
from .evaluation import BoundaryLine

__all__ = [
    "GaussianSpec2D",
    "Robustness1DSpec",
    "bayes_boundary_2d",
    "bayes_posterior",
    "gen_gaussian_2d",
    "gen_robustness_1d",
    "load_csv",
    "sample_gaussian_2d",
    "sample_robustness_1d",
    "save_csv",
]


@dataclass(frozen=True)
class GaussianSpec2D:
    """Balanced bivariate-normal classes at +/-mu with diagonal covariance."""

    mu: tuple[float, float] = (1.0, -2.0)
    var: tuple[float, float] = (0.5, 2.0)
    n: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("n must be even and at least 4")
        if min(self.var) <= 0.0:
            raise ValueError("variances must be positive")


@dataclass(frozen=True)
class Robustness1DSpec:
    """Two overlapping 1-D normal classes (positive class at the left center)."""

    center_pos: float = -3.0
    center_neg: float = 3.0
    var: float = 3.0
    n: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("n must be even and at least 4")
        if self.var <= 0.0:
            raise ValueError("variance must be positive")


def _two_normal_classes(seed: int, n: int, mean_pos, mean_neg, std):
    """Raw (un-normalized) draws: n/2 rows of class 1 around mean_pos, then
    n/2 rows of class 0 around mean_neg, each coordinate scaled by std."""
    rng = np.random.default_rng(seed)
    half = n // 2
    shape = (half, np.size(mean_pos))
    pos = mean_pos + std * rng.standard_normal(shape)
    neg = mean_neg + std * rng.standard_normal(shape)
    raw = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(half, dtype=np.int64),
                             np.zeros(half, dtype=np.int64)])
    return raw, labels


def sample_gaussian_2d(spec: GaussianSpec2D) -> tuple[np.ndarray, np.ndarray]:
    """Raw (un-normalized) draws: first n/2 rows class 1 at +mu, rest class 0."""
    mu = np.asarray(spec.mu)
    return _two_normal_classes(spec.seed, spec.n, mu, -mu, np.sqrt(np.asarray(spec.var)))


def gen_gaussian_2d(spec: GaussianSpec2D) -> Dataset:
    raw, labels = sample_gaussian_2d(spec)
    feats, scaler = normalize(raw)
    return Dataset(feats, labels, scaler,
                   name=f"gaussian2d(n={spec.n},seed={spec.seed})")


def bayes_boundary_2d(spec: GaussianSpec2D) -> BoundaryLine:
    """Optimal linear boundary of the 2-D generator (through the origin)."""
    w = np.asarray(spec.mu) / np.asarray(spec.var)
    if abs(w[1]) < 1e-15:
        raise ValueError("degenerate spec: boundary is vertical")
    return BoundaryLine(slope=float(-w[0] / w[1]), intercept=0.0)


def sample_robustness_1d(spec: Robustness1DSpec) -> tuple[np.ndarray, np.ndarray]:
    return _two_normal_classes(spec.seed, spec.n, spec.center_pos, spec.center_neg,
                               np.sqrt(spec.var))


def gen_robustness_1d(spec: Robustness1DSpec) -> Dataset:
    raw, labels = sample_robustness_1d(spec)
    feats, scaler = normalize(raw)
    return Dataset(feats, labels, scaler,
                   name=f"robust1d(n={spec.n},seed={spec.seed})")


def bayes_posterior(x, mean_pos, mean_neg, var) -> np.ndarray | float:
    """Exact posterior P(y=1 | x) for equal-prior diagonal-normal classes.

    Computed through the log-likelihood ratio for stability; for the 1-D
    robustness spec this reduces to 1 / (1 + exp(2x)).
    """
    from scipy.special import expit

    x = np.atleast_2d(np.asarray(x, dtype=float))
    mean_pos = np.atleast_1d(np.asarray(mean_pos, dtype=float))
    mean_neg = np.atleast_1d(np.asarray(mean_neg, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if np.any(var <= 0.0):
        raise ValueError("variances must be positive")
    llr = np.sum(((x - mean_neg) ** 2 - (x - mean_pos) ** 2) / (2.0 * var), axis=1)
    post = expit(llr)
    return post if post.size > 1 else float(post[0])


# ---------------------------------------------------------------------------
# CSV ingestion

def save_csv(path, features, labels) -> None:
    """Write raw features plus a final label column, float64-round-trip safe."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValueError("features must be (m, d) with one label per row")
    write_csv(path, [f"feature_{k}" for k in range(features.shape[1])] + ["label"],
              ([f"{x:.17g}" for x in row] + [str(lab)]
               for row, lab in zip(features, labels)))


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_csv(path, label_column: int = -1, positive_label=None,
             scaler: Scaler | None = None, name: str | None = None) -> Dataset:
    """Load a delimited dataset: numeric features plus one two-token label column.

    Features are min-max normalized (transductively over the file unless a
    scaler is supplied); labels are mapped onto {0, 1}; row order is kept.
    """
    rows: list[list[str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            cells = [c.strip() for c in row]
            if not cells or all(c == "" for c in cells):
                continue
            rows.append([lineno] + cells)
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    width = len(rows[0]) - 1
    label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise ValueError(f"{path}: label column {label_column} out of range")
    feature_idx = [k for k in range(width) if k != label_idx]
    if not feature_idx:
        raise ValueError(f"{path}: no feature columns")
    first = rows[0][1:]
    has_header = not all(_is_float(first[k]) for k in feature_idx)
    body = rows[1:] if has_header else rows
    if not body:
        raise ValueError(f"{path}: empty dataset")
    raw = np.empty((len(body), len(feature_idx)))
    tokens: list[str] = []
    for r, row in enumerate(body):
        lineno, cells = row[0], row[1:]
        if len(cells) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} columns, got {len(cells)}")
        for c, k in enumerate(feature_idx):
            try:
                raw[r, c] = float(cells[k])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric feature value {cells[k]!r}"
                ) from None
        tokens.append(cells[label_idx])
    labels = to_internal_labels(tokens, positive_label)
    feats, fitted = normalize(raw, scaler)
    return Dataset(feats, labels, fitted, name=name or str(path))
