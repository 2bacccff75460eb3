"""Kernel evaluation and Gram-matrix construction.

The rbf kernel uses the 2*delta**2 denominator, so bandwidth grids expressed
as powers of two apply directly. Gram matrices are exactly symmetric by
construction (upper triangle mirrored) and carry a unit diagonal for rbf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GKernelSpec, KernelSpec, _frozen_symmetric, _mirror

__all__ = ["GramMatrix", "cross_gram", "g_eval", "gram", "k_eval"]


def _check_pair(x, xp):
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.ndim != 1 or xp.ndim != 1 or x.shape != xp.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {xp.shape}")
    return x, xp


def k_eval(spec: KernelSpec, x, xp) -> float:
    """Evaluate the solution kernel K(x, x') for a single pair."""
    x, xp = _check_pair(x, xp)
    if spec.kind == "linear":
        return float(x @ xp)
    d2 = float(np.sum((x - xp) ** 2))
    return float(np.exp(-d2 / (2.0 * spec.delta**2)))


def g_eval(spec: GKernelSpec, u, x) -> float:
    """Evaluate the distribution kernel G(u - x) for a single pair.

    Step: 1 iff u >= x coordinate-wise (closed comparison).
    Gaussian: product over dimensions of exp(-(u_k - x_k)^2 / (2 sigma^2)).
    """
    u, x = _check_pair(u, x)
    if spec.kind == "step":
        return float(np.all(u >= x))
    d2 = float(np.sum((u - x) ** 2))
    return float(np.exp(-d2 / (2.0 * spec.sigma**2)))


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel matrix between two sample sets: entry (i, t) = K(x_i, z_t).

    The rbf entries are exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / (2 delta^2)),
    evaluated in place in one output buffer beside the (m, t) product X Z',
    so a call holds two full-size arrays. The operations and their order
    are those of the one-expression formula, so the entries agree with it
    bit for bit.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Z.shape}")
    if spec.kind == "linear":
        return X @ Z.T
    sx = np.sum(X * X, axis=1)
    sz = np.sum(Z * Z, axis=1)
    cross = X @ Z.T
    cross *= 2.0
    out = np.add.outer(sx, sz)
    out -= cross
    np.maximum(out, 0.0, out=out)
    # dividing by -2 delta^2 rounds exactly as negating, then dividing by 2 delta^2
    out /= -2.0 * spec.delta**2
    return np.exp(out, out=out)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over one sample set, with its kernel spec."""

    values: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_symmetric(self.values, "Gram matrix"))

    @property
    def m(self) -> int:
        return self.values.shape[0]


def gram(spec: KernelSpec, X) -> GramMatrix:
    """Build the Gram matrix of one sample set.

    The upper triangle is computed and mirrored, so the result is exactly
    symmetric; the rbf diagonal is pinned to 1.
    """
    values = _mirror(cross_gram(spec, X, X))
    if spec.kind == "rbf":
        np.fill_diagonal(values, 1.0)
    return GramMatrix(values, spec)
