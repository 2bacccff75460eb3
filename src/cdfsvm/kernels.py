"""Solution-kernel matrices: the cross-Gram of two sample sets and the Gram of one.

A single pair's K(x, x') is the 1 x 1 cross-Gram. The rbf kernel uses the
2*delta**2 denominator, so bandwidth grids expressed as powers of two apply
directly. Gram matrices are exactly symmetric as built (see ``gram``) and
carry a unit diagonal for rbf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KernelSpec, _block_rows, _frozen_symmetric

__all__ = ["GramMatrix", "cross_gram", "gram"]


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel matrix between two sample sets: entry (i, t) = K(x_i, z_t).

    The rbf entries are exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / (2 delta^2)),
    evaluated in place in the (m, t) product X Z', one row block at a time
    beside one block of scratch, so a call holds one full-size array. The
    operations and their order are those of the one-expression formula, so
    the entries agree with it bit for bit.

    ``cross_gram(spec, X, X)`` is not exactly symmetric in general: for a
    column-sliced, strided or reversed array, or a list, BLAS may compute
    X X' as a general product, whose two triangles can round differently
    when it runs more than one thread; wrapping such a result in
    ``GramMatrix`` can then raise ValueError. ``gram`` is the exactly
    symmetric path.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2 or X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Z.shape}")
    if spec.kind == "linear":
        return X @ Z.T
    sx = np.sum(X * X, axis=1)
    sz = np.sum(Z * Z, axis=1)
    out = X @ Z.T
    rows = _block_rows(out.shape[1])
    scratch = np.empty((min(rows, out.shape[0]), out.shape[1]))
    # dividing by -2 delta^2 rounds exactly as negating, then dividing by 2 delta^2
    scale = -2.0 * spec.delta**2
    for lo in range(0, out.shape[0], rows):
        block = out[lo:lo + rows]
        block *= 2.0
        sums = np.add.outer(sx[lo:lo + rows], sz, out=scratch[:len(block)])
        np.subtract(sums, block, out=block)
        np.maximum(block, 0.0, out=block)
        block /= scale
        np.exp(block, out=block)
    return out


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over one sample set, with its kernel spec."""

    values: np.ndarray
    spec: KernelSpec

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_symmetric(self.values, "Gram matrix"))


def gram(spec: KernelSpec, X) -> GramMatrix:
    """Build the Gram matrix of one sample set.

    One C-contiguous array of the samples is both operands of ``cross_gram``,
    so numpy computes X X' by BLAS syrk (one triangle, copied to the other)
    and every rbf step after it is elementwise: the result is exactly
    symmetric as built. The rbf diagonal is pinned to 1.
    """
    X = np.ascontiguousarray(X, dtype=float)
    values = cross_gram(spec, X, X)
    if spec.kind == "rbf":
        np.fill_diagonal(values, 1.0)
    return GramMatrix(values, spec)
