"""Solution-kernel matrices: the cross-Gram of two sample sets and the Gram of one.

A single pair's K(x, x') is the 1 x 1 cross-Gram. The rbf kernel uses the
2*delta**2 denominator, so bandwidth grids expressed as powers of two apply
directly. Gram matrices are exactly symmetric as built (see ``cross_gram``)
and carry a unit diagonal for rbf; a linear one built by ``gram`` also
keeps its factor, the samples X with K = XX', and ``_low_rank_solver``
solves a diagonal plus UX' through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import KernelSpec, _block_rows, _frozen_array, _frozen_symmetric

__all__ = ["GramMatrix", "cross_gram", "gram"]


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel matrix between two sample sets: entry (i, t) = K(x_i, z_t).

    The rbf entries are exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / (2 delta^2)),
    evaluated in place in the (m, t) product X Z', one row block at a time
    beside one block of scratch, so a call holds one full-size array. The
    operations and their order are those of the one-expression formula, so
    the entries agree with it bit for bit.

    When ``Z is X``, X is converted once to a C-contiguous array that is
    both operands, so numpy computes X X' by BLAS syrk (one triangle,
    copied to the other) and every rbf step after it is elementwise: the
    result is exactly symmetric as built, whatever X's layout or type.
    """
    if Z is X:
        X = Z = np.ascontiguousarray(X, dtype=float)
    else:
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
    """Symmetric kernel matrix over one sample set, with its kernel spec.

    ``_factor`` is the G with values = GG' exactly, as computed: ``gram``
    sets it to the samples on a linear kernel. Any other GramMatrix,
    including one built by hand, has None, and fits solve with its values.
    """

    values: np.ndarray
    spec: KernelSpec
    _factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_symmetric(self.values, "Gram matrix"))


def gram(spec: KernelSpec, X) -> GramMatrix:
    """Build the Gram matrix of one sample set: ``cross_gram(spec, X, X)``,
    exactly symmetric as built, with the rbf diagonal pinned to 1. A linear
    one keeps a read-only copy of X as its factor."""
    X = np.ascontiguousarray(X, dtype=float)
    values = cross_gram(spec, X, X)
    if spec.kind == "rbf":
        np.fill_diagonal(values, 1.0)
    K = GramMatrix(values, spec)
    if spec.kind == "linear":
        object.__setattr__(K, "_factor", _frozen_array(X))
    return K


def _low_rank_solver(t, U, G):
    """Solve (diag(1/t) + UG') x = b, for m x d matrices U and G, through the
    d x d matrix I + G' diag(t) U by the Sherman-Morrison-Woodbury identity:
    x = tb - tU (I + G'tU)^-1 G'tb. Returns the solve, which takes a vector
    or a matrix of right-hand sides and raises LinAlgError when the d x d
    matrix is singular."""
    tU = t[:, None] * U
    S = G.T @ tU
    S.flat[::S.shape[0] + 1] += 1.0

    def solve(b):
        tb = (t * b.T).T
        return tb - tU @ np.linalg.solve(S, G.T @ tb)
    return solve
