"""Distribution weights: v-vectors and V-matrices of a sample set.

A weight is the integral of a distribution kernel G centered at a sample
against a measure mu; one point's weight is ``v_vector`` on a one-row
sample with ``normalize=False``. Closed forms cover the gaussian and step
kernels against uniform-box and gaussian measures; the empirical measure
averages the kernel over a reference sample; the degenerate point-mass
measure yields the all-ones vector (no distribution information).

For the gaussian-kernel/uniform-box pair the exact integral is used,

    (1/(2a)) * int_{-a}^{a} exp(-(u - x)^2 / (2 sigma^2)) du
        = (sigma * sqrt(2*pi) / (4a)) * (erf((a - x)/(sigma*sqrt(2)))
                                         + erf((a + x)/(sigma*sqrt(2)))),

with all constant prefactors folded into the normalization constant, since
only relative weights matter downstream. Where |x| > a the erf sum cancels,
so there the same value is taken as erfc((|x| - a)/(sigma*sqrt(2))) -
erfc((|x| + a)/(sigma*sqrt(2))); samples inside the box keep the erf form.

The V-matrix entry V_ij = int G(u - x_i) G(u - x_j) dmu(u) reuses the
v-vector's closed forms, one dimension at a time, through two exact
identities that merge the pair of kernels into one:

    step:      G(u - x_i) G(u - x_j) = G(u - max(x_i, x_j))
    gaussian:  G_sigma(u - x_i) G_sigma(u - x_j)
                   = exp(-(x_i - x_j)^2 / (4 sigma^2)) G_{sigma/sqrt(2)}(u - (x_i + x_j)/2)

scipy.special is imported inside ``_per_dim_integrals``, the only code that
calls it: loading it costs about 0.3 s and 26 MB, which the empirical and
point-mass measures never need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GKernelSpec, _block_rows, _frozen_array, _frozen_symmetric, write_csv

__all__ = [
    "MeasureSpec",
    "VMatrix",
    "VWeights",
    "v_matrix",
    "v_vector",
    "weights_to_csv",
]

_MEASURE_KINDS = ("uniform_box", "gaussian", "empirical", "point_mass")


@dataclass(frozen=True)
class MeasureSpec:
    """Measure over the input space used to integrate distribution kernels.

    kinds:
      uniform_box -- uniform on the product of [center_k - a_k, center_k + a_k]
      gaussian    -- independent per-dimension normal(mean_k, std_k**2)
      empirical   -- average over N reference points
      point_mass  -- degenerate: unit mass at the evaluation point itself
    """

    kind: str
    center: np.ndarray | None = None
    halfwidth: np.ndarray | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    references: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        for name, ndim, what in (("center", 1, "box center"),
                                 ("halfwidth", 1, "box halfwidth"),
                                 ("mean", 1, "gaussian mean"),
                                 ("std", 1, "gaussian std"),
                                 ("references", 2, "references")):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _frozen_array(value, ndim=ndim, what=what))
        if self.kind == "uniform_box":
            if self.center is None or self.halfwidth is None:
                raise ValueError("uniform_box measure needs center and halfwidth")
            if self.center.shape != self.halfwidth.shape:
                raise ValueError("box center/halfwidth length mismatch")
            if np.any(self.halfwidth <= 0.0):
                raise ValueError("degenerate box: halfwidth must be positive")
        elif self.kind == "gaussian":
            if self.mean is None or self.std is None:
                raise ValueError("gaussian measure needs mean and std")
            if self.mean.shape != self.std.shape:
                raise ValueError("gaussian mean/std length mismatch")
            if not np.all(np.isfinite(self.mean)):
                raise ValueError("gaussian mean must be finite")
            if np.any(self.std <= 0.0):
                raise ValueError("gaussian measure needs std > 0")
        elif self.kind == "empirical":
            if self.references is None or self.references.shape[0] < 1:
                raise ValueError("empirical measure needs at least one reference point")

    @classmethod
    def uniform_box(cls, halfwidth, center=None) -> "MeasureSpec":
        halfwidth = np.atleast_1d(np.asarray(halfwidth, dtype=float))
        if center is None:
            center = np.zeros_like(halfwidth)
        return cls("uniform_box", center=np.atleast_1d(center), halfwidth=halfwidth)

    @classmethod
    def unit_box(cls, d: int) -> "MeasureSpec":
        """Uniform on [0, 1]^d: the default for normalized data."""
        return cls.uniform_box(np.full(d, 0.5), np.full(d, 0.5))

    @classmethod
    def gaussian(cls, mean, std) -> "MeasureSpec":
        return cls("gaussian", mean=np.atleast_1d(mean), std=np.atleast_1d(std))

    @classmethod
    def empirical(cls, references) -> "MeasureSpec":
        return cls("empirical", references=np.asarray(references, dtype=float))

    @classmethod
    def point_mass(cls) -> "MeasureSpec":
        return cls("point_mass")

    def describe(self) -> str:
        if self.kind == "uniform_box":
            return f"uniform_box(halfwidth={self.halfwidth.tolist()})"
        if self.kind == "gaussian":
            return f"gaussian(mean={self.mean.tolist()}, std={self.std.tolist()})"
        if self.kind == "empirical":
            return f"empirical(N={self.references.shape[0]})"
        return "point_mass"


@dataclass(frozen=True)
class VWeights:
    """Per-sample distribution weights with provenance of the (G, mu) pair.

    ``values`` are in (0, 1] after normalization; ``norm_constant`` is the
    pre-normalization maximum so raw weights can be recovered.
    """

    values: np.ndarray
    combine: str
    g_spec: GKernelSpec
    mu: MeasureSpec
    norm_constant: float = 1.0

    def __post_init__(self):
        vals = _frozen_array(self.values, ndim=1, what="weights")
        if np.any(vals < 0.0) or np.any(vals > 1.0 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        if self.combine not in ("product", "additive"):
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if not self.norm_constant > 0.0:
            raise ValueError("normalization constant must be positive")
        object.__setattr__(self, "values", vals)

    def provenance(self) -> dict:
        return {
            "g": self.g_spec.to_dict(),
            "mu": self.mu.describe(),
            "combine": self.combine,
            "norm_constant": self.norm_constant,
        }

    @classmethod
    def ones(cls, m: int) -> "VWeights":
        return cls(np.ones(m), "product", GKernelSpec.step(), MeasureSpec.point_mass())


@dataclass(frozen=True, eq=False)
class VMatrix:
    """Pairwise distribution weights V_ij = int G(x-x_i) G(x-x_j) dmu(x).

    Instances compare and hash by identity, so products with V can be
    memoized on them.
    """

    values: np.ndarray
    g_spec: GKernelSpec
    mu: MeasureSpec

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_symmetric(self.values, "V-matrix", nonnegative=True))


# ---------------------------------------------------------------------------
# one-dimensional closed-form integrals and empirical kernel sums

def _per_dim_integrals(x, g: GKernelSpec, mu: MeasureSpec, k=slice(None)) -> np.ndarray:
    """int G(u - x) dmu_k(u) for each coordinate of x, for a parametric mu.

    ``x`` holds coordinates in the dimensions ``k`` selects: an (m, d)
    sample matrix for all of them, or an array of any shape for one.
    """
    from scipy.special import erf, erfc, ndtr

    if mu.kind == "uniform_box":
        center, halfw = mu.center[k], mu.halfwidth[k]
        if g.kind == "step":
            # box mass at or above x
            return np.clip((center + halfw - x) / (2.0 * halfw), 0.0, 1.0)
        xc = x - center
        rt2 = g.sigma * np.sqrt(2.0)
        pref = g.sigma * np.sqrt(2.0 * np.pi) / (4.0 * halfw)
        mass = erf((halfw - xc) / rt2) + erf((halfw + xc) / rt2)
        ax = np.abs(xc)
        far = ax > halfw
        if np.any(far):
            # outside the box the erf sum is a difference of two numbers near
            # 1 and cancels; the same difference of erfc tails keeps its digits
            near_edge = (ax - halfw) / g.sigma / np.sqrt(2.0)
            far_edge = (ax + halfw) / g.sigma / np.sqrt(2.0)
            mass = np.where(far, erfc(near_edge) - erfc(far_edge), mass)
        return pref * mass
    mean, std = mu.mean[k], mu.std[k]  # gaussian measure
    if g.kind == "step":
        # normal mass at or above x
        return ndtr((mean - x) / std)
    var = g.sigma**2 + std**2
    return (g.sigma / np.sqrt(var)) * np.exp(-((x - mean) ** 2) / (2.0 * var))


def _kernel_block(out, columns, g, refs, combine):
    """Write G(ref_n - x_i) for the n rows of ``refs`` into ``out``, (n, t).

    ``columns`` holds the samples as (d, t), C-contiguous. The block is
    accumulated one dimension at a time beside one block of differences,
    so memory is a few blocks, not the n*t*d of the one-piece formulas.
    The difference of dimension k is a copy of the references' column
    minus the contiguous row k of ``columns``, which rounds as the
    broadcast subtraction does. Step entries equal the one-piece formulas
    exactly at any d. Gaussian entries sum d terms in order, as numpy's
    reduction over the last axis does below 8 elements; from d >= 8 numpy
    sums pairwise, and a gaussian entry can differ from the one-piece
    formula in the last bit.
    """
    d = refs.shape[1]
    diff = np.empty(out.shape)
    step_product = combine == "product" and g.kind == "step"
    if step_product:
        # a logical and, kept in bool until the block is done
        acc = np.ones(out.shape, dtype=bool)
    else:
        acc = out
        acc[...] = 0.0
    # dividing by -2 sigma^2 rounds exactly as negating, then dividing by 2 sigma^2
    scale = -2.0 * g.sigma**2 if g.kind == "gaussian" else None
    for k in range(d):
        np.copyto(diff, refs[:, k, None])
        np.subtract(diff, columns[k], out=diff)
        if g.kind == "step":
            part = diff >= 0.0
        else:
            part = np.multiply(diff, diff, out=diff)
            if combine == "additive":
                np.exp(np.divide(part, scale, out=part), out=part)
        if step_product:
            acc &= part
        else:
            acc += part
    if step_product:
        np.copyto(out, acc)
    elif combine == "additive":
        out /= d
    elif g.kind == "gaussian":
        np.exp(np.divide(out, scale, out=out), out=out)


def _empirical_kernel(samples, g, refs, combine="product"):
    """(N, t) float matrix of G(ref_n - x_i), filled one block of reference rows at a time."""
    columns = np.ascontiguousarray(samples.T)
    out = np.empty((refs.shape[0], samples.shape[0]))
    rows = _block_rows(samples.shape[0])
    for lo in range(0, refs.shape[0], rows):
        _kernel_block(out[lo:lo + rows], columns, g, refs[lo:lo + rows], combine)
    return out


def _empirical_mean(samples, g, refs, combine):
    """Column means of the (N, t) kernel, bit for bit those of ``.mean(axis=0)``.

    numpy sums each column of a wider kernel in reference order, so every
    block is reduced together with a carry row that holds the column sums
    so far. An (N, 1) kernel numpy sums pairwise, so t = 1 stays one block.
    """
    N, t = refs.shape[0], samples.shape[0]
    columns = np.ascontiguousarray(samples.T)
    rows = N if t == 1 else _block_rows(t)
    buf = np.empty((min(rows, N) + 1, t))
    sums = np.empty(t)
    for lo in range(0, N, rows):
        block = refs[lo:lo + rows]
        _kernel_block(buf[1:len(block) + 1], columns, g, block, combine)
        # the first block has no carry yet
        np.add.reduce(buf[0 if lo else 1:len(block) + 1], axis=0, out=sums)
        buf[0] = sums
    return sums / N


# ---------------------------------------------------------------------------
# vector and matrix builders

def _samples_for(samples, mu: MeasureSpec) -> np.ndarray:
    """Samples as an (m, d) float matrix whose d matches the measure's."""
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2:
        raise ValueError("samples must form an (m, d) matrix")
    d = (mu.halfwidth.size if mu.kind == "uniform_box"
         else mu.mean.size if mu.kind == "gaussian"
         else mu.references.shape[1] if mu.kind == "empirical"
         else X.shape[1])
    if X.shape[1] != d:
        raise ValueError(f"dimension mismatch: samples have {X.shape[1]} "
                         f"dimensions, the {mu.kind} measure {d}")
    return X


def v_vector(samples, g: GKernelSpec, mu: MeasureSpec, combine: str = "product",
             normalize: bool = True) -> VWeights:
    """Distribution weights for a sample set.

    Per-dimension integrals are combined by product (default) or by their
    mean ("additive"), the latter being the well-conditioned high-dimension
    variant; both live in (0, 1]. With ``normalize`` the vector is divided
    by its maximum so max v_i = 1.

    An empirical measure with N references is averaged one block of
    reference rows at a time, so the kernel held at once is a few blocks,
    whatever N and t are; the values equal the mean over one (N, t) kernel
    bit for bit.
    """
    samples = _samples_for(samples, mu)
    if combine not in ("product", "additive"):
        raise ValueError(f"unknown combine mode {combine!r}")
    if mu.kind == "point_mass":
        values = np.ones(samples.shape[0])
    elif mu.kind == "empirical":
        values = _empirical_mean(samples, g, mu.references, combine)
    else:
        parts = _per_dim_integrals(samples, g, mu)
        values = np.prod(parts, axis=1) if combine == "product" else parts.mean(axis=1)
    norm_constant = 1.0
    if normalize:
        peak = float(values.max()) if values.size else 0.0
        if peak <= 0.0:
            raise ValueError("all distribution weights are zero for this (G, mu) pair")
        values = values / peak
        norm_constant = peak
    return VWeights(values, combine, g, mu, norm_constant)


def v_matrix(samples, g: GKernelSpec, mu: MeasureSpec) -> VMatrix:
    """Pairwise weight matrix V_ij = int G(x - x_i) G(x - x_j) dmu(x).

    Empirical measures use the reference average W'W / N. Parametric
    measures multiply, over dimensions, the v-vector's closed form at one
    merged point per pair (see the module docstring). Either way V is exactly
    symmetric as built. The point-mass measure degenerates to the identity.
    """
    X = _samples_for(samples, mu)
    m, d = X.shape
    if mu.kind == "point_mass":
        return VMatrix(np.eye(m), g, mu)
    if mu.kind == "empirical":
        # W is a fresh C-contiguous array, so W'W is one syrk: symmetric as
        # built. W goes before VMatrix copies the product; dividing in place
        # rounds as (W'W) / N does.
        W = _empirical_kernel(X, g, mu.references)
        P = W.T @ W
        del W
        P /= mu.references.shape[0]
        return VMatrix(P, g, mu)

    vals = np.ones((m, m))
    half = GKernelSpec.gaussian(g.sigma / np.sqrt(2.0)) if g.kind == "gaussian" else g
    for k in range(d):
        xk = X[:, k]
        if g.kind == "step":
            vals *= _per_dim_integrals(np.maximum.outer(xk, xk), g, mu, k)
        else:
            vals *= np.exp(-np.subtract.outer(xk, xk) ** 2 / (4.0 * g.sigma**2))
            vals *= _per_dim_integrals(0.5 * np.add.outer(xk, xk), half, mu, k)
    return VMatrix(vals, g, mu)


def weights_to_csv(weights: VWeights, path) -> None:
    """Write (index, v-value) rows for inspection."""
    write_csv(path, ["index", "v_value"],
              ([i, repr(float(value))] for i, value in enumerate(weights.values)))
