import tracemalloc

import numpy as np
import pytest
import scipy.special
from oracles import midpoint_quadrature
from scipy.special import erf, ndtr

from cdfsvm import distribution
from cdfsvm.core import GKernelSpec
from cdfsvm.distribution import (MeasureSpec, VWeights, v_matrix, v_vector,
                                 weights_to_csv)

GAUSS = GKernelSpec.gaussian
STEP = GKernelSpec.step()


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec.uniform_box(halfwidth=[0.0])
    with pytest.raises(ValueError):
        MeasureSpec.gaussian([0.0], [0.0])
    with pytest.raises(ValueError):
        MeasureSpec.empirical(np.empty((0, 2)))
    box = MeasureSpec.unit_box(3)
    assert np.allclose(box.center, 0.5) and np.allclose(box.halfwidth, 0.5)


# ---------------------------------------------------------------------------
# one point's weight, v_vector on a one-row sample: the step kernel against a
# gaussian measure

def test_v_gaussian_step_at_mean():
    mu = MeasureSpec.gaussian([1.3], [0.4])
    val = v_vector(np.array([[1.3]]), STEP, mu, normalize=False).values[0]
    assert val == pytest.approx(0.5, abs=1e-12)


def test_v_gaussian_step_limit():
    mu = MeasureSpec.gaussian([0.0], [1.0])
    val = v_vector(np.array([[-40.0]]), STEP, mu, normalize=False).values[0]
    assert val == pytest.approx(1.0, abs=1e-12)


def test_v_gaussian_step_2d_product_of_halves():
    mu = MeasureSpec.gaussian([0.2, -1.0], [0.5, 2.0])
    val = v_vector(np.array([[0.2, -1.0]]), STEP, mu, normalize=False).values[0]
    assert val == pytest.approx(0.25, abs=1e-12)


def test_v_gaussian_step_monotone_1d():
    mu = MeasureSpec.gaussian([0.3], [0.7])
    xs = np.linspace(-2.0, 2.0, 41)
    vals = [v_vector(np.array([[x]]), STEP, mu, normalize=False).values[0] for x in xs]
    assert np.all(np.diff(vals) <= 0.0)


# ---------------------------------------------------------------------------
# the gaussian kernel against a uniform-box measure

def test_v_uniform_gaussian_flat_kernel_limit():
    mu = MeasureSpec.uniform_box([1.0])
    wide = GAUSS(1e4)
    ratio = (v_vector(np.array([[0.0]]), wide, mu, normalize=False).values[0]
             / v_vector(np.array([[1.0]]), wide, mu, normalize=False).values[0])
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_v_uniform_gaussian_center_beats_edge():
    mu = MeasureSpec.uniform_box([1.0])
    for sigma in (0.1, 0.5, 1.0, 4.0):
        assert (v_vector(np.array([[0.0]]), GAUSS(sigma), mu, normalize=False).values[0]
                > v_vector(np.array([[1.0]]), GAUSS(sigma), mu, normalize=False).values[0])


def test_v_uniform_gaussian_matches_quadrature():
    mu = MeasureSpec.uniform_box([1.0])
    g = GAUSS(1.0)
    val = v_vector(np.array([[0.0]]), g, mu, normalize=False).values[0]
    quad = midpoint_quadrature(lambda u: np.exp(-(u**2) / 2.0), -1.0, 1.0)
    assert val == pytest.approx(quad, abs=1e-6)


def test_v_uniform_gaussian_symmetric_about_center():
    mu = MeasureSpec.uniform_box([0.5], center=[0.5])
    g = GAUSS(0.3)
    for x in (0.1, 0.27, 0.42):
        left = v_vector(np.array([[0.5 - x]]), g, mu, normalize=False).values[0]
        right = v_vector(np.array([[0.5 + x]]), g, mu, normalize=False).values[0]
        assert abs(left - right) < 1e-12


def test_v_uniform_gaussian_unimodal_peak_at_center():
    mu = MeasureSpec.uniform_box([0.5], center=[0.5])
    g = GAUSS(0.3)
    xs = np.linspace(0.0, 1.0, 101)
    vals = np.array([v_vector(np.array([[x]]), g, mu, normalize=False).values[0] for x in xs])
    assert np.argmax(vals) == 50
    assert np.all(np.diff(vals[:51]) > 0.0) and np.all(np.diff(vals[50:]) < 0.0)


def test_v_uniform_gaussian_additive_combines_by_mean():
    mu = MeasureSpec.uniform_box([0.5, 0.5])
    g = GAUSS(0.4)
    x = np.array([0.2, -0.3])
    parts = [v_vector(np.array([[xi]]), g, MeasureSpec.uniform_box([0.5]),
                      normalize=False).values[0] for xi in x]
    product = v_vector(x[None, :], g, mu, "product", normalize=False).values[0]
    additive = v_vector(x[None, :], g, mu, "additive", normalize=False).values[0]
    assert product == pytest.approx(parts[0] * parts[1], rel=1e-12)
    assert additive == pytest.approx(0.5 * (parts[0] + parts[1]), rel=1e-12)


# ---------------------------------------------------------------------------
# an empirical measure: the average kernel value

def test_v_empirical_single_reference():
    mu = MeasureSpec.empirical([[0.4, 0.6]])
    assert v_vector(np.array([[0.4, 0.6]]), GAUSS(1.0), mu, normalize=False).values[0] == 1.0


def test_v_empirical_step_below_all_references():
    mu = MeasureSpec.empirical([[0.5, 0.5], [0.9, 0.7]])
    assert v_vector(np.array([[0.1, 0.2]]), STEP, mu, normalize=False).values[0] == 1.0


def test_v_empirical_matches_direct_summation():
    rng = np.random.default_rng(8)
    refs = rng.random((5, 3))
    x = rng.random(3)
    mu = MeasureSpec.empirical(refs)
    direct = np.mean([np.exp(-np.sum((r - x) ** 2) / 2.0) for r in refs])
    val = v_vector(x[None, :], GAUSS(1.0), mu, normalize=False).values[0]
    assert val == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# v_vector

def test_v_vector_point_mass_all_ones():
    rng = np.random.default_rng(9)
    X = rng.random((7, 2))
    weights = v_vector(X, GAUSS(1.0), MeasureSpec.point_mass())
    assert np.array_equal(weights.values, np.ones(7))
    assert weights.norm_constant == 1.0


def test_v_vector_identical_samples_equal_weights():
    X = np.tile([0.3, 0.8], (6, 1))
    weights = v_vector(X, GAUSS(0.5), MeasureSpec.unit_box(2))
    assert np.allclose(weights.values, weights.values[0])


def test_v_vector_empirical_matches_per_entry():
    rng = np.random.default_rng(10)
    X = rng.random((3, 2))
    mu = MeasureSpec.empirical(rng.random((11, 2)))
    g = GAUSS(0.6)
    weights = v_vector(X, g, mu, normalize=False)
    per_entry = np.array([v_vector(x[None, :], g, mu, normalize=False).values[0] for x in X])
    assert np.allclose(weights.values, per_entry, atol=1e-14)


def test_v_vector_normalization_and_constant():
    rng = np.random.default_rng(11)
    X = rng.random((9, 2))
    raw = v_vector(X, GAUSS(0.25), MeasureSpec.unit_box(2), normalize=False)
    norm = v_vector(X, GAUSS(0.25), MeasureSpec.unit_box(2), normalize=True)
    assert norm.values.max() == 1.0
    assert norm.norm_constant == pytest.approx(raw.values.max(), rel=1e-15)
    assert np.allclose(norm.values * norm.norm_constant, raw.values, rtol=1e-15)


def test_v_vector_additive_stays_in_unit_interval():
    rng = np.random.default_rng(12)
    X = rng.random((20, 6))
    for mu in (MeasureSpec.unit_box(6), MeasureSpec.empirical(rng.random((15, 6)))):
        weights = v_vector(X, GAUSS(0.5), mu, combine="additive")
        assert np.all(weights.values > 0.0) and np.all(weights.values <= 1.0)


def test_v_vector_rejects_all_zero():
    # every sample strictly above the single reference: step weights vanish
    mu = MeasureSpec.empirical([[0.0, 0.0]])
    X = np.array([[0.5, 0.5], [0.9, 0.9]])
    with pytest.raises(ValueError):
        v_vector(X, STEP, mu)


def test_vweights_validation():
    with pytest.raises(ValueError):
        VWeights(np.array([0.5, 1.5]), "product", STEP, MeasureSpec.point_mass())
    with pytest.raises(ValueError):
        VWeights(np.array([0.5, 0.5]), "geometric", STEP, MeasureSpec.point_mass())


# ---------------------------------------------------------------------------
# v_matrix

def test_v_matrix_step_diagonal_equals_v_vector():
    # theta^2 = theta, so V_ii is the plain weight of x_i
    rng = np.random.default_rng(13)
    X = rng.random((6, 2))
    for mu in (MeasureSpec.unit_box(2), MeasureSpec.empirical(rng.random((40, 2))),
               MeasureSpec.gaussian([0.4, 0.6], [0.3, 0.5])):
        V = v_matrix(X, STEP, mu)
        w = v_vector(X, STEP, mu, normalize=False)
        assert np.allclose(np.diag(V.values), w.values, atol=1e-12)


def test_v_matrix_symmetric_nonnegative():
    rng = np.random.default_rng(14)
    X = rng.random((8, 3))
    for g in (STEP, GAUSS(0.5)):
        for mu in (MeasureSpec.unit_box(3),
                   MeasureSpec.gaussian([0.5] * 3, [0.3] * 3),
                   MeasureSpec.empirical(rng.random((25, 3)))):
            V = v_matrix(X, g, mu).values
            assert np.array_equal(V, V.T)
            assert np.all(V >= 0.0)


def test_v_matrix_empirical_matches_double_loop():
    rng = np.random.default_rng(15)
    X = rng.random((4, 2))
    refs = rng.random((9, 2))
    V = v_matrix(X, GAUSS(0.7), MeasureSpec.empirical(refs)).values
    brute = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for s in range(9):
                gi = np.exp(-np.sum((refs[s] - X[i]) ** 2) / (2 * 0.7**2))
                gj = np.exp(-np.sum((refs[s] - X[j]) ** 2) / (2 * 0.7**2))
                acc += gi * gj
            brute[i, j] = acc / 9
    # matmul and the explicit loop differ only by float summation order
    assert np.allclose(V, brute, rtol=1e-12, atol=1e-14)


def one_piece_empirical(X, refs, sigma):
    """The N x m x d empirical-weight formulas, (combine, kernel) -> W."""
    diffs = refs[:, None, :] - X[None, :, :]
    sq = np.sum((refs[:, None, :] - X[None, :, :]) ** 2, axis=2)
    return {
        ("product", "step"): np.all(refs[:, None, :] >= X[None, :, :], axis=2),
        ("product", "gaussian"): np.exp(-sq / (2.0 * sigma**2)),
        ("additive", "step"): (diffs >= 0.0).astype(float).mean(axis=2),
        ("additive", "gaussian"): np.exp(-(diffs**2) / (2.0 * sigma**2)).mean(axis=2),
    }


@pytest.mark.parametrize("block", [50, 500])
def test_empirical_weights_chunked_bit_identical(block):
    # the kernel matrix built from batches of at most block // (N*d) samples
    # (4 at block=500, so 14 batches; 1 at block=50) equals, column for
    # column and bit for bit, the one-piece formulas on all samples
    rng = np.random.default_rng(17)
    X = rng.random((53, 3))
    refs = rng.random((37, 3))
    rows = max(1, block // refs.size)
    for (combine, kind), W in one_piece_empirical(X, refs, 0.4).items():
        g = STEP if kind == "step" else GAUSS(0.4)
        got = np.concatenate([
            distribution._empirical_kernel(X[i:i + rows], g, refs, combine)
            for i in range(0, len(X), rows)], axis=1)
        assert np.array_equal(got, W), (combine, kind)


def test_empirical_weights_bit_identical():
    # numpy sums fewer than 8 terms in order, so at d=3 every kernel matches
    # the one-piece formulas exactly; at d=10 the step kernels still do and
    # gaussian sums may differ in the last bit
    rng = np.random.default_rng(17)
    for d in (3, 10):
        X = rng.random((53, d))
        refs = rng.random((37, d))
        mu = MeasureSpec.empirical(refs)
        single = one_piece_empirical(X[7:8], refs, 0.4)
        for (combine, kind), W in one_piece_empirical(X, refs, 0.4).items():
            g = STEP if kind == "step" else GAUSS(0.4)
            got = v_vector(X, g, mu, combine=combine, normalize=False).values
            if d == 10 and kind == "gaussian":
                assert np.allclose(got, W.mean(axis=0), rtol=1e-15, atol=0.0)
                continue
            assert np.array_equal(got, W.mean(axis=0)), (d, combine, kind)
            assert (v_vector(X[7][None, :], g, mu, combine, normalize=False).values[0]
                    == single[combine, kind].mean(axis=0)[0]), (d, combine, kind)
            if combine == "product":
                W = W.astype(float)
                product = (W.T @ W) / 37
                mirrored = np.triu(product) + np.triu(product, 1).T
                assert np.array_equal(v_matrix(X, g, mu).values, mirrored), (d, kind)


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("combine", ["product", "additive"])
@pytest.mark.parametrize("kind", ["step", "gaussian"])
def test_empirical_v_vector_slabs_bit_identical(kind, combine, d):
    # v_vector sums slabs of 16,384 // t reference rows (8,192 at t = 2),
    # each together with a carry row of the sums so far; the mean over one
    # (N, t) kernel is the reference. N = 17,000 takes every t > 1 across
    # at least two slabs with a remainder; t = 1 is one slab, which numpy
    # sums pairwise as it does the whole (N, 1) kernel
    rng = np.random.default_rng(19 + d)
    g = STEP if kind == "step" else GAUSS(0.5)
    for N in (9, 37, 300, 17_000):
        refs = rng.normal(size=(N, d))
        mu = MeasureSpec.empirical(refs)
        for t in (1, 2, 63, 64, 65, 66, 129, 130, 257):
            X = rng.normal(size=(t, d))
            whole = distribution._empirical_kernel(X, g, refs, combine).mean(axis=0)
            got = v_vector(X, g, mu, combine=combine, normalize=False).values
            assert np.array_equal(got, whole), (N, t)


@pytest.mark.parametrize("combine", ["product", "additive"])
@pytest.mark.parametrize("kind", ["step", "gaussian"])
def test_empirical_weights_memory_grows_as_n_times_t(kind, combine):
    # the one-piece formulas hold N*t*d = 10 N*t numbers; accumulating one
    # dimension at a time holds the output and one scratch array
    N, t, d = 400, 300, 10
    rng = np.random.default_rng(18)
    X = rng.random((t, d))
    mu = MeasureSpec.empirical(rng.random((N, d)))
    g = STEP if kind == "step" else GAUSS(0.4)
    tracemalloc.start()
    try:
        v_vector(X, g, mu, combine=combine, normalize=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * N * t * 8


@pytest.mark.parametrize("combine", ["product", "additive"])
@pytest.mark.parametrize("kind", ["step", "gaussian"])
def test_empirical_weights_memory_is_a_few_blocks(kind, combine):
    # 20,000 references and 256 samples make a 41 MB kernel; v_vector holds
    # a few 128 KB blocks of it, whatever N and t are
    rng = np.random.default_rng(20)
    X = rng.random((256, 2))
    mu = MeasureSpec.empirical(rng.random((20_000, 2)))
    g = STEP if kind == "step" else GAUSS(0.4)
    tracemalloc.start()
    try:
        v_vector(X, g, mu, combine=combine, normalize=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("mu", [MeasureSpec.unit_box(1), MeasureSpec.unit_box(3),
                                MeasureSpec.gaussian([0.5], [0.2]),
                                MeasureSpec.gaussian([0.5] * 3, [0.2] * 3),
                                MeasureSpec.empirical(np.zeros((5, 3)))],
                         ids=["box1", "box3", "gauss1", "gauss3", "empirical3"])
@pytest.mark.parametrize("g", [STEP, GAUSS(0.5)], ids=["step", "gaussian"])
def test_measure_dimension_must_match_samples(mu, g):
    X = np.random.default_rng(19).random((4, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        v_vector(X, g, mu, normalize=False)
    with pytest.raises(ValueError, match="dimension mismatch"):
        v_matrix(X, g, mu)


@pytest.mark.parametrize("g", [STEP, GAUSS(0.4)], ids=["step", "gaussian"])
def test_empirical_v_matrix_is_the_one_expression_product(g):
    # dividing the product in place rounds as (W'W) / N does
    rng = np.random.default_rng(23)
    X, refs = rng.random((70, 3)), rng.random((90, 3))
    W = distribution._empirical_kernel(X, g, refs)
    V = v_matrix(X, g, MeasureSpec.empirical(refs))
    assert np.array_equal(V.values, (W.T @ W) / refs.shape[0])


def test_empirical_v_matrix_memory_is_about_two_squares():
    # W (N x m) is freed before VMatrix copies the product, so the peak is
    # the product and its read-only copy, as for gram, not three m x m floats
    m = 600
    rng = np.random.default_rng(24)
    X = rng.random((m, 2))
    mu = MeasureSpec.empirical(rng.random((m, 2)))
    tracemalloc.start()
    try:
        v_matrix(X, GAUSS(0.4), mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * m * m * 8


def test_v_matrix_point_mass_is_identity():
    V = v_matrix(np.random.default_rng(16).random((5, 2)), GAUSS(1.0),
                 MeasureSpec.point_mass())
    assert np.array_equal(V.values, np.eye(5))


@pytest.mark.parametrize("g", [STEP, GAUSS(0.6)])
@pytest.mark.parametrize("mu_kind", ["uniform", "gaussian"])
def test_v_matrix_closed_forms_match_quadrature(g, mu_kind):
    rng = np.random.default_rng(17)
    X = rng.random((5, 1))
    if mu_kind == "uniform":
        mu = MeasureSpec.uniform_box([0.5], center=[0.5])
        lo, hi = 0.0, 1.0
        density = None
    else:
        mu = MeasureSpec.gaussian([0.4], [0.3])
        lo, hi = 0.4 - 8 * 0.3, 0.4 + 8 * 0.3
        density = lambda u: np.exp(-((u - 0.4) ** 2) / (2 * 0.3**2)) / (0.3 * np.sqrt(2 * np.pi))
    V = v_matrix(X, g, mu).values
    n = 200_000
    grid = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    if g.kind == "step":
        kern = lambda x: (grid >= x).astype(float)
        tol = 5e-5  # midpoint rule is O(h) on the step discontinuity
    else:
        kern = lambda x: np.exp(-((grid - x) ** 2) / (2 * g.sigma**2))
        tol = 5e-6
    for i in range(5):
        for j in range(i, 5):
            integrand = kern(X[i, 0]) * kern(X[j, 0])
            if density is None:
                expected = integrand.mean()
            else:
                expected = np.mean(integrand * density(grid)) * (hi - lo)
            assert V[i, j] == pytest.approx(expected, abs=tol)


def test_v_matrix_empirical_approaches_quadrature():
    # 1e4 uniform references approximate the uniform-box closed form
    rng = np.random.default_rng(18)
    X = rng.random((6, 1))
    refs = rng.random((10_000, 1))
    V_emp = v_matrix(X, GAUSS(0.5), MeasureSpec.empirical(refs)).values
    V_exact = v_matrix(X, GAUSS(0.5), MeasureSpec.uniform_box([0.5], center=[0.5])).values
    rel = np.linalg.norm(V_emp - V_exact) / np.linalg.norm(V_exact)
    assert rel < 0.02


def per_pair_v_matrix(X, g, mu):
    """The V-matrix closed forms written out for each (G, mu) pair, then mirrored."""
    vals = np.ones((X.shape[0],) * 2)
    for k, xk in enumerate(X.T):
        hi = np.maximum.outer(xk, xk)
        if mu.kind == "uniform_box":
            c, a = mu.center[k], mu.halfwidth[k]
            if g.kind == "step":
                vals *= np.clip((c + a - hi) / (2.0 * a), 0.0, 1.0)
            else:
                s = g.sigma
                mid = 0.5 * np.add.outer(xk, xk) - c
                gap2 = np.subtract.outer(xk, xk) ** 2
                pref = s * np.sqrt(np.pi) / (4.0 * a)
                vals *= (np.exp(-gap2 / (4.0 * s**2)) * pref
                         * (erf((a - mid) / s) + erf((a + mid) / s)))
        else:
            mean, std = mu.mean[k], mu.std[k]
            if g.kind == "step":
                vals *= ndtr((mean - hi) / std)
            else:
                s = g.sigma
                mid = 0.5 * np.add.outer(xk, xk)
                gap2 = np.subtract.outer(xk, xk) ** 2
                var = 0.5 * s**2 + std**2
                vals *= (np.exp(-gap2 / (4.0 * s**2))
                         * (s / np.sqrt(2.0 * var))
                         * np.exp(-((mid - mean) ** 2) / (2.0 * var)))
    return np.triu(vals) + np.triu(vals, 1).T


@pytest.mark.parametrize("d", [1, 2, 5, 10])
@pytest.mark.parametrize("mu_kind", ["uniform", "gaussian", "empirical"])
def test_v_matrix_matches_per_pair_formulas(mu_kind, d):
    # V is built from the v-vector's closed forms at merged points: step V
    # and empirical V are bit-identical to the per-pair formulas, gaussian V
    # agrees within 1e-14 relative, and every V is exactly symmetric as built
    rng = np.random.default_rng(23 + d)
    for m in (1, 2, 37):
        X = rng.random((m, d))
        mu = {"uniform": MeasureSpec.unit_box(d),
              "gaussian": MeasureSpec.gaussian(X.mean(axis=0),
                                               np.maximum(X.std(axis=0), 1e-9)),
              "empirical": MeasureSpec.empirical(rng.random((29, d)))}[mu_kind]
        for g in (STEP, GAUSS(2.0**-4), GAUSS(1.0), GAUSS(16.0)):
            V = v_matrix(X, g, mu).values
            assert np.array_equal(V, V.T), (m, g)
            if mu_kind == "empirical":
                W = distribution._empirical_kernel(X, g, mu.references).astype(float)
                W = (W.T @ W) / 29
                assert np.array_equal(V, np.triu(W) + np.triu(W, 1).T), (m, g)
            elif g.kind == "step":
                assert np.array_equal(V, per_pair_v_matrix(X, g, mu)), m
            else:
                assert np.allclose(V, per_pair_v_matrix(X, g, mu),
                                   rtol=1e-14, atol=0.0), (m, g)


# (1/2a) int_{-a}^{a} G_sigma(u - x) du for a = 0.5 and sigma the double
# nearest 0.1, at x = 1.0 and x = 1.5, to 50 digits: sigma*sqrt(2*pi)/(4a) *
# (erfc((x - a)/(sigma*sqrt(2))) - erfc((x + a)/(sigma*sqrt(2)))) evaluated
# in 60-digit arithmetic
FAR_SIDE = {1.0: 7.1852893503980913144453396086156798228934085883981e-8,
            1.5: 1.9100139038893418965657556280724176345994695911792e-24}


@pytest.mark.parametrize("x", sorted(FAR_SIDE))
def test_gaussian_box_weight_far_outside_the_box(x):
    # outside the box the erf sum cancels (3.9e-11 off at x = 1.0, and 0 at
    # x = 1.5); the erfc form keeps full relative accuracy on either side
    mu = MeasureSpec.uniform_box([0.5])
    got = distribution._per_dim_integrals(np.array([[x], [-x]]), GAUSS(0.1), mu)
    assert got[0, 0] == got[1, 0]
    assert got[0, 0] == pytest.approx(FAR_SIDE[x], rel=1e-14, abs=0.0)


def test_gaussian_box_weights_inside_the_box_keep_the_erf_form(monkeypatch):
    # unit-box samples, edges included, never reach the erfc branch, so their
    # weights and V are the erf closed form bit for bit
    def unused(_):
        raise AssertionError("erfc branch reached for an in-box sample")

    # _per_dim_integrals imports erfc from scipy.special on every call
    monkeypatch.setattr(scipy.special, "erfc", unused)
    rng = np.random.default_rng(29)
    X = np.vstack([rng.random((40, 2)), [[0.0, 1.0], [1.0, 0.0]]])
    mu = MeasureSpec.unit_box(2)
    for sigma in (2.0**-4, 0.5, 4.0):
        g = GAUSS(sigma)
        rt2 = sigma * np.sqrt(2.0)
        xc = X - 0.5
        erf_form = (sigma * np.sqrt(2.0 * np.pi) / 2.0
                    * (erf((0.5 - xc) / rt2) + erf((0.5 + xc) / rt2)))
        assert np.array_equal(distribution._per_dim_integrals(X, g, mu), erf_form)
        weights = v_vector(X, g, mu, "product", normalize=False).values
        assert np.array_equal(weights, np.prod(erf_form, axis=1))
        assert np.allclose(v_matrix(X, g, mu).values, per_pair_v_matrix(X, g, mu),
                           rtol=1e-14, atol=0.0)


def test_weights_to_csv_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    weights = v_vector(rng.random((5, 2)), GAUSS(0.5), MeasureSpec.unit_box(2))
    path = tmp_path / "weights.csv"
    weights_to_csv(weights, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "index,v_value"
    values = np.array([float(line.split(",")[1]) for line in rows[1:]])
    assert np.array_equal(values, weights.values)
