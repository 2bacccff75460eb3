import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from cdfsvm.core import GKernelSpec, KernelSpec
from cdfsvm.distribution import MeasureSpec, VMatrix, v_matrix, v_vector
from cdfsvm.kernels import GramMatrix, cross_gram, gram

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# K(x, x') of one pair is the 1 x 1 cross-Gram

def test_k_eval_rbf_zero_distance():
    spec = KernelSpec.rbf(1.0)
    x = np.array([[0.3, 0.7]])
    assert cross_gram(spec, x, x)[0, 0] == 1.0


def test_k_eval_rbf_direct_substitution():
    # squared distance 2 with delta 1 -> exp(-1)
    spec = KernelSpec.rbf(1.0)
    val = cross_gram(spec, np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))[0, 0]
    assert val == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_k_eval_linear():
    spec = KernelSpec.linear()
    assert cross_gram(spec, np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))[0, 0] == 11.0


def test_k_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        cross_gram(KernelSpec.linear(), np.array([[1.0]]), np.array([[1.0, 2.0]]))


# G(u - x) of one pair is the weight of x under the empirical measure on u

def test_g_eval_step():
    # the step kernel is 1 iff u >= x coordinate-wise
    def weight(u, x):
        return v_vector(np.array([x]), GKernelSpec.step(), MeasureSpec.empirical([u]),
                        normalize=False).values[0]

    assert weight([1.0, 1.0], [0.0, 0.0]) == 1.0
    assert weight([1.0, -1.0], [0.0, 0.0]) == 0.0
    assert weight([0.0], [0.0]) == 1.0  # closed comparison


def test_g_eval_gaussian():
    g = GKernelSpec.gaussian(1.0)
    x = np.array([[0.25, 0.5]])
    assert v_vector(x, g, MeasureSpec.empirical(x), normalize=False).values[0] == 1.0
    val = v_vector(np.array([[0.0, 0.0]]), g, MeasureSpec.empirical([[1.0, 0.0]]),
                   normalize=False).values[0]
    assert val == pytest.approx(np.exp(-0.5), rel=1e-12)


def per_pair_rbf(X, Z, delta):
    """exp(-sum (x - z)^2 / (2 delta^2)) for each pair, from the direct difference."""
    return np.array([[np.exp(-np.sum((x - z) ** 2) / (2.0 * delta**2)) for z in Z]
                     for x in X])


def test_gram_single_row_rbf():
    G = gram(KernelSpec.rbf(0.7), np.array([[0.1, 0.9]]))
    assert G.values.shape == (1, 1) and G.values[0, 0] == 1.0


def test_gram_identical_rows_all_ones():
    G = gram(KernelSpec.rbf(0.7), np.array([[0.4, 0.2], [0.4, 0.2]]))
    assert np.array_equal(G.values, np.ones((2, 2)))


def test_gram_matches_elementwise_k_eval():
    rng = np.random.default_rng(3)
    X = rng.random((3, 2))
    manual = {"rbf": per_pair_rbf(X, X, 0.5),
              "linear": np.array([[float(x @ z) for z in X] for x in X])}
    for spec in (KernelSpec.rbf(0.5), KernelSpec.linear()):
        G = gram(spec, X)
        assert np.allclose(G.values, manual[spec.kind], atol=1e-12)


def test_gram_exact_symmetry_and_unit_diagonal():
    rng = np.random.default_rng(4)
    X = rng.random((12, 3))
    G = gram(KernelSpec.rbf(0.3), X).values
    assert np.array_equal(G, G.T)
    assert np.all(np.diag(G) == 1.0)
    assert np.all(G > 0.0) and np.all(G <= 1.0)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(5)
    for spec in (KernelSpec.rbf(1.0), KernelSpec.rbf(0.1), KernelSpec.linear()):
        X = rng.random((15, 3))
        eigs = np.linalg.eigvalsh(gram(spec, X).values)
        assert eigs.min() >= -1e-8


def test_gram_full_rank_on_bandwidth_grid():
    rng = np.random.default_rng(6)
    X = rng.random((10, 3))
    for k in range(-4, 5):
        G = gram(KernelSpec.rbf(2.0**k), X).values
        assert np.linalg.matrix_rank(G) == 10


def test_cross_gram_matches_gram_block():
    rng = np.random.default_rng(7)
    X, Z = rng.random((4, 2)), rng.random((5, 2))
    spec = KernelSpec.rbf(0.8)
    C = cross_gram(spec, X, Z)
    assert np.allclose(C, per_pair_rbf(X, Z, 0.8), atol=1e-12)


def test_linear_gram_keeps_its_samples_as_factor():
    # a read-only copy of X with values = XX' bit for bit, for any layout of
    # X; rbf Grams and hand-built ones have none
    X = np.random.default_rng(11).random((6, 9))[:, ::3]
    K = gram(KernelSpec.linear(), X)
    assert np.array_equal(K._factor, X) and not K._factor.flags.writeable
    assert np.array_equal(K.values, K._factor @ K._factor.T)
    X[0, 0] = 7.0
    assert K._factor[0, 0] != 7.0
    assert gram(KernelSpec.rbf(0.5), X)._factor is None
    assert GramMatrix(K.values, KernelSpec.linear())._factor is None


def one_expression_rbf(X, Z, delta):
    """The rbf cross-Gram as one numpy expression, allocating each step."""
    sx = np.sum(X * X, axis=1)
    sz = np.sum(Z * Z, axis=1)
    d2 = np.maximum(sx[:, None] + sz[None, :] - 2.0 * (X @ Z.T), 0.0)
    return np.exp(-d2 / (2.0 * delta**2))


def triu_mirror(values):
    return np.triu(values) + np.triu(values, 1).T


# rows are built in blocks of 16,384 entries: m = 1000 with t = 40 spans
# three cross-Gram blocks and its Gram 63 strips, both with a remainder,
# and t = 16,500 makes every cross-Gram block one row
@pytest.mark.parametrize("m, t, d", [(160, 40, 2), (480, 120, 10), (2000, 256, 2),
                                     (7, 1, 3), (1000, 40, 2), (5, 16_500, 2)])
@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 2.0])
def test_rbf_grams_bit_identical_to_one_expression(m, t, d, delta):
    # the in-place evaluation repeats the expression's operations in order
    rng = np.random.default_rng(m + t + d)
    X, Z = rng.normal(size=(m, d)), rng.normal(size=(t, d))
    spec = KernelSpec.rbf(delta)
    assert np.array_equal(cross_gram(spec, X, Z), one_expression_rbf(X, Z, delta))
    full = triu_mirror(one_expression_rbf(X, X, delta))
    np.fill_diagonal(full, 1.0)
    assert np.array_equal(gram(spec, X).values, full)
    # compared as int64 views, so the sign of zero counts: a linear Gram on
    # signed data
    linear = triu_mirror(X @ X.T).view(np.int64)
    assert np.array_equal(gram(KernelSpec.linear(), X).values.view(np.int64), linear)


def layout(name, rng, m, d):
    """An (m, d) sample set in the named memory layout or input type."""
    if name == "C":
        return rng.random((m, d))
    if name == "F":
        return np.asfortranarray(rng.random((m, d)))
    if name == "row-strided":
        return rng.random((2 * m, d))[::2]
    if name == "column-sliced":
        return rng.random((m, 2 * d))[:, ::2]
    if name == "reversed":
        return rng.random((m, d))[::-1]
    if name == "list":
        return rng.random((m, d)).tolist()
    return rng.integers(0, 4, (m, d))  # int


@pytest.mark.parametrize("m", [1, 2, 161, 480])
@pytest.mark.parametrize("name", ["C", "F", "row-strided", "column-sliced",
                                  "reversed", "list", "int"])
def test_grams_and_empirical_v_symmetric_as_built_for_any_layout(name, m):
    # the constructors would raise on an asymmetric matrix; the equalities
    # say what is checked
    for d in (1, 2, 10, 30, 64):
        rng = np.random.default_rng(1000 * m + d)
        X = layout(name, rng, m, d)
        refs = rng.random((40, d))
        for spec in (KernelSpec.rbf(0.5), KernelSpec.linear()):
            values = gram(spec, X).values
            assert np.array_equal(values, values.T), (spec.kind, d)
        values = v_matrix(X, GKernelSpec.gaussian(0.5), MeasureSpec.empirical(refs)).values
        assert np.array_equal(values, values.T), d


TWO_THREADS_CHILD = textwrap.dedent("""
    import numpy as np
    from cdfsvm.core import GKernelSpec, KernelSpec
    from cdfsvm.distribution import MeasureSpec, v_matrix
    from cdfsvm.kernels import GramMatrix, cross_gram, gram

    # every other column: without cross_gram's contiguous conversion numpy
    # copies each operand of X @ X.T and calls gemm, whose two-thread result
    # differs across the diagonal here
    X = np.random.default_rng(0).random((161, 60))[:, ::2]
    gram(KernelSpec.rbf(1.0), X)
    gram(KernelSpec.linear(), X)
    v_matrix(X, GKernelSpec.gaussian(0.5), MeasureSpec.empirical(X))
    for spec in (KernelSpec.rbf(1.0), KernelSpec.linear()):
        GramMatrix(cross_gram(spec, X, X), spec)
""")


def test_gram_symmetric_with_two_blas_threads_on_column_sliced_input(tmp_path):
    # the suite pins BLAS to one thread, so this runs in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", TWO_THREADS_CHILD], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_gram_peak_memory_below_two_and_a_quarter_matrices():
    # the product X X' with one block of scratch, symmetric as built, then
    # GramMatrix's read-only copy, checked block by block: about 2.03 m x m
    # floats at m = 600
    m = 600
    X = np.random.default_rng(9).random((m, 2))
    tracemalloc.start()
    try:
        gram(KernelSpec.rbf(0.5), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * m * m * 8


def symmetric_matrix_constructors():
    return (("Gram matrix", lambda values: GramMatrix(values, KernelSpec.linear())),
            ("V-matrix", lambda values: VMatrix(values, GKernelSpec.step(),
                                                MeasureSpec.point_mass())))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_and_v_matrices_refuse_non_finite_entries(bad):
    # m = 300 spans six row blocks; a symmetric pair of bad entries, and one
    # on the diagonal in the last block behind an asymmetry in the first
    pair = np.ones((300, 300))
    pair[7, 250] = pair[250, 7] = bad
    last = np.ones((300, 300))
    last[0, 1] = 2.0
    last[299, 299] = bad
    for what, construct in symmetric_matrix_constructors():
        for values in (pair, last):
            with pytest.raises(ValueError, match=f"^{what} must be finite$"):
                construct(values)


def test_v_matrix_refuses_a_negative_entry_in_any_block():
    # the sign test runs in the symmetry test's row-block pass: an asymmetry
    # is still reported first, a Gram matrix may hold negative entries, and
    # a V-matrix allocates its read-only copy and no m x m mask
    def v_matrix_of(values):
        return VMatrix(values, GKernelSpec.step(), MeasureSpec.point_mass())

    for i, j in ((0, 1), (120, 7), (299, 298)):
        values = np.ones((300, 300))
        values[i, j] = values[j, i] = -1.0
        with pytest.raises(ValueError, match="^V-matrix entries must be non-negative$"):
            v_matrix_of(values)
        assert np.array_equal(GramMatrix(values, KernelSpec.linear()).values, values)
        values[0, 2] = 2.0
        with pytest.raises(ValueError, match="^V-matrix must be exactly symmetric$"):
            v_matrix_of(values)
    values = np.ones((600, 600))  # the mask would be 1/8 of the copy
    tracemalloc.start()
    try:
        v_matrix_of(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * values.nbytes


def test_gram_and_v_matrices_refuse_asymmetry_in_any_block():
    for what, construct in symmetric_matrix_constructors():
        for i, j in ((0, 1), (120, 7), (299, 298)):
            values = np.ones((300, 300))
            values[i, j] = 1.0 + 2.0**-52
            with pytest.raises(ValueError, match=f"^{what} must be exactly symmetric$"):
                construct(values)
            values[j, i] = values[i, j]
            assert np.array_equal(construct(values).values, values)
