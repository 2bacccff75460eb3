import numpy as np
import pytest
from oracles import duality_gap, paired_line_sign_test
from scipy.stats import binomtest


def _ensembles(vac_closer, vac_farther, same=0, k0=2.0, q0=0.0):
    """Paired (ks, qs) ensembles: the Acc line always sits 0.1 above the
    optimal slope; the Vac line sits 0.05 off (closer), 0.2 off in the
    intercept (farther) or on the Acc line (same)."""
    k_acc = np.full(vac_closer + vac_farther + same, k0 + 0.1)
    q_acc = np.full_like(k_acc, q0)
    k_vac = np.concatenate([np.full(vac_closer, k0 - 0.05),
                            np.full(vac_farther, k0 + 0.1),
                            np.full(same, k0 + 0.1)])
    q_vac = np.concatenate([np.full(vac_closer, q0),
                            np.full(vac_farther, q0 + 0.2),
                            np.full(same, q0)])
    return (k_acc, q_acc), (k_vac, q_vac)


def test_sign_test_identical_ensembles_pass():
    acc, vac = _ensembles(0, 0, same=100)
    result = paired_line_sign_test(acc, vac, 2.0, 0.0)
    assert (result.differing, result.vac_closer) == (0, 0)
    assert result.p == 1.0 and result.passed


def test_sign_test_even_split_passes():
    acc, vac = _ensembles(50, 50, same=7)
    result = paired_line_sign_test(acc, vac, 2.0, 0.0)
    assert (result.differing, result.vac_closer) == (100, 50)
    assert result.passed and result.p > 0.5


def test_sign_test_fails_when_vac_mostly_farther():
    acc, vac = _ensembles(30, 70, same=7)
    result = paired_line_sign_test(acc, vac, 2.0, 0.0)
    assert (result.differing, result.vac_closer) == (100, 30)
    assert not result.passed and result.p < 1e-3


@pytest.mark.parametrize("closer, differing", [(30, 100), (45, 109), (46, 109),
                                               (1, 10), (2, 10), (6, 10)])
def test_sign_test_p_is_exact_binomial_tail(closer, differing):
    acc, vac = _ensembles(closer, differing - closer)
    result = paired_line_sign_test(acc, vac, 2.0, 0.0)
    reference = binomtest(closer, differing, 0.5, alternative="less").pvalue
    assert result.p == pytest.approx(reference, rel=1e-12)
    assert result.passed == (reference >= 0.05)


def test_sign_test_rejects_unpaired_ensembles():
    acc, _ = _ensembles(3, 3)
    _, vac = _ensembles(2, 2)
    with pytest.raises(ValueError):
        paired_line_sign_test(acc, vac, 2.0, 0.0)


def test_duality_gap_is_zero_at_the_optimum_and_positive_elsewhere():
    # points 0 and 1 on a linear kernel, eps = 0.25, caps 2: the optimum is
    # beta = (-0.5, 0.5) with bias 0.25, both residuals on the tube's edge
    K = np.array([[0.0, 0.0], [0.0, 1.0]])
    args = (K, np.array([0.0, 1.0]), np.full(2, 0.25), np.full(2, -2.0), np.full(2, 2.0))
    assert duality_gap([-0.5, 0.5], 0.25, *args) == 0.0
    # beta = 0 leaves both residuals 0.25 outside the tube, each costing 2 * 0.25
    assert duality_gap([0.0, 0.0], 0.5, *args) == pytest.approx(1.0)
