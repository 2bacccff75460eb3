import gc
import itertools
import json
import logging
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import complementarity_gaps, duality_gap, qp_reference, random_instance

from cdfsvm import solvers
from cdfsvm.core import (Dataset, GKernelSpec, KernelSpec, Scaler, decide, normalize,
                         subset)
from cdfsvm.datagen import GaussianSpec2D, gen_gaussian_2d
from cdfsvm.distribution import MeasureSpec, VMatrix, VWeights, v_matrix
from cdfsvm.interior import interior_point, snap
from cdfsvm.kernels import cross_gram, gram
from cdfsvm.modelsel import METHODS, WeightConfig, fit_full, kfold_split
from cdfsvm.solvers import (_MASK, _TAU, KernelModel, PairwiseResult,
                            SingularSystemError, SolverConfig, _pair_loop,
                            _recover_bias, _solve_pairwise, _switch_budget,
                            dual_objective, fit_csvm,
                            fit_eps_l1_svm, fit_eps_l1_vsvm, fit_idlssvm,
                            fit_lssvm, fit_vsvm, load_model, predict,
                            save_model, _density_weights)

TIGHT = dict(tolerance=1e-8, max_iter=300_000)


def make_dataset(X, labels, name=""):
    feats, scaler = normalize(np.asarray(X, dtype=float))
    return Dataset(feats, np.asarray(labels), scaler, name)


def make_weights(values):
    values = np.asarray(values, dtype=float)
    return VWeights(values / values.max(), "product", GKernelSpec.gaussian(1.0),
                    MeasureSpec.point_mass(), float(values.max()))


def random_fit(rng, **cfg_kw):
    X, labels, v, gamma, epsilon = random_instance(rng, m_max=25, d_max=3)
    data = make_dataset(X, labels)
    spec = (KernelSpec.linear() if rng.random() < 0.25
            else KernelSpec.rbf(float(2.0 ** rng.uniform(-2, 2))))
    K = gram(spec, data.features)
    cfg = SolverConfig(gamma=gamma, epsilon=epsilon, **cfg_kw)
    model = fit_eps_l1_vsvm(data, K, make_weights(v), cfg)
    return data, K, model, cfg


# ---------------------------------------------------------------------------
# weighted tube solver

def test_two_point_tube_analytic():
    data = make_dataset([[0.0], [1.0]], [0, 1])
    K = gram(KernelSpec.linear(), data.features)
    model = fit_eps_l1_vsvm(data, K, VWeights.ones(2),
                            SolverConfig(gamma=1e6, epsilon=0.25, **TIGHT))
    # eta = 1, so t* = (1 - 2*eps)/eta = 0.5 and W* = 0.125
    assert np.allclose(model.coefficients, [-0.5, 0.5], atol=1e-8)
    obj = dual_objective(model.coefficients, data.labels.astype(float), 0.25,
                         K.values)
    assert obj == pytest.approx(0.125, abs=1e-9)
    # both residuals sit on the tube boundary
    assert np.allclose(predict(model, data.features), [0.25, 0.75], atol=1e-8)


def test_matches_projected_gradient_oracle_small():
    rng = np.random.default_rng(20)
    for _ in range(25):
        X, labels, v, gamma, epsilon = random_instance(rng)
        data = make_dataset(X, labels)
        spec = (KernelSpec.linear() if rng.random() < 0.25
                else KernelSpec.rbf(float(2.0 ** rng.uniform(-2, 2))))
        K = gram(spec, data.features)
        model = fit_eps_l1_vsvm(data, K, make_weights(v),
                                SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT))
        ours = dual_objective(model.coefficients, data.labels.astype(float),
                              epsilon, K.values)
        ref, _, _ = qp_reference(K.values, data.labels.astype(float), epsilon,
                                 gamma * make_weights(v).values)
        assert ours == pytest.approx(ref, abs=1e-6)


def test_all_ones_weights_equal_unweighted_path():
    rng = np.random.default_rng(21)
    X, labels, _, gamma, epsilon = random_instance(rng, m_max=15)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(0.7), data.features)
    cfg = SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT)
    weighted = fit_eps_l1_vsvm(data, K, VWeights.ones(data.m), cfg)
    plain = fit_eps_l1_svm(data, K, cfg)
    assert np.allclose(weighted.coefficients, plain.coefficients, atol=1e-8)
    assert weighted.intercept == pytest.approx(plain.intercept, abs=1e-8)
    assert plain.method == "eps-l1svm" and plain.v_provenance is None


def test_duplicated_points_halved_weights_same_objective():
    rng = np.random.default_rng(22)
    X, labels, v, gamma, epsilon = random_instance(rng, m_max=8)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(1.0), data.features)
    base = fit_eps_l1_vsvm(data, K, make_weights(v),
                           SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT))
    obj_base = dual_objective(base.coefficients, data.labels.astype(float),
                              epsilon, K.values)

    data2 = Dataset(np.vstack([data.features, data.features]),
                    np.concatenate([data.labels, data.labels]), data.scaler)
    K2 = gram(KernelSpec.rbf(1.0), data2.features)
    v_norm = make_weights(v).values
    caps_halved = np.concatenate([v_norm, v_norm]) / 2.0
    w2 = VWeights(caps_halved / caps_halved.max(), "product",
                  GKernelSpec.gaussian(1.0), MeasureSpec.point_mass())
    # halved caps are restored through gamma since weights renormalize to max 1
    gamma2 = gamma * caps_halved.max()
    dup = fit_eps_l1_vsvm(data2, K2, w2,
                          SolverConfig(gamma=gamma2, epsilon=epsilon, **TIGHT))
    obj_dup = dual_objective(dup.coefficients, data2.labels.astype(float),
                             epsilon, K2.values)
    assert obj_dup == pytest.approx(obj_base, abs=1e-6)


def test_wide_tube_gives_zero_coefficients():
    data = make_dataset([[0.1], [0.5], [0.9], [0.3]], [0, 1, 1, 0])
    K = gram(KernelSpec.rbf(1.0), data.features)
    model = fit_eps_l1_svm(data, K, SolverConfig(gamma=4.0, epsilon=1.0, **TIGHT))
    assert np.array_equal(model.coefficients, np.zeros(4))
    # bias must be consistent with every sample inside the tube
    assert 1.0 - 1.0 <= model.intercept <= 0.0 + 1.0
    assert model.intercept == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(predict(model, data.features), np.full(4, model.intercept))


def test_rejects_bad_inputs():
    data = make_dataset([[0.0], [1.0]], [0, 1])
    K = gram(KernelSpec.linear(), data.features)
    bad_v = VWeights.ones(3)
    with pytest.raises(ValueError):
        fit_eps_l1_vsvm(data, K, bad_v, SolverConfig(gamma=1.0))
    single = make_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValueError):
        fit_eps_l1_svm(single, gram(KernelSpec.linear(), single.features),
                       SolverConfig(gamma=1.0))
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, epsilon=-0.1)
    with pytest.raises(TypeError, match="interior_first"):
        SolverConfig(gamma=1.0, interior_first=1)


def test_convergence_flag_on_iteration_cap():
    rng = np.random.default_rng(23)
    X = rng.random((30, 2))
    labels = (X[:, 0] > 0.5).astype(int)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(0.5), data.features)
    model = fit_eps_l1_svm(data, K, SolverConfig(gamma=64.0, epsilon=0.0625,
                                                 tolerance=1e-12, max_iter=3))
    assert not model.converged
    full = fit_eps_l1_svm(data, K, SolverConfig(gamma=64.0, epsilon=0.0625))
    assert full.converged


# ---------------------------------------------------------------------------
# KKT structure

def test_kkt_structure_random_fits():
    rng = np.random.default_rng(25)
    for _ in range(15):
        data, K, model, cfg = random_fit(rng, **TIGHT)
        coef = model.coefficients
        assert abs(coef.sum()) < 1e-8
        assert np.all(np.abs(coef) <= model.caps + 1e-9)
        residual = predict(model, data.features) - data.labels
        free_gap, cap_shortfall = complementarity_gaps(
            coef, model.caps, -residual, cfg.epsilon)
        assert free_gap <= 1e-6 and cap_shortfall <= 1e-6
        # strictly-inside-tube samples carry no coefficient
        inside = np.abs(residual) < cfg.epsilon - 1e-6
        assert np.all(np.abs(coef[inside]) <= 1e-9)


def test_monotone_ascent(monkeypatch):
    rng = np.random.default_rng(26)
    X = rng.random((25, 2))
    labels = (X.sum(axis=1) > 1.0).astype(int)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(0.5), data.features)
    target = data.labels.astype(float)
    gains = []
    pair_argmax = solvers._pair_argmax

    def recorded(*args):
        t_new, gain = pair_argmax(*args)
        gains.append(gain)
        return t_new, gain

    # the engine looks the pair step up as a module global on every step
    monkeypatch.setattr(solvers, "_pair_argmax", recorded)
    res = _solve_pairwise(K.values, target, np.full(25, 0.125),
                          -np.full(25, 4.0), np.full(25, 4.0),
                          tolerance=1e-8, max_iter=100_000)
    assert res.converged
    # within the switch budget, so every change of beta is a pair step
    assert res.interior_iterations == 0 and res.iterations < _switch_budget(25)
    # the last iteration only finds the KKT gap closed; each earlier one steps
    assert len(gains) == res.iterations - 1
    assert np.all(np.asarray(gains) > 0.0)  # every pair update strictly increases the dual
    # the dual is 0 at beta = 0, so the recorded gains sum to its final value
    assert math.fsum(gains) == pytest.approx(
        dual_objective(res.beta, target, 0.125, K.values), rel=1e-12)


# ---------------------------------------------------------------------------
# engine invariants on degenerate instances

DEGENERATE = ("duplicate_rows", "rank1_linear", "eps_zero", "two_member_class",
              "equal_weights", "csvm_boxes")


@st.composite
def engine_instances(draw, family):
    """(K, target, eps, lo, hi) for one degenerate family of the engine's QP."""
    m = draw(st.integers(4, 10))
    d = 1 if family == "rank1_linear" else draw(st.integers(1, 3))
    X = draw(arrays(float, (m, d), elements=st.floats(0.0, 1.0)))
    if family == "duplicate_rows":  # eta_ij = 0 for every repeated pair
        k = draw(st.integers(1, m // 2))
        X[m - k:] = X[:k]
    if family == "two_member_class":
        labels = np.zeros(m)
        labels[draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))] = 1.0
    else:
        labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=m, max_size=m)))
        labels[:2] = [0.0, 1.0]
    width = (None if family == "rank1_linear"
             else draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])))
    gamma = draw(st.sampled_from([2.0**k for k in range(-3, 5)]))
    v = eps = None
    if family not in ("csvm_boxes", "equal_weights"):
        v = draw(arrays(float, m, elements=st.floats(0.15, 1.0)))
    if family not in ("csvm_boxes", "eps_zero"):
        eps = draw(st.sampled_from([0.0625, 0.125, 0.25]))
    return engine_problem(family, X, labels, width, gamma, v, eps)


def seeded_engine_instance(rng, family):
    """``engine_instances`` drawn from a numpy generator.

    Hypothesis mixes literals from the package source into its derandomized
    draws, so its examples move when a constant there changes; these do not.
    Half the samples sit on a coarse grid, so rows and kernel entries tie.
    """
    m = int(rng.integers(4, 11))
    d = 1 if family == "rank1_linear" else int(rng.integers(1, 4))
    X = rng.random((m, d)) if rng.random() < 0.5 else rng.integers(0, 5, (m, d)) / 4.0
    if family == "duplicate_rows":
        k = int(rng.integers(1, m // 2 + 1))
        X[m - k:] = X[:k]
    if family == "two_member_class":
        labels = np.zeros(m)
        labels[rng.choice(m, 2, replace=False)] = 1.0
    else:
        labels = rng.integers(0, 2, m).astype(float)
        labels[:2] = [0.0, 1.0]
    width = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
    gamma = 2.0 ** int(rng.integers(-3, 5))
    eps = float(rng.choice([0.0625, 0.125, 0.25]))
    return engine_problem(family, X, labels, width, gamma, rng.uniform(0.15, 1.0, m), eps)


def engine_problem(family, X, labels, width, gamma, v, eps):
    """(K, target, eps, lo, hi) of one family from its drawn parts; a family
    that fixes the kernel, the weights or eps ignores the part drawn for it."""
    m = X.shape[0]
    spec = KernelSpec.linear() if family == "rank1_linear" else KernelSpec.rbf(width)
    K = gram(spec, X).values
    if family == "csvm_boxes":
        z = 2.0 * labels - 1.0
        return (K, z, np.zeros(m), np.where(z < 0.0, -gamma, 0.0),
                np.where(z > 0.0, gamma, 0.0))
    if family == "equal_weights":
        v = np.ones(m)
    if family == "eps_zero":
        eps = 0.0
    return K, labels, np.full(m, eps), -gamma * v, gamma * v


def kkt_gaps(res, K, target, eps, lo, hi):
    """Largest violation of the KKT sign conditions at the returned bias.

    With residual rho = target - K beta - bias, a coefficient that can still
    grow needs rho - eps_sign <= 0 and one that can still shrink needs
    eps_sign - rho <= 0 (eps_sign is the |beta| subgradient); together they
    are complementary slackness: zero coefficients inside the tube, free
    ones on its edge, bound ones outside. Coefficients within 1e-9 of a
    bound count as at the bound.
    """
    beta = res.beta
    rho = target - K @ beta - res.bias
    edge = 1e-9 * np.maximum(hi - lo, 1.0)
    up = np.where(beta >= 0.0, rho - eps, rho + eps)[beta < hi - edge]
    dn = np.where(beta > 0.0, eps - rho, -eps - rho)[beta > lo + edge]
    return max(up.max(initial=-np.inf), dn.max(initial=-np.inf))


@pytest.mark.parametrize("family", DEGENERATE)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_invariants_on_degenerate_instances(family, data):
    K, target, eps, lo, hi = data.draw(engine_instances(family))
    res = _solve_pairwise(K, target, eps, lo, hi)
    beta = res.beta
    assert np.all(beta >= lo - 1e-9) and np.all(beta <= hi + 1e-9)
    assert abs(float(beta.sum())) < 1e-8 * max(1.0, float(np.abs(beta).max()))
    if res.converged:
        assert res.violation < 1e-4
        assert kkt_gaps(res, K, target, eps, lo, hi) < 1e-4 + 1e-7


@pytest.mark.parametrize("family", DEGENERATE)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_oracle_on_degenerate_instances(family, data):
    K, target, eps, lo, hi = data.draw(engine_instances(family))
    res = _solve_pairwise(K, target, eps, lo, hi, **TIGHT)
    ours = dual_objective(res.beta, target, eps[0], K)
    ref, _, _ = qp_reference(K, target, eps[0], hi, caps_neg=-lo)
    assert ours == pytest.approx(ref, abs=1e-6)


def large_gamma_tube_cell(seed=10007, fold=0):
    """One fold of a 5-fold CV cell on gauss2d n=200: rbf delta=0.25,
    default weights; fitted at gamma=256 and eps=2^-4."""
    data = gen_gaussian_2d(GaussianSpec2D(n=200, seed=seed))
    train_idx, _ = kfold_split(200, 5, seed, labels=data.labels)[fold]
    train = subset(data, train_idx)
    K = gram(KernelSpec.rbf(0.25), train.features)
    weights = WeightConfig().weights_for(train.features, data.features, 0.5)
    return train, K, weights


def test_default_tolerance_converges_on_large_gamma_tube_cell():
    # maximal-violating-pair selection stopped here at max_iter
    train, K, weights = large_gamma_tube_cell()
    model = fit_eps_l1_vsvm(train, K, weights,
                            SolverConfig(gamma=256.0, epsilon=2.0**-4))
    assert model.converged


def tube_cell_args(train, K, weights):
    """The engine's (K, target, eps, lo, hi) for a cell at gamma=256, eps=2^-4."""
    caps = 256.0 * weights.values
    return (K.values, train.labels.astype(float), np.full(train.m, 2.0**-4),
            -caps, caps)


def test_switched_fit_converges_where_the_pair_loop_hits_max_iter(monkeypatch):
    # fold 4 of the seed-20014 cell: the pair loop alone stops at max_iter
    # with violation 5.5e-4
    train, K, weights = large_gamma_tube_cell(seed=20014, fold=4)
    cfg = SolverConfig(gamma=256.0, epsilon=2.0**-4)
    results = []
    engine = solvers._solve_pairwise

    def recorded(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "_solve_pairwise", recorded)
    model = fit_eps_l1_vsvm(train, K, weights, cfg)
    (res,) = results
    assert model.converged and res.status == "converged"
    assert res.interior_iterations > 0 and res.iterations < cfg.max_iter
    args = tube_cell_args(train, K, weights)
    cold = cold_loop(*args, max_iter=cfg.max_iter)
    assert cold.status == "max_iter"
    assert (dual_objective(model.coefficients, args[1], cfg.epsilon, K.values)
            >= dual_objective(cold.beta, args[1], cfg.epsilon, K.values))


def test_switched_fit_has_no_larger_duality_gap_than_the_pair_loop():
    train, K, weights = large_gamma_tube_cell()
    args = tube_cell_args(train, K, weights)
    hybrid, cold = _solve_pairwise(*args), cold_loop(*args)
    assert hybrid.interior_iterations > 0 and hybrid.converged and cold.converged

    def relative_gap(res):
        W = dual_objective(res.beta, args[1], 2.0**-4, K.values)
        return duality_gap(res.beta, res.bias, *args) / max(1.0, abs(W))

    assert 0.0 <= relative_gap(hybrid) <= relative_gap(cold)


def test_engine_logs_one_debug_line_per_call(caplog):
    train, K, weights = large_gamma_tube_cell()
    args = tube_cell_args(train, K, weights)
    with caplog.at_level(logging.INFO, logger="cdfsvm.solvers"):
        _solve_pairwise(*args)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="cdfsvm.solvers"):
        res = _solve_pairwise(*args)
        quick = _solve_pairwise(*args, max_iter=3)
        first = _solve_pairwise(*args, interior_first=True)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 3
    budget = _switch_budget(train.m)
    assert caplog.records[0].getMessage() == (
        f"pairwise engine: m={train.m}, {budget} pair steps before the switch, "
        f"{res.interior_iterations} interior-point iterations, "
        f"{res.iterations - budget} polish steps, converged, "
        f"violation {res.violation:.3g}")
    assert caplog.records[1].getMessage() == (
        f"pairwise engine: m={train.m}, 3 pair steps before the switch, "
        f"0 interior-point iterations, 0 polish steps, max_iter, "
        f"violation {quick.violation:.3g}")
    assert caplog.records[2].getMessage() == (
        f"pairwise engine: m={train.m}, 0 pair steps before the switch, "
        f"{first.interior_iterations} interior-point iterations, "
        f"{first.iterations} polish steps, converged, "
        f"violation {first.violation:.3g}")


# ---------------------------------------------------------------------------
# engine parity: the loop and the pair step as first written, kept here as
# the reference that the cached-eta engine must match bit for bit

def reference_pair_argmax(t0, s, t_lo, t_hi, ei, ej, g0, eta):
    """The pair step as first written: the knot list built by a comprehension."""
    knots = [k for k in (0.0, s) if t_lo < k < t_hi]
    if len(knots) == 2 and s < 0.0:
        knots.reverse()
    knots.append(t_hi)
    u = t_lo
    for w in knots:
        mid = 0.5 * (u + w)
        slope0 = g0 - (ei if mid >= 0.0 else -ei) + (ej if s - mid >= 0.0 else -ej)
        if eta > 0.0:
            t_star = min(max(t0 + slope0 / eta, u), w)
        else:
            t_star = w if slope0 > 0.0 else u
        if t_star < w:
            break
        u = w
    step = t_star - t0
    gain = (g0 * step - ei * (abs(t_star) - abs(t0))
            - ej * (abs(s - t_star) - abs(s - t0)) - 0.5 * eta * step * step)
    return t_star, gain


def reference_solve_pairwise(K, target, eps, lo, hi, tolerance=1e-4,
                             max_iter=100_000):
    """The engine loop as first written: eta rebuilt on every step and
    rows of K indexed from the array."""
    m = target.size
    r = np.array(target, dtype=float)  # target - K@beta, kept incrementally
    edge = 1e-12 * np.maximum(hi - lo, 1.0)
    hi_edge = hi - edge
    lo_edge = lo + edge
    half_diag = 0.5 * np.diagonal(K)

    up_off = -eps - _MASK * (hi_edge <= 0.0)
    dn_off = -eps - _MASK * (lo_edge >= 0.0)
    beta = [0.0] * m
    eps_l, lo_l, hi_l = eps.tolist(), lo.tolist(), hi.tolist()
    lo_edge_l, hi_edge_l, half_diag_l = lo_edge.tolist(), hi_edge.tolist(), half_diag.tolist()

    up_m = np.empty(m)
    dn_m = np.empty(m)
    eta = np.empty(m)
    tmp = np.empty(m)
    zero = np.zeros(m)
    half_tau = np.full(m, 0.5 * _TAU)
    add, subtract, multiply, divide, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum)

    status = "max_iter"
    violation = np.inf
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        add(r, up_off, out=up_m)
        subtract(dn_off, r, out=dn_m)
        i = up_m.argmax()
        up_i = up_m[i]
        violation = up_i + dn_m[dn_m.argmax()]
        if violation < tolerance:
            status = "converged"
            break

        # second-order choice of j: the largest predicted gain
        # (up_i + dn_j)^2 / eta_ij among the j that violate KKT with i;
        # eta holds eta_ij / 2 = (K_ii + K_jj) / 2 - K_ij, which has the
        # same argmax
        Ki = K[i]
        half_Kii = half_diag_l[i]
        subtract(half_diag, Ki, out=eta)
        add(eta, half_Kii, out=eta)
        maximum(eta, half_tau, out=eta)
        add(dn_m, up_i, out=tmp)
        maximum(tmp, zero, out=tmp)
        multiply(tmp, tmp, out=tmp)
        divide(tmp, eta, out=tmp)
        j = tmp.argmax()

        t0 = beta[i]
        s = t0 + beta[j]
        t_lo = max(lo_l[i], s - hi_l[j])
        t_hi = min(hi_l[i], s - lo_l[j])
        eta_ij = max(2.0 * (half_Kii + half_diag_l[j] - Ki.item(j)), 0.0)
        g0 = r.item(i) - r.item(j)
        t_new, gain = reference_pair_argmax(t0, s, t_lo, t_hi, eps_l[i], eps_l[j], g0, eta_ij)
        if gain <= 0.0 or t_new == t0:
            status = "stalled"  # numerically stalled at a kink; KKT gap stays as recorded
            break
        d = t_new - t0
        beta[i] = t_new
        beta[j] = s - t_new
        subtract(Ki, K[j], out=tmp)
        multiply(tmp, d, out=tmp)
        subtract(r, tmp, out=r)
        for idx in (i, j):
            b = beta[idx]
            e = eps_l[idx]
            up_off[idx] = (-e if b >= 0.0 else e) - (_MASK if b >= hi_edge_l[idx] else 0.0)
            dn_off[idx] = (e if b > 0.0 else -e) - (_MASK if b <= lo_edge_l[idx] else 0.0)

    beta = np.array(beta)
    bias = _recover_bias(beta, target - r, target, eps, lo, hi, edge)
    return PairwiseResult(beta=beta, bias=bias, status=status,
                          iterations=iterations, violation=float(violation))


def cold_loop(K, target, eps, lo, hi, **kw):
    """The pair loop alone, from beta = 0."""
    return _pair_loop(K, target, eps, lo, hi, np.zeros(target.size), **kw)


def assert_same_result(res, ref):
    assert np.array_equal(res.beta, ref.beta)
    assert ((res.bias, res.iterations, res.converged, res.violation)
            == (ref.bias, ref.iterations, ref.converged, ref.violation))


@pytest.mark.parametrize("family", DEGENERATE)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_matches_reference_loop_on_degenerate_instances(family, data):
    args = data.draw(engine_instances(family))
    assert_same_result(cold_loop(*args), reference_solve_pairwise(*args))


@pytest.mark.parametrize("family", DEGENERATE)
def test_engine_matches_reference_loop_on_seeded_instances(family):
    rng = np.random.default_rng(DEGENERATE.index(family) + 31)
    for _ in range(40):
        args = seeded_engine_instance(rng, family)
        assert_same_result(cold_loop(*args), reference_solve_pairwise(*args))
        assert_same_result(cold_loop(*args, **TIGHT),
                           reference_solve_pairwise(*args, **TIGHT))


def test_engine_matches_reference_loop_on_large_gamma_tube_cell():
    # run to convergence, then capped at max_iter
    train, K, weights = large_gamma_tube_cell()
    caps = 256.0 * weights.values
    args = (K.values, train.labels.astype(float), np.full(train.m, 2.0**-4), -caps, caps)
    res = cold_loop(*args)
    assert res.converged
    assert_same_result(res, reference_solve_pairwise(*args))
    capped = cold_loop(*args, max_iter=res.iterations // 2)
    assert not capped.converged and capped.iterations == res.iterations // 2
    assert_same_result(capped, reference_solve_pairwise(*args, max_iter=res.iterations // 2))


@pytest.mark.parametrize("family", DEGENERATE)
def test_engine_is_the_pair_loop_within_the_switch_budget(family):
    # a fit that ends within the budget, and any call capped at it, never
    # reaches the interior point
    rng = np.random.default_rng(DEGENERATE.index(family) + 31)
    for _ in range(40):
        args = seeded_engine_instance(rng, family)
        budget = _switch_budget(args[1].size)
        for kw in ({}, TIGHT):
            cold, res = cold_loop(*args, **kw), _solve_pairwise(*args, **kw)
            if cold.iterations <= budget and cold.status != "max_iter":
                assert_same_result(res, cold)
                assert res.interior_iterations == 0
            else:
                assert res.interior_iterations > 0 and res.iterations > budget
            capped = dict(kw, max_iter=budget)
            assert_same_result(_solve_pairwise(*args, **capped), cold_loop(*args, **capped))


def test_engine_is_the_pair_loop_up_to_the_budget_on_large_gamma_tube_cell():
    train, K, weights = large_gamma_tube_cell()
    args = tube_cell_args(train, K, weights)
    budget = _switch_budget(train.m)
    res = _solve_pairwise(*args, max_iter=budget)
    assert res.status == "max_iter" and res.interior_iterations == 0
    assert_same_result(res, cold_loop(*args, max_iter=budget))


def assert_same_but_the_budget(first, cold, m):
    """``first`` is ``cold`` bit for bit, less the budget's pair steps."""
    assert np.array_equal(first.beta, cold.beta)
    assert ((first.bias, first.status, first.violation, first.interior_iterations)
            == (cold.bias, cold.status, cold.violation, cold.interior_iterations))
    assert first.iterations == cold.iterations - _switch_budget(m)


def test_interior_first_skips_the_budget_on_large_gamma_tube_cell():
    train, K, weights = large_gamma_tube_cell()
    args = tube_cell_args(train, K, weights)
    cold = _solve_pairwise(*args)
    assert cold.interior_iterations > 0
    assert_same_but_the_budget(_solve_pairwise(*args, interior_first=True), cold, train.m)
    # the public fit carries the flag to the engine and records both counts
    cfg = SolverConfig(gamma=256.0, epsilon=2.0**-4)
    models = [fit_eps_l1_vsvm(train, K, weights, replace(cfg, interior_first=first))
              for first in (False, True)]
    assert [(m.iterations, m.interior_iterations) for m in models] == [
        (cold.iterations, cold.interior_iterations),
        (cold.iterations - _switch_budget(train.m), cold.interior_iterations)]
    assert np.array_equal(models[0].coefficients, models[1].coefficients)


def test_interior_first_matches_every_degenerate_instance_that_switches():
    # a fit that switches cold runs the same interior point, snap and polish
    # when it starts there; one the pair loop solves still ends converged,
    # feasible and zero-sum
    switched = 0
    for family in DEGENERATE:
        rng = np.random.default_rng(DEGENERATE.index(family) + 31)
        for _ in range(40):
            K, target, eps, lo, hi = args = seeded_engine_instance(rng, family)
            for kw in ({}, TIGHT):
                cold = _solve_pairwise(*args, **kw)
                first = _solve_pairwise(*args, interior_first=True, **kw)
                assert first.interior_iterations > 0
                if cold.interior_iterations > 0:
                    switched += 1
                    assert_same_but_the_budget(first, cold, target.size)
                    continue
                assert cold.converged and first.converged
                beta = first.beta
                assert np.all(beta >= lo - 1e-9) and np.all(beta <= hi + 1e-9)
                assert abs(float(beta.sum())) < 1e-8 * max(1.0, float(np.abs(beta).max()))
    assert switched == 17


def test_interior_first_is_ignored_where_no_fit_switches():
    # with max_iter within the budget the flag leaves the pair loop alone
    train, K, weights = large_gamma_tube_cell()
    args = tube_cell_args(train, K, weights)
    budget = _switch_budget(train.m)
    first = _solve_pairwise(*args, max_iter=budget, interior_first=True)
    assert first.interior_iterations == 0
    assert_same_result(first, cold_loop(*args, max_iter=budget))
    # and from m = 635 on the budget reaches the default max_iter
    rng = np.random.default_rng(635)
    for m in (634, 635):
        X = rng.standard_normal((m, 2))
        caps = np.full(m, 0.05)
        args = (gram(KernelSpec.rbf(1.0), X).values, np.sign(X[:, 0]), np.zeros(m),
                -caps, caps)
        first = _solve_pairwise(*args, interior_first=True)
        if m == 634:
            assert first.interior_iterations > 0
        else:
            assert first.interior_iterations == 0 and first.converged
            assert_same_result(first, _solve_pairwise(*args))


def test_fit_record_of_every_method(tmp_path):
    # the dual fits record the engine's counts, the closed-form fits leave
    # 0, and a version-3 model file keeps both
    data = gen_gaussian_2d(GaussianSpec2D(n=40, seed=38))
    params = dict(gamma=2.0, delta=0.5, epsilon=0.25, sigma=0.5)
    for method in METHODS:
        model = fit_full(data, method, params, "rbf", WeightConfig())
        if model.caps is None:
            assert (model.iterations, model.interior_iterations) == (0, 0)
        else:
            assert model.iterations >= 1 and model.interior_iterations == 0
        save_model(replace(model, interior_iterations=5), tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert (loaded.iterations, loaded.interior_iterations) == (model.iterations, 5)


def test_switch_budget_grows_with_m_and_spares_large_fits():
    budgets = [_switch_budget(m) for m in range(1, 3001)]
    assert all(a <= b for a, b in zip(budgets, budgets[1:]))
    # the score workload's m = 2,000 fit never switches at the default max_iter
    assert _switch_budget(2000) > SolverConfig(gamma=1.0).max_iter


def test_switch_budget_leaves_the_held_out_labels_of_large_gamma_tube_cell(monkeypatch):
    data = gen_gaussian_2d(GaussianSpec2D(n=200, seed=10007))
    _, test_idx = kfold_split(200, 5, 10007, labels=data.labels)[0]
    held_out = subset(data, test_idx).features
    train, K, weights = large_gamma_tube_cell()
    cfg = SolverConfig(gamma=256.0, epsilon=2.0**-4)
    results = []
    engine = solvers._solve_pairwise

    def recorded(*args, **kwargs):
        results.append(engine(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "_solve_pairwise", recorded)
    labels = [decide(predict(fit_eps_l1_vsvm(train, K, weights, cfg), held_out))]
    monkeypatch.setattr(solvers, "_switch_budget", lambda m: 25 * m)
    labels.append(decide(predict(fit_eps_l1_vsvm(train, K, weights, cfg), held_out)))
    now, before = results
    assert now.interior_iterations > 0 and before.interior_iterations > 0
    assert now.iterations < before.iterations
    assert now.converged and before.converged
    assert np.array_equal(labels[0], labels[1])


@pytest.mark.parametrize("at", [1, 4])
def test_singular_newton_system_keeps_the_best_iterate(monkeypatch, at):
    # np.linalg.solve raises LinAlgError on the at-th predictor solve (two
    # right-hand sides) or the at-th corrector solve (one)
    train, K, weights = large_gamma_tube_cell()
    *_, lo, hi = args = tube_cell_args(train, K, weights)
    full, full_iterations = interior_point(*args)
    solve = np.linalg.solve

    def failing_on(site):
        calls = {1: 0, 2: 0}

        def failing(M, b):
            calls[b.ndim] += 1
            if b.ndim == site and calls[b.ndim] == at:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(M, b)
        return failing

    kept = []
    for site in (2, 1):  # the predictor's solve, then the corrector's
        monkeypatch.setattr(np.linalg, "solve", failing_on(site))
        beta, iterations = interior_point(*args)
        assert iterations == at < full_iterations
        kept.append(beta)
        start = snap(beta, lo, hi)
        assert np.all(start >= lo) and np.all(start <= hi)
        assert abs(float(start.sum())) < 1e-12 * max(1.0, float(np.abs(start).max()))
        monkeypatch.setattr(np.linalg, "solve", failing_on(site))
        res = _solve_pairwise(*args)
        assert res.converged and res.interior_iterations == at
        assert res.iterations > _switch_budget(train.m)
    # both sites keep the iterate the failed step started from: the start
    # point (beta = 0 in these symmetric boxes) when the first step fails
    assert np.array_equal(kept[0], kept[1])
    assert not np.array_equal(kept[0], full)
    if at == 1:
        assert not kept[0].any()


@pytest.mark.parametrize("family", DEGENERATE)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_engine_status_and_duality_gap_on_degenerate_instances(family, data):
    args = data.draw(engine_instances(family))
    tolerance = data.draw(st.sampled_from([1e-12, 1e-4]))
    max_iter = data.draw(st.sampled_from([100_000, 300, 5]))
    res = _solve_pairwise(*args, tolerance=tolerance, max_iter=max_iter)
    assert res.converged == (res.status == "converged") == (res.violation < tolerance)
    if not res.converged:  # a fit may also converge on its last step
        assert (res.status == "max_iter") == (res.iterations == max_iter)
        assert res.status in ("max_iter", "stalled")
    assert 1 <= res.iterations <= max_iter
    # the certificate holds for every feasible beta, switched or not
    assert duality_gap(res.beta, res.bias, *args) >= -1e-9


@pytest.mark.parametrize("family", DEGENERATE)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_switched_path_matches_oracle_on_degenerate_instances(family, data):
    # the path a fit takes after the switch, forced on every instance: the
    # snapped interior point is feasible, and the pair loop finishes it
    K, target, eps, lo, hi = args = data.draw(engine_instances(family))
    beta, iterations = interior_point(*args)
    start = snap(beta, lo, hi)
    assert iterations > 0
    assert np.all(start >= lo) and np.all(start <= hi)
    assert abs(float(start.sum())) < 1e-12 * max(1.0, float(np.abs(start).max()))
    res = _pair_loop(*args, start, **TIGHT)
    assert duality_gap(res.beta, res.bias, *args) >= -1e-9
    ref, _, _ = qp_reference(K, target, eps[0], hi, caps_neg=-lo)
    assert dual_objective(res.beta, target, eps[0], K) == pytest.approx(ref, abs=1e-6)


def test_pair_argmax_matches_reference_on_edge_cases():
    # boxes with 0 and s inside, at either end and outside; t0 at the ends and
    # on each kink; a flat (eta = 0), tau-flat and curved restriction; with
    # and without the |b| kinks (eps = 0 and eps > 0)
    boxes = [(-1.0, 1.0), (-1.0, -0.25), (0.25, 1.0), (0.0, 1.0), (-1.0, 0.0),
             (0.5, 0.5), (0.0, 0.0)]
    checked = 0
    for t_lo, t_hi in boxes:
        mid = 0.5 * (t_lo + t_hi)
        for s in dict.fromkeys((0.0, t_lo, t_hi, mid, -0.5, 0.5, -2.0, 2.0)):
            for t0 in dict.fromkeys((t_lo, t_hi, mid, 0.0, s)):
                if not t_lo <= t0 <= t_hi:
                    continue
                for g0, ei, ej, eta in itertools.product(
                        (-1.5, 0.0, 0.3, 2.0), (0.0, 0.125), (0.0, 0.25),
                        (0.0, _TAU, 0.5, 2.0)):
                    args = (t0, s, t_lo, t_hi, ei, ej, g0, eta)
                    # repr tells -0.0 from 0.0
                    assert (repr(solvers._pair_argmax(*args))
                            == repr(reference_pair_argmax(*args))), args
                    checked += 1
    assert checked > 2000


def test_weight_monotonicity():
    # relaxing a single box never decreases the optimal dual objective
    rng = np.random.default_rng(27)
    X, labels, v, gamma, epsilon = random_instance(rng, m_max=10)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(1.0), data.features)
    v = v / v.max()
    base = fit_eps_l1_vsvm(
        data, K, VWeights(v, "product", GKernelSpec.gaussian(1.0),
                          MeasureSpec.point_mass()),
        SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT))
    obj_base = dual_objective(base.coefficients, data.labels.astype(float),
                              epsilon, K.values)
    for i in range(data.m):
        grown = v.copy()
        grown[i] = min(1.0, grown[i] * 1.8)
        model = fit_eps_l1_vsvm(
            data, K, VWeights(grown, "product", GKernelSpec.gaussian(1.0),
                              MeasureSpec.point_mass()),
            SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT))
        obj = dual_objective(model.coefficients, data.labels.astype(float),
                             epsilon, K.values)
        assert obj >= obj_base - 1e-9


def test_dual_model_validation():
    scaler = Scaler(np.zeros(1), np.ones(1))
    support = np.array([[0.0], [1.0]])
    kernel = KernelSpec.linear()
    with pytest.raises(ValueError):  # box violation
        KernelModel(np.array([2.0, -2.0]), 0.0, support, kernel, scaler,
                    "eps-l1svm", caps=np.array([1.0, 1.0]), epsilon=0.1)
    with pytest.raises(ValueError):  # zero-sum violation
        KernelModel(np.array([0.5, 0.0]), 0.0, support, kernel, scaler,
                    "eps-l1svm", caps=np.array([1.0, 1.0]), epsilon=0.1)


@pytest.mark.parametrize("caps", [np.array([1.0, 1.0]), None])
@pytest.mark.parametrize("coef, intercept", [([0.5, -0.5], np.nan),
                                             ([0.5, -0.5], np.inf),
                                             ([np.nan, 0.0], 0.0)])
def test_model_rejects_non_finite_solution(caps, coef, intercept):
    # a NaN intercept would score NaN and save as invalid JSON
    with pytest.raises(ValueError, match="non-finite"):
        KernelModel(np.array(coef), intercept, np.array([[0.0], [1.0]]),
                    KernelSpec.linear(), Scaler(np.zeros(1), np.ones(1)),
                    "eps-l1svm", caps=caps, epsilon=0.1)


@pytest.mark.parametrize("field, value, error", [
    ("converged", "false", TypeError),  # a non-empty str would read as True
    ("converged", 1, TypeError),
    ("method", 3, TypeError),
    ("score_scale", "2", TypeError),  # would fail in predict's arithmetic
    ("epsilon", "0.1", TypeError),
    ("score_scale", np.inf, ValueError),
    ("score_shift", np.nan, ValueError),
    ("epsilon", np.inf, ValueError),
    ("iterations", 1.5, TypeError),
    ("iterations", True, TypeError),
    ("interior_iterations", "3", TypeError),
    ("iterations", -1, ValueError),
    ("interior_iterations", -2, ValueError),
])
def test_model_rejects_wrongly_typed_scalars(field, value, error):
    valid = dict(coefficients=np.array([0.5, -0.5]), intercept=0.0,
                 support=np.array([[0.0], [1.0]]), kernel=KernelSpec.linear(),
                 scaler=Scaler(np.zeros(1), np.ones(1)), method="eps-l1svm",
                 caps=np.array([1.0, 1.0]), epsilon=0.1)
    with pytest.raises(error, match=field):
        KernelModel(**{**valid, field: value})
    # numbers of any numeric type are kept as floats
    model = KernelModel(**{**valid, "intercept": 1, "score_scale": np.float32(2.0),
                           "epsilon": 0})
    assert all(type(getattr(model, name)) is float
               for name in ("intercept", "score_scale", "score_shift", "epsilon"))
    # and counts of any integer type as ints
    model = KernelModel(**{**valid, "iterations": np.int64(7)})
    assert type(model.iterations) is int and model.iterations == 7


# ---------------------------------------------------------------------------
# hinge-loss baseline

def test_csvm_separable_two_points():
    data = make_dataset([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    K = gram(KernelSpec.linear(), data.features)
    model = fit_csvm(data, K, SolverConfig(gamma=1e4, **TIGHT))
    scores = predict(model, data.features)
    assert np.array_equal((scores > 0.5).astype(int), data.labels)
    # boundary midway between the two points
    mid = predict(model, np.array([[0.5, 0.5]]))
    assert mid[0] == pytest.approx(0.5, abs=1e-6)


def test_csvm_matches_oracle():
    rng = np.random.default_rng(28)
    for _ in range(10):
        m = int(rng.integers(4, 7))
        X = rng.random((m, 2))
        labels = rng.integers(0, 2, m)
        labels[0], labels[1] = 0, 1
        data = make_dataset(X, labels)
        K = gram(KernelSpec.rbf(1.0), data.features)
        gamma = float(2.0 ** rng.uniform(-2, 5))
        model = fit_csvm(data, K, SolverConfig(gamma=gamma, **TIGHT))
        z = 2.0 * data.labels - 1.0
        ours = dual_objective(model.coefficients, z, 0.0, K.values)
        caps_pos = np.where(z > 0, gamma, 0.0)
        caps_neg = np.where(z < 0, gamma, 0.0)
        ref, _, _ = qp_reference(K.values, z, 0.0, caps_pos, caps_neg=caps_neg)
        assert ours == pytest.approx(ref, abs=1e-6)


def test_csvm_duplication_keeps_separable_boundary():
    rng = np.random.default_rng(29)
    X = np.vstack([rng.normal(0.25, 0.05, (8, 2)), rng.normal(0.75, 0.05, (8, 2))])
    labels = np.array([0] * 8 + [1] * 8)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.linear(), data.features)
    cfg = SolverConfig(gamma=1e5, **TIGHT)
    base = fit_csvm(data, K, cfg)
    dup = Dataset(np.vstack([data.features] * 2), np.concatenate([data.labels] * 2),
                  data.scaler)
    model2 = fit_csvm(dup, gram(KernelSpec.linear(), dup.features), cfg)
    grid = rng.random((50, 2))
    assert np.array_equal((predict(base, grid) > 0.5), (predict(model2, grid) > 0.5))


# ---------------------------------------------------------------------------
# closed forms

def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        grad[k] = (fn(x + step) - fn(x - step)) / (2 * h)
    return grad


def vsvm_objective(K, V, y, gamma):
    def fn(params):
        A, c = params[:-1], params[-1]
        r = K @ A + c - y
        return float(r @ (V @ r) + gamma * A @ (K @ A))
    return fn


def test_vsvm_identity_v_is_regularized_least_squares():
    rng = np.random.default_rng(30)
    X = rng.random((6, 2))
    labels = rng.integers(0, 2, 6)
    labels[:2] = [0, 1]
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(0.8), data.features)
    V = VMatrix(np.eye(6), GKernelSpec.step(), MeasureSpec.point_mass())
    model = fit_vsvm(data, K, V, gamma=0.5)
    fn = vsvm_objective(K.values, np.eye(6), data.labels.astype(float), 0.5)
    grad = fd_gradient(fn, np.concatenate([model.coefficients, [model.intercept]]))
    assert np.abs(grad).max() < 1e-6


def test_vsvm_constant_labels_constant_fit():
    feats = np.array([[0.0], [0.25], [0.5], [1.0]])
    data = Dataset(feats, np.ones(4, dtype=int), Scaler(np.zeros(1), np.ones(1)))
    K = gram(KernelSpec.rbf(1.0), data.features)
    V = v_matrix(data.features, GKernelSpec.gaussian(0.5), MeasureSpec.unit_box(1))
    model = fit_vsvm(data, K, V, gamma=0.25)
    assert np.array_equal(model.coefficients, np.zeros(4))
    assert model.intercept == 1.0
    assert np.array_equal(predict(model, data.features), np.ones(4))


def test_vsvm_stationarity_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        X = rng.random((5, 2))
        labels = rng.integers(0, 2, 5)
        labels[:2] = [0, 1]
        data = make_dataset(X, labels)
        K = gram(KernelSpec.rbf(float(2.0 ** rng.uniform(-1, 1))), data.features)
        V = v_matrix(data.features, GKernelSpec.gaussian(0.5),
                     MeasureSpec.empirical(rng.random((20, 2))))
        gamma = float(2.0 ** rng.uniform(-3, 2))
        model = fit_vsvm(data, K, V, gamma)
        fn = vsvm_objective(K.values, V.values, data.labels.astype(float), gamma)
        grad = fd_gradient(fn, np.concatenate([model.coefficients, [model.intercept]]))
        assert np.abs(grad).max() < 1e-6


def test_lssvm_symmetric_two_point():
    data = make_dataset([[0.0], [1.0]], [0, 1])
    K = gram(KernelSpec.rbf(1.0), data.features)
    model = fit_lssvm(data, K, gamma=2.0)
    assert model.intercept == pytest.approx(0.5, abs=1e-12)
    assert model.coefficients[0] == pytest.approx(-model.coefficients[1], abs=1e-12)


def test_lssvm_interpolates_at_large_gamma():
    rng = np.random.default_rng(32)
    X = rng.random((8, 2))
    labels = rng.integers(0, 2, 8)
    labels[:2] = [0, 1]
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(0.4), data.features)
    model = fit_lssvm(data, K, gamma=1e10)
    assert np.allclose(predict(model, data.features), data.labels, atol=1e-6)


def test_lssvm_saddle_residual():
    rng = np.random.default_rng(33)
    X = rng.random((6, 2))
    labels = np.array([0, 1, 0, 1, 1, 0])
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(1.0), data.features)
    gamma = 3.0
    model = fit_lssvm(data, K, gamma)
    a, b = model.coefficients, model.intercept
    y = data.labels.astype(float)
    r1 = (K.values + np.eye(6) / gamma) @ a + b - y
    assert np.linalg.norm(r1) < 1e-10
    assert abs(a.sum()) < 1e-10


def test_idlssvm_uniform_density_matches_rescaled_lssvm():
    # two same-class groups of mutually equidistant points: all rho_i equal
    scale = 0.5
    X = np.zeros((8, 8))
    for i in range(8):
        X[i, i] = scale
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    data = Dataset(X, labels, Scaler(np.zeros(8), np.ones(8)))
    K = gram(KernelSpec.rbf(1.0), data.features)
    gamma = 2.0
    model = fit_idlssvm(data, K, gamma, k=3)
    rho = float(np.exp(-(2 * scale**2) / 8))
    reference = fit_lssvm(data, K, gamma * rho)
    assert np.allclose(model.coefficients, reference.coefficients, atol=1e-10)
    assert model.intercept == pytest.approx(reference.intercept, abs=1e-10)


def test_idlssvm_outlier_has_smallest_density():
    from cdfsvm.solvers import _density_weights
    rng = np.random.default_rng(34)
    X = np.vstack([rng.normal(0.3, 0.02, (7, 2)), [[0.95, 0.95]],
                   rng.normal(0.6, 0.02, (8, 2))])
    X = np.clip(X, 0.0, 1.0)
    labels = np.array([0] * 8 + [1] * 8)
    rho = _density_weights(X, labels, k=5)
    assert np.argmin(rho) == 7  # the planted outlier


def test_idlssvm_residual_and_class_size_guard():
    rng = np.random.default_rng(35)
    X = rng.random((12, 2))
    labels = np.array([0, 1] * 6)
    data = make_dataset(X, labels)
    K = gram(KernelSpec.rbf(0.7), data.features)
    model = fit_idlssvm(data, K, gamma=4.0, k=5)
    from cdfsvm.solvers import _density_weights
    rho = _density_weights(data.features, data.labels, 5)
    y = data.labels.astype(float)
    r1 = (K.values + np.diag(1.0 / (4.0 * rho))) @ model.coefficients + model.intercept - y
    assert np.linalg.norm(r1) < 1e-10
    with pytest.raises(ValueError):
        fit_idlssvm(data, K, gamma=4.0, k=6)


def one_piece_density_weights(X, labels, k):
    # the formula before row blocks: one (c, c, d) difference array per class
    rho = np.empty(X.shape[0])
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        pts = X[idx]
        sq = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(sq, np.inf)
        rho[idx] = np.exp(-np.sort(sq, axis=1)[:, :k].mean(axis=1) / X.shape[1])
    return rho


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("d", [1, 3, 7, 8, 13, 64])
def test_density_weights_match_the_one_piece_formula(d, k):
    # d < 8 and d >= 8 take different summation paths in numpy's reduction;
    # at every d the blocks split each class into several pieces
    rng = np.random.default_rng(100 + d)
    X = rng.random((290, d))
    labels = (rng.random(290) < 0.45).astype(np.int64)
    assert np.array_equal(_density_weights(X, labels, k),
                          one_piece_density_weights(X, labels, k))


def test_density_weights_memory_is_a_few_class_squares():
    # two classes of c = 600 at d = 30: the one-piece formula held a
    # (c, c, d) difference array, 86 MB, where one c x c matrix is 2.9 MB;
    # keeping a class's distances and their sorted copy into the next class
    # read 3.1 c^2; sorting in place and keeping k columns reads 1.2 c^2
    c, d = 600, 30
    X = np.random.default_rng(36).random((2 * c, d))
    labels = np.repeat([0, 1], c)
    tracemalloc.start()
    try:
        _density_weights(X, labels, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * c * c * 8


def test_vsvm_singularity_guard():
    # gamma tiny with a rank-deficient VK cannot satisfy the residual check
    feats = np.array([[0.0], [0.0], [1.0], [1.0]])
    data = Dataset(feats, np.array([0, 0, 1, 1]), Scaler(np.zeros(1), np.ones(1)))
    K = gram(KernelSpec.linear(), data.features)
    V = VMatrix(np.eye(4), GKernelSpec.step(), MeasureSpec.point_mass())
    with pytest.raises(SingularSystemError):
        fit_vsvm(data, K, V, gamma=1e-300)


def test_vsvm_offset_guard_zero_weights():
    # V = 0 leaves M = gamma*I well conditioned, but 1'V(K A_c - 1) is 0,
    # so the offset c is undefined
    rng = np.random.default_rng(41)
    data = make_dataset(rng.random((6, 2)), [0, 1, 0, 1, 1, 0])
    K = gram(KernelSpec.rbf(1.0), data.features)
    V = VMatrix(np.zeros((6, 6)), GKernelSpec.step(), MeasureSpec.point_mass())
    with pytest.raises(SingularSystemError, match="offset denominator vanishes"):
        fit_vsvm(data, K, V, gamma=1.0)


# ---------------------------------------------------------------------------
# gamma-independent work (V K, density weights) reused along a gamma path

GAMMA_PATH = (2.0**-6, 0.25, 1.0, 4.0, 64.0, 2.0**8)


def memo_case(seed, m=30, delta=0.8):
    """A fresh Dataset, GramMatrix and VMatrix; equal seeds give equal values."""
    rng = np.random.default_rng(seed)
    data = make_dataset(rng.random((m, 3)), rng.permutation(np.arange(m) % 2))
    K = gram(KernelSpec.rbf(delta), data.features)
    V = v_matrix(data.features, GKernelSpec.gaussian(0.5),
                 MeasureSpec.empirical(data.features))
    return data, K, V


def assert_bit_identical(fits, fresh_fits):
    for a, b in zip(fits, fresh_fits, strict=True):
        assert a.method == b.method
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept


def closed_form_fits(data, K, V, gamma):
    return fit_vsvm(data, K, V, gamma), fit_idlssvm(data, K, gamma)


def test_memoized_fits_match_fresh_inputs_along_gamma_path(monkeypatch):
    data, K, V = memo_case(50)
    calls = []

    def counted_density_weights(*args):
        calls.append(args)
        return _density_weights(*args)

    monkeypatch.setattr(solvers, "_density_weights", counted_density_weights)
    for gamma in GAMMA_PATH:
        assert_bit_identical(closed_form_fits(data, K, V, gamma),
                             closed_form_fits(*memo_case(50), gamma))
        if gamma == GAMMA_PATH[0]:
            vk = solvers._VK_MEMO[V][1]
        assert solvers._VK_MEMO[V][1] is vk
    # once per Dataset: the reused one plus one fresh one per gamma
    assert len(calls) == 1 + len(GAMMA_PATH)
    assert not vk.flags.writeable
    assert not solvers._RHO_MEMO[data][5].flags.writeable


def test_memo_never_serves_another_folds_work():
    # two folds of the same shape, alternated gamma by gamma
    folds = [memo_case(seed) for seed in (51, 52)]
    for gamma in GAMMA_PATH:
        for seed, (data, K, V) in zip((51, 52), folds):
            assert_bit_identical(closed_form_fits(data, K, V, gamma),
                                 closed_form_fits(*memo_case(seed), gamma))
    # one V against two Gram matrices of its fold, alternated
    data, K, V = folds[0]
    K_wide = gram(KernelSpec.rbf(2.0), data.features)
    for gamma in GAMMA_PATH[:3]:
        for kernel, delta in ((K, 0.8), (K_wide, 2.0)):
            fresh_data, fresh_K, fresh_V = memo_case(51, delta=delta)
            assert_bit_identical([fit_vsvm(data, kernel, V, gamma)],
                                 [fit_vsvm(fresh_data, fresh_K, fresh_V, gamma)])
    # k is part of the density-weight key
    assert_bit_identical([fit_idlssvm(data, K, 1.0, k=3)],
                         [fit_idlssvm(memo_case(51)[0], K, 1.0, k=3)])
    assert set(solvers._RHO_MEMO[data]) == {3, 5}


def test_memo_entries_die_with_their_inputs():
    data, K, V = memo_case(53)
    closed_form_fits(data, K, V, 1.0)
    vk = weakref.ref(solvers._VK_MEMO[V][1])
    rho = weakref.ref(solvers._RHO_MEMO[data][5])
    # the V K entry holds its Gram matrix weakly
    K_ref = weakref.ref(K)
    del K
    gc.collect()
    assert K_ref() is None and vk() is not None
    del V, data
    gc.collect()
    assert vk() is None and rho() is None


def guard_case(method, seed):
    """One seeded closed-form instance: the fit to run, its system matrix M,
    whose 2-norm condition number is the guard sweep's oracle, the weight
    matrix W of its stationarity condition M A = W (y - c 1), and y."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, 41))
    d = int(rng.integers(1, 6))
    X = rng.random((m, d))
    if rng.random() < 0.5:  # the first n rows duplicate later rows
        n = int(rng.integers(1, m // 2))
        X[:n] = X[rng.integers(n, m, n)]
    labels = rng.permutation(np.arange(m) % 2)
    data = make_dataset(X, labels)
    spec = (KernelSpec.rbf(float(2.0 ** rng.uniform(-3, 3))) if rng.random() < 0.5
            else KernelSpec.linear())
    K = gram(spec, data.features)
    t = float(10.0 ** rng.uniform(-14, 1))  # the small regularization term
    y = labels.astype(float)
    if method == "vsvm":
        g = (GKernelSpec.gaussian(float(2.0 ** rng.uniform(-2, 1)))
             if rng.random() < 0.5 else GKernelSpec.step())
        kind = int(rng.integers(4))
        mu = (MeasureSpec.empirical(rng.random((int(rng.integers(2, 2 * m)), d))),
              MeasureSpec.unit_box(d),
              MeasureSpec.gaussian(np.full(d, 0.5), np.full(d, 0.3)),
              MeasureSpec.point_mass())[kind]
        V = v_matrix(data.features, g, mu)
        M = V.values @ K.values + t * np.eye(m)
        return (lambda: fit_vsvm(data, K, V, t)), M, V.values, y
    rho = (np.ones(m) if method == "lssvm"
           else _density_weights(data.features, data.labels, 2))
    M = K.values + np.diag(t / rho)
    if method == "lssvm":
        return (lambda: fit_lssvm(data, K, 1.0 / t)), M, np.eye(m), y
    return (lambda: fit_idlssvm(data, K, 1.0 / t, k=2)), M, np.eye(m), y


def tiny_gamma_case(mu, sigma, delta, gamma):
    """A vsvm fit at gamma far below 1e-12 whose VK + gamma*I is well
    conditioned, in guard_case's form."""
    rng = np.random.default_rng(4000)
    data = make_dataset(rng.random((20, 2)), np.arange(20) % 2)
    K = gram(KernelSpec.rbf(delta), data.features)
    V = v_matrix(data.features, GKernelSpec.gaussian(sigma), mu)
    M = V.values @ K.values + gamma * np.eye(20)
    return (lambda: fit_vsvm(data, K, V, gamma)), M, V.values, data.labels.astype(float)


# vsvm fits with cond(VK + gamma*I) 7.8e3, 1.2e5 and 8.9e5 that a guard
# testing 1'V(K A_1 - 1) against 1e-12*max(1, sum V) rejected as "offset
# denominator vanishes": that denominator equals -gamma * 1'A_1, so such a
# test is not scale-free in gamma
TINY_GAMMA_CASES = {
    "empirical": (MeasureSpec.empirical(np.random.default_rng(1).random((400, 2))),
                  0.05, 0.2, 1e-13),
    "uniform_box": (MeasureSpec.unit_box(2), 0.1, 0.2, 1e-14),
    "gaussian": (MeasureSpec.gaussian([0.5, 0.5], [0.3, 0.3]), 0.2, 0.1, 5e-13),
}


@pytest.mark.parametrize("method", ["vsvm", "lssvm", "idlssvm"])
def test_closed_form_guard_sweep(method):
    """120 seeded instances per method, plus TINY_GAMMA_CASES for vsvm:
    every fit whose system has 2-norm condition number above 1e11 raises
    SingularSystemError, and every fit below 1e6 succeeds and satisfies its
    stationarity conditions."""
    base = 7100 + 1000 * ("vsvm", "lssvm", "idlssvm").index(method)
    cases = {seed: guard_case(method, seed) for seed in range(base, base + 120)}
    if method == "vsvm":
        cases.update((name, tiny_gamma_case(*args))
                     for name, args in TINY_GAMMA_CASES.items())
    missed, rejected = [], []
    singular = fitted = 0
    for key, (fit, M, W, y) in cases.items():
        cond = float(np.linalg.cond(M))
        if cond > 1e11:
            singular += 1
            try:
                fit()
                missed.append((key, cond))
            except SingularSystemError:
                pass
        elif cond <= 1e6:
            fitted += 1
            try:
                model = fit()
            except SingularSystemError as exc:
                rejected.append((key, cond, str(exc)))
                continue
            A, c = model.coefficients, model.intercept
            resid = np.abs(M @ A - W @ (y - c)).sum()
            scale = np.abs(W @ y).sum() + abs(c) * np.abs(W.sum(axis=1)).sum()
            if not (resid <= 1e-8 * scale and abs(A.sum()) <= 1e-8 * np.abs(A).sum()):
                rejected.append((key, cond, "stationarity"))
    assert not missed, f"fits above cond 1e11: {missed}"
    assert not rejected, f"fits below cond 1e6 rejected: {rejected}"
    assert singular >= 20 and fitted >= 20, (singular, fitted)


# ---------------------------------------------------------------------------
# prediction and serialization

def test_predict_zero_coefficients_constant():
    scaler = Scaler(np.zeros(1), np.ones(1))
    model = KernelModel(np.zeros(3), 0.7, np.array([[0.1], [0.5], [0.9]]),
                        KernelSpec.rbf(1.0), scaler, "eps-l1svm",
                        caps=np.ones(3), epsilon=0.1)
    assert np.allclose(predict(model, np.array([[0.2], [0.8]])), 0.7)


def test_predict_matches_manual_expansion():
    rng = np.random.default_rng(36)
    support = rng.random((3, 2))
    coef = rng.normal(size=3)
    coef -= coef.mean()  # zero-sum for the dual container
    caps = np.abs(coef) + 1.0
    model = KernelModel(coef, 0.3, support, KernelSpec.rbf(0.6),
                        Scaler(np.zeros(2), np.ones(2)), "eps-l1svm",
                        caps=caps, epsilon=0.1)
    Xq = rng.random((4, 2))
    manual = np.array([
        sum(coef[i] * np.exp(-np.sum((support[i] - x) ** 2) / (2 * 0.36))
            for i in range(3)) + 0.3
        for x in Xq])
    assert np.allclose(predict(model, Xq), manual, atol=1e-12)


def full_expansion(model, X):
    """Scores summed over every stored row, zero coefficients included."""
    raw = model.coefficients @ cross_gram(model.kernel, model.support, X)
    return model.score_scale * (raw + model.intercept) + model.score_shift


def test_predict_skips_zero_coefficients():
    data = gen_gaussian_2d(GaussianSpec2D(n=300, seed=39))
    params = dict(gamma=1.0, delta=0.5, epsilon=0.25, sigma=0.5)
    model = fit_full(data, "eps-l1vsvm", params, "rbf", WeightConfig())
    nonzero = np.count_nonzero(model.coefficients)
    assert 0 < nonzero < data.m // 2
    grid = np.random.default_rng(39).normal(size=(500, 2))
    scores, full = predict(model, grid), full_expansion(model, grid)
    # only the summation order differs
    assert np.abs(scores - full).max() <= 1e-12
    assert np.array_equal(decide(scores), decide(full))


@pytest.mark.parametrize("method", ["vsvm", "lssvm", "idlssvm"])
def test_predict_closed_form_is_the_full_expansion(method):
    data = gen_gaussian_2d(GaussianSpec2D(n=120, seed=40))
    params = dict(gamma=2.0, delta=0.5, sigma=0.5)
    model = fit_full(data, method, params, "rbf", WeightConfig())
    assert np.all(model.coefficients != 0.0)
    grid = np.random.default_rng(40).normal(size=(64, 2))
    assert np.array_equal(predict(model, grid), full_expansion(model, grid))


def test_predict_dimension_mismatch():
    scaler = Scaler(np.zeros(2), np.ones(2))
    model = KernelModel(np.zeros(2), 0.0, np.array([[0.1, 0.2], [0.3, 0.4]]),
                        KernelSpec.linear(), scaler, "csvm", caps=np.ones(2),
                        epsilon=0.0)
    with pytest.raises(ValueError):
        predict(model, np.zeros((3, 3)))


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    data, K, model, _ = random_fit(rng)
    path = tmp_path / "model.json"
    save_model(model, path)
    # the nonzero-row copy predict scores is not a field and is not written
    with open(path, encoding="utf-8") as fh:
        assert set(json.load(fh)) == {"format", "version"} | {
            f.name for f in fields(KernelModel)}
    loaded = load_model(path)
    grid = rng.random((10, data.d))
    assert np.array_equal(predict(model, grid), predict(loaded, grid))
    assert loaded.method == model.method
    assert loaded.epsilon == model.epsilon

    lssvm = fit_lssvm(data, K, gamma=2.0)
    path2 = tmp_path / "model2.json"
    save_model(lssvm, path2)
    loaded2 = load_model(path2)
    assert np.array_equal(predict(lssvm, grid), predict(loaded2, grid))


@pytest.mark.parametrize("method", METHODS)
def test_every_method_round_trips_bit_identically(tmp_path, method):
    data = gen_gaussian_2d(GaussianSpec2D(n=40, seed=38))
    params = dict(gamma=2.0, delta=0.5, epsilon=0.25, sigma=0.5)
    model = fit_full(data, method, params, "rbf", WeightConfig())
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    grid = np.random.default_rng(38).random((25, 2))
    assert np.array_equal(predict(model, grid), predict(loaded, grid))
    assert (loaded.caps is None) == (model.caps is None)
    assert loaded.epsilon == model.epsilon

