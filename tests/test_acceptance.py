"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
boundary-recovery and indicator-comparison criteria run repeated
cross-validated experiments and dominate the runtime (several minutes
each); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest
from fixtures import echo_like, monks_like
from oracles import (complementarity_gaps, midpoint_quadrature,
                     paired_line_sign_test, qp_reference, random_instance)

from cdfsvm.bench import run_bayes_benchmark, run_uci_benchmark, total_variation
from cdfsvm.core import Dataset, GKernelSpec, KernelSpec, normalize
from cdfsvm.datagen import Robustness1DSpec, gen_robustness_1d, save_csv
from cdfsvm.distribution import MeasureSpec, VWeights, v_matrix, v_vector
from cdfsvm.evaluation import accuracy, dist_to_bayes, vac
from cdfsvm.kernels import gram
from cdfsvm.modelsel import GridSpec, WeightConfig
from cdfsvm.solvers import (SolverConfig, dual_objective, fit_eps_l1_svm,
                            fit_eps_l1_vsvm, fit_vsvm, predict)

TIGHT = dict(tolerance=1e-8, max_iter=300_000)


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


def _random_weighted_fit(rng, m_max=8, d_max=3):
    X, labels, v, gamma, epsilon = random_instance(rng, m_max=m_max, d_max=d_max)
    feats, scaler = normalize(X)
    data = Dataset(feats, labels, scaler)
    spec = (KernelSpec.linear() if rng.random() < 0.25
            else KernelSpec.rbf(float(2.0 ** rng.uniform(-2, 2))))
    K = gram(spec, data.features)
    weights = VWeights(v, "product", GKernelSpec.gaussian(1.0),
                       MeasureSpec.point_mass())
    model = fit_eps_l1_vsvm(data, K, weights,
                            SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT))
    return data, K, weights, gamma, epsilon, model


def test_criterion_1_oracle_equivalence():
    """Decomposition solver matches a projected-gradient oracle to 1e-6 on
    200 random small instances, within one minute."""
    rng = np.random.default_rng(20240001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        data, K, weights, gamma, epsilon, model = _random_weighted_fit(rng)
        ours = dual_objective(model.coefficients, data.labels.astype(float),
                              epsilon, K.values)
        ref, _, _ = qp_reference(K.values, data.labels.astype(float), epsilon,
                                 gamma * weights.values)
        worst = max(worst, abs(ours - ref))
        assert abs(ours - ref) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report("1 (oracle equivalence)",
           f"200 instances, max |objective gap| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_kkt_sparsity_suite():
    """Zero-sum, box feasibility, complementarity (free coefficients on the
    tube's edge, capped ones on or beyond it), and tube exclusion on 100
    random fits."""
    rng = np.random.default_rng(20240002)
    for _ in range(100):
        data, K, weights, gamma, epsilon, model = _random_weighted_fit(
            rng, m_max=25)
        coef = model.coefficients
        assert abs(float(coef.sum())) < 1e-8
        assert np.all(np.abs(coef) <= gamma * weights.values + 1e-9)
        residual = predict(model, data.features) - data.labels
        free_gap, cap_shortfall = complementarity_gaps(
            coef, gamma * weights.values, -residual, epsilon)
        assert free_gap <= 1e-6 and cap_shortfall <= 1e-6
        inside = np.abs(residual) < epsilon - 1e-6
        assert np.all(np.abs(coef[inside]) <= 1e-9)
    report("2 (KKT/sparsity)",
           "100 fits: sum=0, boxes, complementarity, tube exclusion")


def test_criterion_3_degeneracy_identities():
    """All-ones weights reproduce the unweighted tube model; unit test
    weights reduce Vac to Acc exactly."""
    rng = np.random.default_rng(20240003)
    worst = 0.0
    for _ in range(10):
        X, labels, _, gamma, epsilon = random_instance(rng, m_max=15)
        feats, scaler = normalize(X)
        data = Dataset(feats, labels, scaler)
        K = gram(KernelSpec.rbf(0.8), data.features)
        cfg = SolverConfig(gamma=gamma, epsilon=epsilon, **TIGHT)
        weighted = fit_eps_l1_vsvm(data, K, VWeights.ones(data.m), cfg)
        plain = fit_eps_l1_svm(data, K, cfg)
        gap = float(np.abs(weighted.coefficients - plain.coefficients).max())
        worst = max(worst, gap, abs(weighted.intercept - plain.intercept))
        assert gap <= 1e-8
        assert abs(weighted.intercept - plain.intercept) <= 1e-8
    for _ in range(20):
        y_true = rng.integers(0, 2, 30)
        y_pred = rng.integers(0, 2, 30)
        assert vac(y_true, y_pred, np.ones(30)) == accuracy(y_true, y_pred)
    report("3 (degeneracy identities)",
           f"v=1 coefficient gap <= {worst:.2e}; Vac(v=1) == Acc exactly")


def test_criterion_4_closed_form_stationarity():
    """Finite-difference gradient of the weighted least-squares objective
    vanishes at the closed-form solution on 50 random instances."""
    rng = np.random.default_rng(20240004)
    worst = 0.0
    for _ in range(50):
        X = rng.random((6, 2))
        labels = rng.integers(0, 2, 6)
        labels[:2] = [0, 1]
        feats, scaler = normalize(X)
        data = Dataset(feats, labels, scaler)
        K = gram(KernelSpec.rbf(float(2.0 ** rng.uniform(-1, 1))), data.features)
        V = v_matrix(data.features, GKernelSpec.gaussian(0.5),
                     MeasureSpec.empirical(rng.random((25, 2))))
        gamma = float(2.0 ** rng.uniform(-3, 2))
        model = fit_vsvm(data, K, V, gamma)
        y = data.labels.astype(float)

        def objective(params):
            A, c = params[:-1], params[-1]
            r = K.values @ A + c - y
            return float(r @ (V.values @ r) + gamma * A @ (K.values @ A))

        point = np.concatenate([model.coefficients, [model.intercept]])
        h = 1e-6
        grad = np.zeros_like(point)
        for k in range(point.size):
            step = np.zeros_like(point)
            step[k] = h
            grad[k] = (objective(point + step) - objective(point - step)) / (2 * h)
        worst = max(worst, float(np.abs(grad).max()))
        assert np.abs(grad).max() < 1e-6
    report("4 (closed-form stationarity)",
           f"50 instances, max |FD gradient| {worst:.2e}")


# boundary-recovery experiment configuration (desk scale): reduced gamma
# grid, 4 folds, singleton epsilon/sigma, box-measure gaussian weights
BOUNDARY_GRID = dict(gammas=tuple(2.0**k for k in range(-4, 5)),
                     deltas=(1.0,), epsilons=(0.25,),
                     sigmas=(0.5,), folds=4, indicator="acc")
BOUNDARY_WEIGHTS = WeightConfig(g_kind="gaussian", mu_kind="uniform")


@pytest.mark.slow
def test_criterion_5_bayes_boundary_bands():
    """Ten independent 100-repetition boundary-recovery runs at n=200:
    slope and intercept land in their bands and the weighted tube model
    beats the least-squares baseline on the distance metric."""
    start = time.perf_counter()
    wins = 0
    k_means, q_means = [], []
    for meta in range(10):
        grid = GridSpec(seed=0, **BOUNDARY_GRID)
        cols = run_bayes_benchmark(n=200, repetitions=100,
                                   methods=("eps-l1vsvm", "lssvm"),
                                   grid=grid, wcfg=BOUNDARY_WEIGHTS,
                                   indicators=("acc",),
                                   seed=50000 + meta * 7919)
        sv = cols[("eps-l1vsvm", "acc")].summary(2.0, 0.0)
        sl = cols[("lssvm", "acc")].summary(2.0, 0.0)
        assert 1.6 <= sv["k_mean"] <= 2.3, f"meta {meta}: slope {sv['k_mean']}"
        assert abs(sv["q_mean"]) <= 0.15, f"meta {meta}: intercept {sv['q_mean']}"
        k_means.append(sv["k_mean"])
        q_means.append(sv["q_mean"])
        wins += sv["dist"] < sl["dist"]
    elapsed = time.perf_counter() - start
    assert wins >= 8, f"weighted model won only {wins}/10 meta-runs"
    assert elapsed < 900.0, f"boundary benchmark took {elapsed:.0f}s"
    report("5 (boundary bands + ordering)",
           f"slope mean {np.mean(k_means):.3f}, intercept mean "
           f"{np.mean(q_means):+.3f}, wins {wins}/10, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_vac_selection_helps():
    """For the unweighted baselines at n=100, Vac-selected models are at
    least as close to the optimal boundary as Acc-selected ones.

    Both indicators select from one cross-validation table, and in most
    repetitions they pick the same cell and hence the same line. So the
    10x100 repetitions are pooled and only those where the two lines differ
    are compared, pairwise: each line is scored by its squared deviation
    (k - 2)^2 + q^2 from the Bayes line, and the criterion fails when the
    Vac line is farther significantly more often than not (one-sided exact
    sign test at the 5% level; see ``oracles.paired_line_sign_test``).

    This replaces a vote over meta-runs, "pooled Dist(Vac) <= Dist(Acc) in
    at least 7 of 10". Each vote hung on the few repetitions where the
    choices differ, counted an exact tie as a win, and under "equally good"
    passed only with probability 0.17; mirroring the step weight, which by
    the generator's symmetry changes no statistic's law, moved the verdict
    from (csvm 5, lssvm 10) to (4, 4). The pooled Dists of the two
    indicators are equal within noise, so this configuration does not show
    that Vac *improves* boundary recovery, only that it is no worse.
    """
    start = time.perf_counter()
    grid_kw = dict(gammas=tuple(2.0**k for k in range(-4, 5)), deltas=(1.0,),
                   epsilons=(0.25,), sigmas=(0.5,), folds=10, indicator="acc")
    wcfg = WeightConfig(g_kind="step", mu_kind="gaussian")
    pooled = {(method, ind): ([], [])
              for method in ("csvm", "lssvm") for ind in ("acc", "vac")}
    for meta in range(10):
        cols = run_bayes_benchmark(n=100, repetitions=100,
                                   methods=("csvm", "lssvm"),
                                   grid=GridSpec(seed=0, **grid_kw),
                                   wcfg=wcfg, indicators=("acc", "vac"),
                                   seed=70000 + meta * 104729)
        for key, (ks, qs) in pooled.items():
            # a failed round would unpair the two columns
            assert cols[key].failures == 0, f"{key}: {cols[key].failures} failed rounds"
            ks.extend(cols[key].ks)
            qs.extend(cols[key].qs)
    elapsed = time.perf_counter() - start
    results, details = {}, []
    for method in ("csvm", "lssvm"):
        acc_lines, vac_lines = pooled[(method, "acc")], pooled[(method, "vac")]
        result = paired_line_sign_test(acc_lines, vac_lines, 2.0, 0.0)
        results[method] = result
        d_acc, d_vac = (dist_to_bayes(*lines, 2.0, 0.0)
                        for lines in (acc_lines, vac_lines))
        details.append(f"{method}: Vac closer in {result.vac_closer}/"
                       f"{result.differing} differing, p={result.p:.2f}, "
                       f"Dist acc {d_acc:.5f} vac {d_vac:.5f}")
    detail = "; ".join(details) + f"; {elapsed:.0f}s"
    if all(r.passed for r in results.values()):
        report("6 (Vac-selected distance)", detail)
    else:
        print(f"\nACCEPTANCE 6 (Vac-selected distance): FAIL  {detail}")
    for method, result in results.items():
        assert result.passed, (
            f"{method}: Vac-selected line farther than the Acc-selected one "
            f"significantly often, p={result.p:.3g} ({detail})")


def test_criterion_7_weight_numerics():
    """Closed-form weight integrals agree with quadrature and summation."""
    g = GKernelSpec.gaussian(0.7)
    mu = MeasureSpec.uniform_box([1.0])
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 20):
        val = v_vector(np.array([[x]]), g, mu, normalize=False).values[0]
        quad = midpoint_quadrature(
            lambda u: np.exp(-((u - x) ** 2) / (2 * 0.7**2)), -1.0, 1.0)
        worst = max(worst, abs(val - quad))
        assert abs(val - quad) < 1e-6

    rng = np.random.default_rng(20240007)
    X = rng.random((5, 2))
    refs = rng.random((12, 2))
    V = v_matrix(X, g, MeasureSpec.empirical(refs)).values
    brute = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            vals = [np.exp(-np.sum((r - X[i]) ** 2) / (2 * 0.7**2))
                    * np.exp(-np.sum((r - X[j]) ** 2) / (2 * 0.7**2))
                    for r in refs]
            brute[i, j] = np.mean(vals)
    # matmul and the loop differ only in float summation order
    assert np.allclose(V, brute, rtol=1e-12, atol=1e-15)

    gauss_mu = MeasureSpec.gaussian([0.37], [0.81])
    step_at_mean = v_vector(np.array([[0.37]]), GKernelSpec.step(), gauss_mu,
                            normalize=False).values[0]
    assert abs(step_at_mean - 0.5) < 1e-12
    report("7 (weight numerics)",
           f"quadrature gap {worst:.2e}; V-matrix matches brute force; "
           "step weight at the mean = 1/2")


def test_criterion_8_benchmark_smoke(tmp_path):
    """Full cv + bench pipeline on two dataset-sized fixtures in budget,
    with the weighted tube model at least on par with the unweighted one."""
    grid = GridSpec(gammas=(0.25, 1.0, 4.0, 16.0), deltas=(0.5, 1.0, 2.0),
                    epsilons=(0.25,), sigmas=(0.25, 1.0), folds=5,
                    indicator="acc", seed=0)
    wcfg = WeightConfig(g_kind="gaussian", mu_kind="empirical")
    details = []
    for data in (echo_like(seed=1), monks_like(seed=1)):
        start = time.perf_counter()
        path = tmp_path / f"{data.name}.csv"
        save_csv(path, data.scaler.inverse(data.features), data.labels)
        rows = run_uci_benchmark([(data.name, data)],
                                 ("eps-l1svm", "eps-l1vsvm"), grid,
                                 kernel_kind="rbf", wcfg=wcfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"{data.name}: pipeline took {elapsed:.0f}s"
        by_method = {row.method: row for row in rows}
        assert by_method["eps-l1svm"].status == "ok"
        assert by_method["eps-l1vsvm"].status == "ok"
        gm_v = by_method["eps-l1vsvm"].gmean_mean
        gm_p = by_method["eps-l1svm"].gmean_mean
        assert gm_v >= gm_p - 0.05, (
            f"{data.name}: weighted G-mean {gm_v:.3f} trails unweighted "
            f"{gm_p:.3f} by more than 5 points")
        details.append(f"{data.name}: {gm_v:.3f} vs {gm_p:.3f} in {elapsed:.0f}s")
    report("8 (benchmark smoke)", "; ".join(details))


def test_criterion_9_robustness_total_variation():
    """The weighted tube model's score curve is at least as smooth as the
    unweighted one's in most seeded 1-D runs."""
    cfg = SolverConfig(gamma=4.0, epsilon=0.25)
    kernel = KernelSpec.rbf(0.125)
    grid_points = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
    wins = 0
    for seed in range(10):
        data = gen_robustness_1d(Robustness1DSpec(seed=seed))
        K = gram(kernel, data.features)
        weights = v_vector(data.features, GKernelSpec.gaussian(0.0625),
                           MeasureSpec.empirical(data.features))
        weighted = fit_eps_l1_vsvm(data, K, weights, cfg)
        plain = fit_eps_l1_svm(data, K, cfg)
        tv_w = total_variation(predict(weighted, grid_points))
        tv_p = total_variation(predict(plain, grid_points))
        wins += tv_w <= tv_p
    assert wins >= 7, f"weighted curve smoother in only {wins}/10 runs"
    report("9 (robustness)", f"smoother score curve in {wins}/10 seeded runs")
