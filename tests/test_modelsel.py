import functools

import numpy as np
import pytest

from cdfsvm import modelsel
from cdfsvm.core import Dataset, normalize
from cdfsvm.modelsel import (GridSpec, METHODS, WeightConfig, cv_table,
                             fit_full, grid_search, kfold_split, rows_to_csv,
                             select_best)
from cdfsvm.solvers import SolverConfig, SolverError, predict
from cdfsvm.core import decide


def separable_dataset(n=24, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.75, 0.06, (n // 2, 2))
    neg = rng.normal(0.25, 0.06, (n // 2, 2))
    raw = np.vstack([pos, neg])
    labels = np.array([1] * (n // 2) + [0] * (n // 2))
    feats, scaler = normalize(raw)
    return Dataset(feats, labels, scaler, "separable")


# ---------------------------------------------------------------------------
# kfold_split

def test_kfold_singletons():
    splits = kfold_split(10, 10, seed=0)
    tests = [t for _, t in splits]
    assert all(t.size == 1 for t in tests)
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(10))


def test_kfold_two_folds_disjoint():
    splits = kfold_split(10, 2, seed=1)
    (tr0, te0), (tr1, te1) = splits
    assert te0.size == 5 and te1.size == 5
    assert np.intersect1d(te0, te1).size == 0
    assert np.array_equal(np.sort(np.concatenate([te0, te1])), np.arange(10))
    assert np.array_equal(np.sort(np.concatenate([tr0, te0])), np.arange(10))


def test_kfold_deterministic():
    a = kfold_split(23, 5, seed=7)
    b = kfold_split(23, 5, seed=7)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
    c = kfold_split(23, 5, seed=8)
    assert any(not np.array_equal(te1, te2)
               for (_, te1), (_, te2) in zip(a, c))


def test_kfold_stratified():
    labels = np.array([0] * 30 + [1] * 10)
    splits = kfold_split(40, 5, seed=3, labels=labels)
    for _, test in splits:
        counts = np.bincount(labels[test], minlength=2)
        assert counts[0] == 6 and counts[1] == 2


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold_split(5, 6, seed=0)
    with pytest.raises(ValueError):
        kfold_split(5, 1, seed=0)


# ---------------------------------------------------------------------------
# grid search

def small_grid(**kw):
    defaults = dict(gammas=(0.25, 4.0), deltas=(1.0,), epsilons=(0.25,),
                    sigmas=(0.5,), folds=3, indicator="acc", seed=0)
    defaults.update(kw)
    return GridSpec(**defaults)


def test_grid_search_single_cell():
    data = separable_dataset()
    grid = small_grid(gammas=(1.0,))
    res = grid_search(data, "lssvm", grid, kernel_kind="linear")
    assert res.best["gamma"] == 1.0
    assert 0.0 <= res.score <= 1.0
    # one row per fold for the single cell
    assert len(res.rows) == 3


def test_grid_search_separable_prefers_effective_cell():
    # a vanishing bandwidth memorizes (Gram ~ identity) and scores every
    # held-out point at the bias, so only the sane cell reaches CV acc 1
    data = separable_dataset()
    grid = small_grid(gammas=(4.0,), deltas=(1e-5, 1.0))
    res = grid_search(data, "eps-l1svm", grid, kernel_kind="rbf")
    assert res.best["delta"] == 1.0
    assert res.score == 1.0


def test_grid_axes_depend_on_method():
    data = separable_dataset()
    grid = small_grid(gammas=(1.0, 2.0), epsilons=(0.125, 0.25), sigmas=(0.5, 1.0))
    wcfg = WeightConfig(g_kind="gaussian", mu_kind="uniform")
    n_cells = lambda rows: len({(r["gamma"], r["delta"], r["epsilon"], r["sigma"])
                                for r in rows})
    rows = cv_table(data, "lssvm", grid, "linear", wcfg)
    assert n_cells(rows) == 2  # gammas only
    rows = cv_table(data, "eps-l1svm", grid, "linear", wcfg)
    assert n_cells(rows) == 4  # gammas x epsilons
    rows = cv_table(data, "eps-l1vsvm", grid, "linear", wcfg)
    assert n_cells(rows) == 8  # gammas x epsilons x sigmas
    rows = cv_table(data, "vsvm", grid, "linear",
                    WeightConfig(g_kind="step", mu_kind="uniform"))
    assert n_cells(rows) == 2  # step G has no sigma axis
    rows = cv_table(data, "eps-l1svm", grid, "rbf", wcfg)
    assert n_cells(rows) == 4  # deltas has one value


def test_vac_with_unit_weights_selects_like_acc():
    data = separable_dataset(seed=5)
    grid = small_grid(gammas=(0.03125, 0.5, 8.0))
    wcfg = WeightConfig(mu_kind="point_mass", g_kind="step")
    rows = cv_table(data, "csvm", grid, "linear", wcfg)
    for row in rows:
        assert row["vac"] == row["acc"]
    assert select_best(rows, "acc")[0] == select_best(rows, "vac")[0]


def test_select_best_tie_break_prefers_small_gamma():
    rows = [dict(gamma=g, delta=None, epsilon=None, sigma=None, fold=f,
                 acc=0.9, vac=0.9, valid=True)
            for g in (4.0, 0.5) for f in range(2)]
    best, score = select_best(rows, "acc")
    assert best["gamma"] == 0.5 and score == 0.9


def test_select_best_tie_break_ignores_fold_order():
    # one set of fold accuracies in two orders: np.mean gives 0.9 and
    # 0.9000000000000001, yet the means are equal and the smaller gamma wins
    folds = {1.0: [0.8, 0.8, 0.9, 1.0, 0.9, 0.8, 0.9, 1.0, 0.9, 1.0],
             2.0: [1.0, 0.8, 1.0, 0.9, 1.0, 0.9, 0.9, 0.8, 0.9, 0.8]}
    rows = [dict(gamma=g, delta=None, epsilon=None, sigma=None, fold=f,
                 acc=a, vac=a, valid=True)
            for g, accs in folds.items() for f, a in enumerate(accs)]
    for indicator in ("acc", "vac"):
        best, score = select_best(rows, indicator)
        assert best["gamma"] == 1.0 and score == pytest.approx(0.9, rel=1e-15)


def test_select_best_tie_break_ignores_fsum_rounding():
    # both fold vectors sum to 87/100 in exact arithmetic, yet their
    # correctly rounded sums are 8.7 and 8.700000000000001
    rows = []
    for g, accs in ((0.5, [1.0, 0.8, 0.9, 0.8, 1.0, 1.0, 0.6, 0.9, 1.0, 0.7]),
                    (1.0, [0.8, 0.9, 0.9, 0.8, 0.8, 0.9, 0.9, 1.0, 0.9, 0.8])):
        rows += [dict(gamma=g, delta=None, epsilon=None, sigma=None, fold=f,
                      acc=a, vac=a, valid=True) for f, a in enumerate(accs)]
    assert select_best(rows, "acc")[0]["gamma"] == 0.5
    # a mean larger by far less than one fold's worth still wins
    rows += [dict(gamma=4.0, delta=None, epsilon=None, sigma=None, fold=f,
                  acc=0.87 + 1e-12, vac=0.87 + 1e-12, valid=True)
             for f in range(10)]
    assert select_best(rows, "acc")[0]["gamma"] == 4.0


def test_select_best_ignores_dominated_cell():
    base = [dict(gamma=g, delta=None, epsilon=None, sigma=None, fold=f,
                 acc=s, vac=s, valid=True)
            for g, s in ((1.0, 0.8), (2.0, 0.9)) for f in range(2)]
    best, _ = select_best(base, "acc")
    dominated = base + [dict(gamma=8.0, delta=None, epsilon=None, sigma=None,
                             fold=f, acc=0.7, vac=0.7, valid=True)
                        for f in range(2)]
    assert select_best(dominated, "acc")[0] == best


def test_select_best_skips_invalid_cells():
    rows = [dict(gamma=1.0, delta=None, epsilon=None, sigma=None, fold=0,
                 acc=1.0, vac=1.0, valid=True),
            dict(gamma=1.0, delta=None, epsilon=None, sigma=None, fold=1,
                 acc=np.nan, vac=np.nan, valid=False),
            dict(gamma=2.0, delta=None, epsilon=None, sigma=None, fold=0,
                 acc=0.5, vac=0.5, valid=True),
            dict(gamma=2.0, delta=None, epsilon=None, sigma=None, fold=1,
                 acc=0.5, vac=0.5, valid=True)]
    best, score = select_best(rows, "acc")
    assert best["gamma"] == 2.0 and score == 0.5


def test_select_best_skips_non_converged_cells():
    # a fit that stopped short is valid (it returned and was scored) but not
    # converged; its cell is skipped like a failed one
    rows = [dict(gamma=g, delta=None, epsilon=None, sigma=None, fold=f,
                 acc=acc, vac=acc, valid=True, converged=g == 2.0 or f == 0)
            for g, acc in ((1.0, 1.0), (2.0, 0.5)) for f in range(2)]
    assert select_best(rows, "acc") == ({"gamma": 2.0, "delta": None,
                                         "epsilon": None, "sigma": None}, 0.5)
    for row in rows:
        row["converged"] = False
    with pytest.raises(SolverError, match="did not converge"):
        select_best(rows, "acc")


def test_cv_table_records_convergence(monkeypatch, tmp_path):
    # capped at 5 pair steps, the hinge fits at gamma 2^-5 stop short in every
    # fold while those at gamma 8 converge; all are scored, both cells tie at
    # accuracy 1, and the tie no longer goes to the smaller, unconverged gamma
    monkeypatch.setattr(modelsel, "SolverConfig",
                        functools.partial(SolverConfig, max_iter=5))
    data = separable_dataset(seed=3)
    rows = cv_table(data, "csvm", small_grid(gammas=(0.03125, 8.0)), "linear")
    assert all(row["valid"] and row["acc"] == 1.0 for row in rows)
    assert [row["converged"] for row in rows] == [False, True] * 3
    assert select_best(rows, "acc")[0]["gamma"] == 8.0
    assert select_best([{**row, "converged": True} for row in rows],
                       "acc")[0]["gamma"] == 0.03125
    path = tmp_path / "rows.csv"
    rows_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[-2:] == ["valid", "converged"]
    assert [line.split(",")[-1] for line in lines[1:]] == ["False", "True"] * 3


def test_grid_search_deterministic():
    data = separable_dataset(seed=9)
    grid = small_grid()
    r1 = grid_search(data, "eps-l1vsvm", grid, "linear",
                     WeightConfig(mu_kind="uniform"))
    r2 = grid_search(data, "eps-l1vsvm", grid, "linear",
                     WeightConfig(mu_kind="uniform"))
    assert r1.best == r2.best and r1.score == r2.score
    for a, b in zip(r1.rows, r2.rows):
        assert a == b


def test_cv_rows_csv(tmp_path):
    data = separable_dataset(seed=11)
    rows = cv_table(data, "lssvm", small_grid(gammas=(1.0,)), "linear")
    path = tmp_path / "rows.csv"
    rows_to_csv(rows, path, header_comment="grid=test")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# grid=test"
    assert lines[1].startswith("gamma,")
    assert len(lines) == 2 + len(rows)


def test_fit_full_every_method():
    data = separable_dataset(seed=13)
    wcfg = WeightConfig(mu_kind="uniform")
    params = dict(gamma=4.0, delta=1.0, epsilon=0.25, sigma=0.5)
    for method in METHODS:
        model = fit_full(data, method, params, "rbf", wcfg)
        pred = decide(predict(model, data.features))
        assert np.mean(pred == data.labels) >= 0.9


def test_vanishing_step_weights_disable_vac_column():
    # the per-dimension maximum samples carry zero box mass above them, so
    # Vac is undefined; Acc selection must still work
    data = separable_dataset(seed=17)
    grid = small_grid(gammas=(1.0, 4.0))
    wcfg = WeightConfig(g_kind="step", mu_kind="uniform")
    rows = cv_table(data, "lssvm", grid, "linear", wcfg)
    assert all(r["valid"] for r in rows)
    assert all(np.isnan(r["vac"]) for r in rows)
    best, _ = select_best(rows, "acc")
    assert best["gamma"] in (1.0, 4.0)
    with pytest.raises(Exception, match="indicator 'vac'"):
        select_best(rows, "vac")


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(gammas=())
    with pytest.raises(ValueError):
        GridSpec(folds=1)
    with pytest.raises(ValueError):
        GridSpec(indicator="f1")
    with pytest.raises(ValueError):
        WeightConfig(g_kind="triangle")
