import collections
import functools
import itertools
import logging

import numpy as np
import pytest

from cdfsvm import modelsel
from cdfsvm.core import Dataset, KernelSpec, normalize, subset
from cdfsvm.datagen import GaussianSpec2D, gen_gaussian_2d
from cdfsvm.distribution import v_matrix
from cdfsvm.evaluation import accuracy, vac
from cdfsvm.kernels import cross_gram, gram
from cdfsvm.modelsel import (GridSpec, METHODS, WeightConfig, cv_table,
                             fit_full, grid_search, kfold_split, rows_to_csv,
                             select_best)
from cdfsvm.solvers import (SolverConfig, SolverError, _score_with_cross,
                            _switch_budget, fit_eps_l1_vsvm, fit_vsvm, predict)
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
    assert lines[0].split(",")[-4:] == ["valid", "converged", "iterations",
                                        "interior_iterations"]
    assert [line.split(",")[-3] for line in lines[1:]] == ["False", "True"] * 3
    # the capped fits record their 5 pair steps; none reached the interior point
    assert [line.split(",")[-2:] for line in lines[1::2]] == [["5", "0"]] * 3


# ---------------------------------------------------------------------------
# the interior-first rule: a dual fit skips the pair-step budget when the
# previous gamma's fit of its (fold, sigma, delta, epsilon) was hard, or when
# the previous fold's fit of its (sigma, delta, gamma, epsilon) cell ran the
# interior point

HARD_GRID = dict(gammas=(1.0, 16.0, 256.0), deltas=(0.25,),
                 epsilons=(2.0**-4, 2.0**-2), sigmas=(0.5,), folds=5)


def recorded_flags(monkeypatch):
    flags = []

    def recording(**kwargs):
        cfg = SolverConfig(**kwargs)
        flags.append(cfg.interior_first)
        return cfg
    monkeypatch.setattr(modelsel, "SolverConfig", recording)
    return flags


def previous_rows(rows):
    """Per row, the previous-gamma, same-epsilon row of its (fold, sigma,
    delta), or None at the first gamma."""
    last, previous = {}, []
    for row in rows:
        key = (row["fold"], row["sigma"], row["delta"], row["epsilon"])
        previous.append(last.get(key))
        last[key] = row
    return previous


def previous_fold_rows(rows):
    """Per row, the same cell's row on the previous fold, or None on the
    first fold."""
    last, previous = {}, []
    for row in rows:
        key = (row["sigma"], row["delta"], row["gamma"], row["epsilon"])
        previous.append(last.get(key))
        last[key] = row
    return previous


def evidence(data, grid, rows):
    """Per row, (previous gamma, previous fold): whether its previous-gamma
    row ran more than 3 m pair steps, the rule at m <= 175, and whether its
    previous-fold row ran the interior point."""
    sizes = [tr.size for tr, _ in kfold_split(data.m, grid.folds, grid.seed, data.labels)]
    assert max(sizes) <= 175
    return [(prev is not None and prev["iterations"] > 3 * sizes[row["fold"]],
             before is not None and before["interior_iterations"] > 0)
            for row, prev, before in zip(rows, previous_rows(rows),
                                         previous_fold_rows(rows))]


def expected_flags(data, grid, rows):
    return [by_gamma or by_fold for by_gamma, by_fold in evidence(data, grid, rows)]


@pytest.mark.parametrize("method, seed", [("eps-l1vsvm", 10007), ("csvm", 6)])
def test_cv_table_starts_on_the_interior_point_after_a_hard_fit(monkeypatch, method,
                                                               seed):
    data = gen_gaussian_2d(GaussianSpec2D(n=100, seed=seed))
    grid = GridSpec(**HARD_GRID)
    flags = recorded_flags(monkeypatch)
    rows = cv_table(data, method, grid)
    assert flags == expected_flags(data, grid, rows)
    # a flagged fit ran no budget: it went to the interior point at once
    assert any(flags)
    assert all(row["interior_iterations"] > 0 for row, f in zip(rows, flags) if f)
    # a fit that ran many steps without switching is evidence too
    assert any(by_gamma and prev["interior_iterations"] == 0
               for prev, (by_gamma, _) in zip(previous_rows(rows),
                                              evidence(data, grid, rows)))


def test_a_cell_that_switched_on_the_previous_fold_starts_on_the_interior_point(
        monkeypatch, caplog):
    data = gen_gaussian_2d(GaussianSpec2D(n=100, seed=10007))
    grid = GridSpec(**HARD_GRID)
    models = []
    fit = modelsel.fit_eps_l1_vsvm

    def recording(*args):
        models.append(fit(*args))
        return models[-1]
    monkeypatch.setattr(modelsel, "fit_eps_l1_vsvm", recording)
    flags = recorded_flags(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="cdfsvm.solvers"):
        rows = cv_table(data, "eps-l1vsvm", grid)
    lines = [record.getMessage() for record in caplog.records]
    assert len(lines) == len(rows) == len(models)
    assert flags == expected_flags(data, grid, rows)
    by_fold_alone = [i for i, (by_gamma, by_fold) in enumerate(evidence(data, grid, rows))
                     if by_fold and not by_gamma]
    assert by_fold_alone and all(rows[i]["fold"] > 0 for i in by_fold_alone)
    assert all(flags[i] and ", 0 pair steps before the switch," in lines[i]
               for i in by_fold_alone)
    # refit cold: where that fit switches, the flagged one is the same fit
    # without the budget
    splits = kfold_split(data.m, grid.folds, grid.seed, labels=data.labels)
    wcfg = WeightConfig()
    switched_cold = 0
    for i in by_fold_alone:
        row = rows[i]
        train = subset(data, splits[row["fold"]][0])
        cold = fit(train, gram(KernelSpec.rbf(row["delta"]), train.features),
                   wcfg.weights_for(train.features, data.features, row["sigma"]),
                   SolverConfig(gamma=row["gamma"], epsilon=row["epsilon"]))
        if cold.interior_iterations == 0:
            continue
        switched_cold += 1
        model = models[i]
        assert np.array_equal(model.coefficients, cold.coefficients)
        assert model.intercept == cold.intercept
        assert model.converged == cold.converged
        assert model.interior_iterations == cold.interior_iterations
        assert model.iterations == cold.iterations - _switch_budget(train.m)
    assert switched_cold


def test_a_flagged_fit_is_judged_by_its_own_steps(monkeypatch):
    # no row after a flagged row is flagged by previous-gamma evidence: a
    # flagged fit's few polish steps are no sign of the next gamma's
    data = gen_gaussian_2d(GaussianSpec2D(n=100, seed=10007))
    grid = GridSpec(**HARD_GRID)
    flags = recorded_flags(monkeypatch)
    rows = cv_table(data, "eps-l1vsvm", grid)
    flagged = {id(row) for row, f in zip(rows, flags) if f}
    after_flagged = [(row, by_gamma) for row, prev, (by_gamma, _)
                     in zip(rows, previous_rows(rows), evidence(data, grid, rows))
                     if prev is not None and id(prev) in flagged]
    assert after_flagged and not any(by_gamma for _, by_gamma in after_flagged)
    assert any(row["interior_iterations"] > 0 for row, _ in after_flagged)


def test_a_fit_that_raised_leaves_no_evidence(monkeypatch):
    data = gen_gaussian_2d(GaussianSpec2D(n=100, seed=10007))
    grid = GridSpec(**HARD_GRID)
    fit = modelsel.fit_eps_l1_vsvm
    trains, failing_folds = [], set(range(grid.folds))

    def failing_at_16(train, K, v, cfg):
        if train not in trains:  # datasets compare by identity: one per fold
            trains.append(train)
        if cfg.gamma == 16.0 and trains.index(train) in failing_folds:
            raise SolverError("refused")
        return fit(train, K, v, cfg)
    monkeypatch.setattr(modelsel, "fit_eps_l1_vsvm", failing_at_16)
    flags = recorded_flags(monkeypatch)

    # on every fold: no gamma-256 row is flagged by previous-gamma evidence
    rows = cv_table(data, "eps-l1vsvm", grid)
    raised = [row for row in rows if not row["valid"]]
    assert raised and all(row["gamma"] == 16.0 for row in raised)
    assert all((row["iterations"], row["interior_iterations"]) == (0, 0) for row in raised)
    assert flags == expected_flags(data, grid, rows)
    assert not any(by_gamma for row, (by_gamma, _) in zip(rows, evidence(data, grid, rows))
                   if row["gamma"] == 256.0)

    # on fold 1 only: a gamma-16 cell that switched on fold 0 is not flagged
    # on fold 2
    failing_folds.intersection_update({1})
    trains.clear()
    flags.clear()
    rows = cv_table(data, "eps-l1vsvm", grid)
    assert [row["fold"] for row in rows if not row["valid"]] == [1, 1]
    assert flags == expected_flags(data, grid, rows)
    at_16 = {(row["fold"], row["epsilon"]): (row, f) for row, f in zip(rows, flags)
             if row["gamma"] == 16.0}
    eps = [e for e in grid.epsilons
           if at_16[0, e][0]["interior_iterations"] > 0 and at_16[1, e][1]]
    assert eps and not any(at_16[2, e][1] for e in eps)


# ---------------------------------------------------------------------------
# cv_table's loop nest: fold -> sigma -> delta -> gamma -> epsilon

WEIGHTED_GRID = dict(gammas=(0.5, 8.0), deltas=(0.5, 2.0), epsilons=(0.25,),
                     sigmas=(0.25, 1.0), folds=3)


def overlapping_dataset():
    return gen_gaussian_2d(GaussianSpec2D(n=48, seed=21))


@pytest.mark.parametrize("method", ["vsvm", "eps-l1vsvm"])
def test_cv_table_builds_each_weight_once_per_fold_and_sigma(monkeypatch, method):
    calls = collections.Counter()

    def counted(name):
        fn = getattr(modelsel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("gram", "cross_gram", "v_vector", "v_matrix", "fit_vsvm",
             "fit_eps_l1_vsvm")
    for name in names:
        monkeypatch.setattr(modelsel, name, counted(name))
    grid = GridSpec(**WEIGHTED_GRID)
    rows = cv_table(overlapping_dataset(), method, grid)
    folds, sigmas, deltas = grid.folds, len(grid.sigmas), len(grid.deltas)
    # v_vector also builds the Vac test weights once per table
    weights = {"vsvm": (1, folds * sigmas), "eps-l1vsvm": (1 + folds * sigmas, 0)}
    assert (calls["v_vector"], calls["v_matrix"]) == weights[method]
    assert calls["gram"] == calls["cross_gram"] == folds * sigmas * deltas
    assert calls["fit_vsvm"] + calls["fit_eps_l1_vsvm"] == len(rows)
    assert len(rows) == folds * sigmas * deltas * len(grid.gammas) * (
        len(grid.epsilons) if method == "eps-l1vsvm" else 1)


def fold_delta_sigma_rows(data, method, grid, wcfg):
    """Reference: the grid walked fold -> delta -> sigma, building the model
    weight for every (fold, delta, sigma) from the public builders; a tube
    fit starts on the interior point when its previous-gamma fit ran more
    than 3 m pair steps, the rule at m <= 175, or when its cell's fit on
    the previous fold ran the interior point."""
    splits = kfold_split(data.m, grid.folds, grid.seed, labels=data.labels)
    eval_v = wcfg.weights_for(data.features, data.features).values
    epsilons = grid.epsilons if method == "eps-l1vsvm" else (None,)
    switched = {}
    rows = []
    for fold, (tr, va) in enumerate(splits):
        train, y_val = subset(data, tr), data.labels[va]
        for delta in grid.deltas:
            K = gram(KernelSpec.rbf(delta), train.features)
            cross = cross_gram(KernelSpec.rbf(delta), train.features,
                               data.features[va])
            for sigma in grid.sigmas:
                if method == "vsvm":
                    V = v_matrix(train.features, wcfg.g_spec(sigma),
                                 wcfg.measure(data.features))
                else:
                    v = wcfg.weights_for(train.features, data.features, sigma)
                steps = dict.fromkeys(epsilons, 0)
                for gamma in grid.gammas:
                    for epsilon in epsilons:
                        cell = (sigma, delta, gamma, epsilon)
                        hard = steps[epsilon] > 3 * train.m or switched.get(cell, False)
                        model = (fit_vsvm(train, K, V, gamma) if method == "vsvm"
                                 else fit_eps_l1_vsvm(train, K, v, SolverConfig(
                                     gamma=gamma, epsilon=epsilon, interior_first=hard)))
                        steps[epsilon] = model.iterations
                        switched[cell] = model.interior_iterations > 0
                        pred = decide(_score_with_cross(model, cross))
                        rows.append(dict(
                            gamma=gamma, delta=delta, epsilon=epsilon,
                            sigma=sigma, fold=fold, acc=accuracy(y_val, pred),
                            vac=vac(y_val, pred, eval_v[va]), valid=True,
                            converged=model.converged, iterations=model.iterations,
                            interior_iterations=model.interior_iterations))
    return rows


@pytest.mark.parametrize("mu_kind", ["empirical", "uniform", "gaussian"])
@pytest.mark.parametrize("method", ["vsvm", "eps-l1vsvm"])
def test_cv_table_rows_match_the_fold_delta_sigma_walk(method, mu_kind):
    data = overlapping_dataset()
    grid = GridSpec(**WEIGHTED_GRID)
    wcfg = WeightConfig(mu_kind=mu_kind)
    rows = cv_table(data, method, grid, "rbf", wcfg)
    reference = fold_delta_sigma_rows(data, method, grid, wcfg)

    def as_multiset(table):
        return sorted(repr(sorted(row.items())) for row in table)
    assert as_multiset(rows) == as_multiset(reference)
    assert len({row["acc"] for row in rows}) > 1  # the cells do differ
    epsilons = grid.epsilons if method == "eps-l1vsvm" else (None,)
    order = [(r["fold"], r["sigma"], r["delta"], r["gamma"], r["epsilon"])
             for r in rows]
    assert order == list(itertools.product(range(grid.folds), grid.sigmas,
                                           grid.deltas, grid.gammas, epsilons))


def test_vsvm_rejects_the_additive_combine():
    # V_ij has no additive form; eps-l1vsvm's v-vector still takes one
    data = separable_dataset(seed=5)
    wcfg = WeightConfig(combine="additive")
    with pytest.raises(ValueError, match="additive"):
        cv_table(data, "vsvm", small_grid(), "rbf", wcfg)
    with pytest.raises(ValueError, match="additive"):
        fit_full(data, "vsvm", dict(gamma=1.0, delta=1.0, sigma=0.5), "rbf", wcfg)
    assert all(row["valid"] for row in cv_table(data, "eps-l1vsvm", small_grid(),
                                                "rbf", wcfg))


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
