import numpy as np
import pytest

from cdfsvm import bench
from cdfsvm.bench import (bayes_table_text, run_bayes_benchmark,
                          run_uci_benchmark, total_variation, uci_table_text,
                          write_bayes_csv, write_uci_csv)
from cdfsvm.core import Dataset, normalize
from cdfsvm.modelsel import GridSpec, WeightConfig
from cdfsvm.solvers import SolverError


def tiny_grid(**kw):
    defaults = dict(gammas=(0.5, 4.0), deltas=(1.0,), epsilons=(0.25,),
                    sigmas=(0.5,), folds=3, indicator="acc", seed=0)
    defaults.update(kw)
    return GridSpec(**defaults)


def blob_dataset(n=30, seed=0, name="blob"):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.7, 0.1, (n // 2, 3))
    neg = rng.normal(0.3, 0.1, (n // 2, 3))
    feats, scaler = normalize(np.vstack([pos, neg]))
    return Dataset(feats, np.array([1] * (n // 2) + [0] * (n // 2)), scaler, name)


def test_bayes_pseudo_method_distance_zero():
    cols = run_bayes_benchmark(n=20, repetitions=3, methods=("bayes",),
                               grid=tiny_grid(), indicators=("acc",), seed=0)
    summary = cols[("bayes", "acc")].summary(2.0, 0.0)
    assert summary["dist"] == 0.0
    assert summary["k_mean"] == 2.0 and summary["q_mean"] == 0.0


def test_bayes_benchmark_reproducible():
    kw = dict(n=40, repetitions=2, methods=("lssvm",), grid=tiny_grid(),
              wcfg=WeightConfig(mu_kind="uniform"), indicators=("acc",), seed=3)
    a = run_bayes_benchmark(**kw)
    b = run_bayes_benchmark(**kw)
    assert a[("lssvm", "acc")].ks == b[("lssvm", "acc")].ks
    assert a[("lssvm", "acc")].qs == b[("lssvm", "acc")].qs


def test_bayes_benchmark_both_indicators_share_fits():
    cols = run_bayes_benchmark(n=40, repetitions=2, methods=("lssvm", "bayes"),
                               grid=tiny_grid(), indicators=("acc", "vac"),
                               wcfg=WeightConfig(g_kind="step", mu_kind="gaussian"),
                               seed=1)
    assert len(cols) == 4
    assert len(cols[("lssvm", "acc")].ks) == 2
    assert len(cols[("lssvm", "vac")].ks) == 2
    text = bayes_table_text(cols)
    assert "lssvm" in text and "Dist" in text


def test_bayes_column_aborts_after_max_failures_failed_rounds(monkeypatch):
    # idlssvm fails on rounds 0, 2 and 4 with successes in between; the
    # failure count is never reset, so the third failure abandons the column
    calls = []
    real_cv_table = bench.cv_table

    def flaky_cv_table(data, method, grid, **kw):
        rep = grid.seed - 5
        calls.append((method, rep))
        if method == "idlssvm" and rep in (0, 2, 4):
            raise SolverError(f"injected failure in round {rep}")
        return real_cv_table(data, method, grid, **kw)

    monkeypatch.setattr(bench, "cv_table", flaky_cv_table)
    cols = run_bayes_benchmark(n=40, repetitions=6, methods=("lssvm", "idlssvm"),
                               grid=tiny_grid(), indicators=("acc",), seed=5)
    failing, other = cols[("idlssvm", "acc")], cols[("lssvm", "acc")]
    assert failing.failures == 3 and failing.aborted
    assert len(failing.ks) == 2  # rounds 1 and 3
    assert [rep for method, rep in calls if method == "idlssvm"] == [0, 1, 2, 3, 4]
    assert [rep for method, rep in calls if method == "lssvm"] == list(range(6))
    assert other.failures == 0 and not other.aborted and len(other.ks) == 6


def test_bayes_csv_audit_lines(tmp_path):
    cols = run_bayes_benchmark(n=20, repetitions=2, methods=("bayes",),
                               grid=tiny_grid(), indicators=("acc",), seed=0)
    path = tmp_path / "reps.csv"
    write_bayes_csv(cols, path, header_comment="n=20")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# n=20"
    assert lines[1] == "method,indicator,repetition,k,q"
    assert len(lines) == 4


def test_uci_benchmark_single_cell_table(tmp_path):
    data = blob_dataset()
    rows = run_uci_benchmark([("blob", data)], ("lssvm",),
                             tiny_grid(gammas=(1.0,)), kernel_kind="linear")
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "ok"
    assert 0.0 <= row.gmean_mean <= 1.0
    text = uci_table_text(rows)
    assert "blob" in text
    write_uci_csv(rows, tmp_path / "uci.csv", "cfg=x")
    assert (tmp_path / "uci.csv").read_text().startswith("# cfg=x")


def test_uci_benchmark_add_method_adds_rows():
    data = blob_dataset(seed=2)
    one = run_uci_benchmark([("blob", data)], ("lssvm",), tiny_grid(), "linear")
    two = run_uci_benchmark([("blob", data)], ("lssvm", "csvm"), tiny_grid(),
                            "linear")
    assert len(two) == len(one) + 1
    assert two[0].gmean_mean == one[0].gmean_mean  # existing row unchanged


def test_uci_benchmark_skips_unreadable():
    data = blob_dataset(seed=3)
    rows = run_uci_benchmark([("bad", ValueError("no such file")),
                              ("blob", data)], ("lssvm",), tiny_grid(), "linear")
    assert rows[0].status.startswith("skipped")
    assert rows[1].status == "ok"


def test_total_variation():
    assert total_variation([0.0, 1.0, 0.0]) == 2.0
    assert total_variation(np.linspace(0, 1, 50)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        total_variation([1.0])
