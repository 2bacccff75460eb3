import argparse
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from cdfsvm import cli
from cdfsvm.cli import main
from cdfsvm.core import decide
from cdfsvm.datagen import GaussianSpec2D, gen_gaussian_2d, load_csv
from cdfsvm.evaluation import vac
from cdfsvm.modelsel import fit_full
from cdfsvm.solvers import load_model, predict, save_model


def run_cli(*args):
    return main([str(a) for a in args])


def test_synth_deterministic_and_reloadable(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run_cli("synth", "--kind", "gauss2d", "--n", 100, "--seed", 7,
                   "--out", out) == 0
    first = out.read_bytes()
    printed = capsys.readouterr().out
    assert "x2 = 2*x1 + 0" in printed
    assert run_cli("synth", "--kind", "gauss2d", "--n", 100, "--seed", 7,
                   "--out", out) == 0
    assert out.read_bytes() == first  # byte-identical rerun

    from cdfsvm.datagen import load_csv
    data = load_csv(out)
    assert data.m == 100 and data.d == 2


def test_synth_robust1d_posterior_line(tmp_path, capsys):
    out = tmp_path / "r1d.csv"
    assert run_cli("synth", "--kind", "robust1d", "--n", 50, "--seed", 1,
                   "--out", out) == 0
    printed = capsys.readouterr().out
    assert "P(y=1|x) = 1/(1+exp(2*x))" in printed


def make_toy_csv(path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal([2.0, 5.0], 0.3, (n // 2, 2))
    neg = rng.normal([0.0, 1.0], 0.3, (n // 2, 2))
    raw = np.vstack([pos, neg])
    labels = [1] * (n // 2) + [-1] * (n // 2)
    lines = [f"{float(x[0])!r},{float(x[1])!r},{y}" for x, y in zip(raw, labels)]
    path.write_text("\n".join(lines) + "\n")


def test_fit_separable_perfect_report(tmp_path, capsys):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path)
    out_dir = tmp_path / "run"
    assert run_cli("fit", "--dataset", csv_path, "--method", "eps-l1vsvm",
                   "--kernel", "linear", "--gamma", 4.0, "--seed", 0,
                   "--out-dir", out_dir) == 0
    printed = capsys.readouterr().out
    assert "1.0000" in printed
    report = (out_dir / "report-eps-l1vsvm.csv").read_text()
    assert report.startswith("# dataset=")
    model_file = out_dir / "model-eps-l1vsvm.json"
    payload = json.loads(model_file.read_text())
    assert payload["format"] == "cdfsvm-model"


def test_fit_warns_on_a_non_converged_model(tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path)
    args = ("fit", "--dataset", csv_path, "--method", "eps-l1vsvm",
            "--kernel", "linear", "--gamma", 4.0)
    assert run_cli(*args, "--out-dir", tmp_path / "ok") == 0
    assert capsys.readouterr().err == ""

    def stopped_early(*fit_args):
        return dataclasses.replace(fit_full(*fit_args), converged=False)

    monkeypatch.setattr(cli, "fit_full", stopped_early)
    out_dir = tmp_path / "capped"
    assert run_cli(*args, "--out-dir", out_dir) == 0  # exit code unchanged
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: the eps-l1vsvm fit stopped")
    payload = json.loads((out_dir / "model-eps-l1vsvm.json").read_text())
    assert payload["converged"] is False


def test_fit_report_names_every_option(tmp_path):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=4)
    out_dir = tmp_path / "run"
    assert run_cli("fit", "--dataset", csv_path, "--method", "lssvm",
                   "--out-dir", out_dir) == 0
    first = (out_dir / "report-lssvm.csv").read_text().splitlines()[0]
    named = re.findall(r"(?:^# | )(\w+)=", first)
    assert named == [key for key in cli._defaults("fit") if key != "out_dir"]


def test_fit_point_mass_weights_match_unweighted(tmp_path):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=5)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert run_cli("fit", "--dataset", csv_path, "--method", "eps-l1vsvm",
                   "--mu", "point-mass", "--kernel", "rbf", "--gamma", 2.0,
                   "--out-dir", dir_a) == 0
    assert run_cli("fit", "--dataset", csv_path, "--method", "eps-l1svm",
                   "--kernel", "rbf", "--gamma", 2.0, "--out-dir", dir_b) == 0
    a = json.loads((dir_a / "model-eps-l1vsvm.json").read_text())
    b = json.loads((dir_b / "model-eps-l1svm.json").read_text())
    assert a["coefficients"] == b["coefficients"]  # byte-identical numbers
    assert a["intercept"] == b["intercept"]


def test_fit_with_external_test_file(tmp_path, capsys):
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    make_toy_csv(train_path, n=30, seed=21)
    make_toy_csv(test_path, n=20, seed=22)
    out_dir = tmp_path / "run"
    assert run_cli("fit", "--dataset", train_path, "--test-file", test_path,
                   "--method", "eps-l1vsvm", "--kernel", "linear",
                   "--gamma", 4.0, "--out-dir", out_dir) == 0
    assert (out_dir / "model-eps-l1vsvm.json").exists()
    assert "1.0000" in capsys.readouterr().out  # separable either way


def test_fit_test_file_vac_normalizes_over_whole_sample(tmp_path):
    # the test rows' weights are divided by the maximum over train and test
    # rows together, as cross-validation and the split path do
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    assert run_cli("synth", "--n", 40, "--seed", 1, "--out", train_path) == 0
    assert run_cli("synth", "--n", 12, "--seed", 2, "--out", test_path) == 0
    out_dir = tmp_path / "run"
    assert run_cli("fit", "--dataset", train_path, "--test-file", test_path,
                   "--method", "lssvm", "--out-dir", out_dir) == 0
    report = (out_dir / "report-lssvm.csv").read_text().splitlines()
    header, row = report[1].split(","), report[2].split(",")
    train = load_csv(train_path)
    test = load_csv(test_path, scaler=train.scaler)
    model = load_model(out_dir / "model-lssvm.json")
    pred = decide(predict(model, test.features))
    refs = np.vstack([train.features, test.features])
    wcfg = cli._weight_config(argparse.Namespace(**cli._defaults("fit")))
    v_t = wcfg.weights_for(refs, refs).values[train.m:]
    assert float(row[header.index("vac")]) == vac(test.labels, pred, v_t)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1, 2], "not a cdfsvm-model document"),
    (lambda doc: {"format": "cdfsvm-model", "version": 1, "family": "dual"},
     "unsupported model version 1"),
    (lambda doc: {**{k: v for k, v in doc.items()
                     if k not in ("iterations", "interior_iterations")}, "version": 2},
     "unsupported model version 2"),
    (lambda doc: {k: v for k, v in doc.items() if k not in ("coefficients", "caps")},
     "model document lacks coefficients, caps"),
    (lambda doc: {**doc, "kernel": {}}, "malformed model document"),
    (lambda doc: {**doc, "scaler": [0.0]}, "malformed model document"),
    (lambda doc: {**doc, "intercept": [0.5]}, "malformed model document"),
    (lambda doc: {**doc, "score_scale": "2"}, "malformed model document"),
    (lambda doc: {**doc, "converged": "false"}, "malformed model document"),
], ids=["not-object", "version-1", "version-2", "missing-fields", "kernel", "scaler", "intercept",
        "score-scale-str", "converged-str"])
def test_predict_malformed_model_is_an_error(tmp_path, capsys, edit, message):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=9)
    out_dir = tmp_path / "run"
    assert run_cli("fit", "--dataset", csv_path, "--method", "lssvm",
                   "--out-dir", out_dir) == 0
    model_path = out_dir / "model-lssvm.json"
    model_path.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
    assert run_cli("predict", "--model", model_path, "--dataset", csv_path,
                   "--out", tmp_path / "pred.csv") == 2
    assert "error: " + message in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("frac, rows", [(0.3, 60), (0.6, 120), (0.8, 160)])
def test_train_frac_trains_on_that_share_of_each_class(frac, rows):
    data = gen_gaussian_2d(GaussianSpec2D(n=200, seed=5))
    ns = argparse.Namespace(test_file="", train_frac=frac, seed=3)
    train, test = cli._split_train_test(data, ns)
    assert (train.m, test.m) == (rows, 200 - rows)
    assert train.has_both_classes and test.has_both_classes
    assert sorted(np.vstack([train.features, test.features]).tolist()) == \
        sorted(data.features.tolist())
    again, _ = cli._split_train_test(data, ns)
    assert np.array_equal(again.features, train.features)


def test_fit_rerun_same_seed_identical_report(tmp_path):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=6)
    out_dir = tmp_path / "run"
    run_cli("fit", "--dataset", csv_path, "--method", "lssvm", "--gamma", 1.0,
            "--seed", 3, "--out-dir", out_dir)
    first = (out_dir / "report-lssvm.csv").read_text()
    run_cli("fit", "--dataset", csv_path, "--method", "lssvm", "--gamma", 1.0,
            "--seed", 3, "--out-dir", out_dir)
    assert (out_dir / "report-lssvm.csv").read_text() == first


def test_predict_round_trip(tmp_path):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=7)
    out_dir = tmp_path / "run"
    run_cli("fit", "--dataset", csv_path, "--method", "csvm", "--kernel",
            "linear", "--gamma", 8.0, "--out-dir", out_dir)
    pred_path = tmp_path / "pred.csv"
    assert run_cli("predict", "--model", out_dir / "model-csvm.json",
                   "--dataset", csv_path, "--out", pred_path) == 0
    lines = pred_path.read_text().strip().splitlines()
    assert lines[0] == "index,score,label"
    assert len(lines) == 41
    labels = np.array([int(line.split(",")[2]) for line in lines[1:]])
    assert set(labels.tolist()) == {0, 1}


def test_predict_warns_on_a_non_converged_model(tmp_path, capsys):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=7)
    out_dir = tmp_path / "run"
    assert run_cli("fit", "--dataset", csv_path, "--method", "eps-l1vsvm",
                   "--kernel", "linear", "--gamma", 4.0, "--out-dir", out_dir) == 0
    model_path = out_dir / "model-eps-l1vsvm.json"
    args = ("predict", "--dataset", csv_path)
    assert run_cli(*args, "--model", model_path, "--out", tmp_path / "ok.csv") == 0
    assert capsys.readouterr().err == ""

    capped_path = tmp_path / "capped.json"
    save_model(dataclasses.replace(load_model(model_path), converged=False),
               capped_path)
    assert run_cli(*args, "--model", capped_path,
                   "--out", tmp_path / "capped.csv") == 0  # exit code unchanged
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: the eps-l1vsvm model")
    assert (tmp_path / "capped.csv").read_bytes() == (tmp_path / "ok.csv").read_bytes()


def test_cv_single_cell_echo(tmp_path, capsys):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=8)
    out_dir = tmp_path / "cv"
    assert run_cli("cv", "--dataset", csv_path, "--method", "lssvm",
                   "--kernel", "linear", "--gammas", "2.0", "--folds", 3,
                   "--out-dir", out_dir) == 0
    printed = capsys.readouterr().out
    assert "'gamma': 2.0" in printed
    best = (out_dir / "cv-best.txt").read_text()
    assert "gamma=2.0" in best
    table = (out_dir / "cv-table.csv").read_text()
    assert table.splitlines()[1].startswith("gamma,")


def test_cv_deterministic(tmp_path):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=9)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("cv", "--dataset", csv_path, "--method", "eps-l1svm", "--kernel",
            "linear", "--gammas", "0.5,4.0", "--epsilons", "0.25", "--folds",
            3, "--seed", 11)
    run_cli(*args, "--out-dir", out_a)
    run_cli(*args, "--out-dir", out_b)
    assert (out_a / "cv-table.csv").read_text() == (out_b / "cv-table.csv").read_text()


def test_cv_vsvm_rejects_the_additive_combine(tmp_path, capsys):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=13)
    assert run_cli("cv", "--dataset", csv_path, "--method", "vsvm",
                   "--combine", "additive", "--gammas", "1.0", "--deltas", "1.0",
                   "--sigmas", "0.5", "--folds", 3,
                   "--out-dir", tmp_path / "cv") == 2
    assert "error: vsvm's V-matrix has no additive combine form" in capsys.readouterr().err


def test_cv_vac_indicator(tmp_path, capsys):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=12)
    out_dir = tmp_path / "cv"
    assert run_cli("cv", "--dataset", csv_path, "--method", "lssvm",
                   "--kernel", "linear", "--indicator", "vac",
                   "--gammas", "0.5,4.0", "--folds", 3,
                   "--out-dir", out_dir) == 0
    assert "CV vac" in capsys.readouterr().out
    assert "cv_vac=" in (out_dir / "cv-best.txt").read_text()


def test_bench_bayes_both_indicators(tmp_path):
    out_dir = tmp_path / "bench"
    assert run_cli("bench-bayes", "--methods", "bayes", "--n", 20,
                   "--repetitions", 2, "--indicator", "both",
                   "--out-dir", out_dir) == 0
    table = (out_dir / "bench-bayes-table.txt").read_text()
    assert "acc" in table and "vac" in table


def test_bench_bayes_oracle_only(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert run_cli("bench-bayes", "--methods", "bayes", "--n", 20,
                   "--repetitions", 2, "--out-dir", out_dir) == 0
    printed = capsys.readouterr().out
    assert "0.0000" in printed  # exact zero distance
    reps = (out_dir / "bench-bayes-reps.csv").read_text()
    assert reps.count("bayes,acc") == 2


def test_bench_bayes_reproducible_table(tmp_path):
    args = ("bench-bayes", "--methods", "lssvm,bayes", "--n", 40,
            "--repetitions", 2, "--folds", 3, "--gammas", "1.0", "--seed", 5,
            "--mu", "uniform")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(*args, "--out-dir", out_a)
    run_cli(*args, "--out-dir", out_b)
    assert ((out_a / "bench-bayes-table.txt").read_text()
            == (out_b / "bench-bayes-table.txt").read_text())


def test_bench_uci_one_by_one_table(tmp_path, capsys):
    csv_path = tmp_path / "toy.csv"
    make_toy_csv(csv_path, seed=10)
    out_dir = tmp_path / "uci"
    assert run_cli("bench-uci", "--datasets", csv_path, "--methods", "lssvm",
                   "--kernel", "linear", "--gammas", "1.0", "--folds", 3,
                   "--out-dir", out_dir) == 0
    table = (out_dir / "bench-uci-table.txt").read_text()
    assert "toy.csv" in table and "lssvm" in table


def test_bench_uci_missing_dataset_nonzero_exit(tmp_path, capsys):
    out_dir = tmp_path / "uci"
    code = run_cli("bench-uci", "--datasets", tmp_path / "nope.csv",
                   "--methods", "lssvm", "--gammas", "1.0", "--folds", 3,
                   "--out-dir", out_dir)
    assert code == 1
    err = capsys.readouterr().err
    assert "skipping" in err
    table = (out_dir / "bench-uci-table.txt").read_text()
    assert "skipped" in table


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=gauss2d\nn=60\nseed=2\nout=from_cfg.csv\n")
    out_flag = tmp_path / "flag.csv"
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert run_cli("synth", "--config", cfg, "--out", out_flag) == 0
        assert out_flag.exists()  # flag wins over the config value
        assert not (tmp_path / "from_cfg.csv").exists()
        assert run_cli("synth", "--config", cfg) == 0
        assert (tmp_path / "from_cfg.csv").exists()
    finally:
        os.chdir(cwd)
    from cdfsvm.datagen import load_csv
    assert load_csv(out_flag).m == 60  # n came from the config file


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    assert run_cli("synth", "--config", cfg) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("gammas=,", "argument --gammas: expected a comma-separated float list"),
    ("kernel=poly", "argument --kernel: invalid choice: 'poly'"),
    ("indicator=both", "argument --indicator: invalid choice: 'both'"),
])
def test_config_values_checked_as_flags(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("cv", "--dataset", tmp_path / "unused.csv", "--config", cfg)
    assert exc.value.code == 2
    assert "error: " + message in capsys.readouterr().err


def test_cli_error_exit_code(tmp_path, capsys):
    assert run_cli("fit", "--dataset", tmp_path / "missing.csv") == 2
    assert "error:" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    import subprocess
    import sys
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cdfsvm.cli", "synth", "--n", "10",
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "Bayes boundary" in proc.stdout


# ---------------------------------------------------------------------------
# option defaults, config files and staged writes

GAMMAS = tuple(2.0**k for k in range(-8, 9))
DELTAS = tuple(2.0**k for k in range(-4, 5))
EPSILONS = (0.0625, 0.125, 0.25)
SIGMAS = DELTAS

EXPECTED_DEFAULTS = {
    "synth": dict(kind="gauss2d", n=200, seed=0, out="dataset.csv"),
    "fit": dict(dataset="", method="eps-l1vsvm", kernel="rbf", gamma=1.0,
                delta=1.0, epsilon=0.25, sigma=1.0, g_kernel="gaussian",
                mu="empirical", combine="product", sigma_eval=1.0,
                test_file="", train_frac=0.8, seed=0, out_dir=".",
                label_column=-1, positive_label=""),
    "predict": dict(model="", dataset="", out="predictions.csv",
                    label_column=-1, positive_label=""),
    "cv": dict(dataset="", method="eps-l1vsvm", kernel="rbf", indicator="acc",
               folds=10, seed=0, gammas=GAMMAS, deltas=DELTAS,
               epsilons=EPSILONS, sigmas=SIGMAS, g_kernel="gaussian",
               mu="empirical", combine="product", sigma_eval=1.0, out_dir=".",
               label_column=-1, positive_label=""),
    "bench-bayes": dict(n=200, repetitions=100, methods="eps-l1vsvm,lssvm",
                        indicator="acc", seed=0, folds=10, gammas=GAMMAS,
                        deltas=(1.0,), epsilons=EPSILONS, sigmas=SIGMAS,
                        g_kernel="gaussian", mu="uniform", combine="product",
                        sigma_eval=1.0, out_dir="."),
    "bench-uci": dict(datasets="", methods="eps-l1svm,eps-l1vsvm",
                      kernel="rbf", indicator="acc", folds=10, seed=0,
                      gammas=GAMMAS, deltas=DELTAS, epsilons=EPSILONS,
                      sigmas=SIGMAS, g_kernel="gaussian", mu="empirical",
                      combine="product", sigma_eval=1.0, out_dir=".",
                      label_column=-1, positive_label=""),
}

# key: (config-file text, parsed value); every value differs from every default
CONFIG_VALUES = {
    "kind": ("robust1d", "robust1d"),
    "n": ("60", 60),
    "seed": ("7", 7),
    "out": ("o.csv", "o.csv"),
    "dataset": ("d.csv", "d.csv"),
    "model": ("m.json", "m.json"),
    "datasets": ("a.csv,b.csv", "a.csv,b.csv"),
    "method": ("lssvm", "lssvm"),
    "methods": ("csvm,bayes", "csvm,bayes"),
    "kernel": ("linear", "linear"),
    "indicator": ("vac", "vac"),
    "gamma": ("2", 2.0),
    "delta": ("0.5", 0.5),
    "epsilon": ("0.125", 0.125),
    "sigma": ("3", 3.0),
    "g_kernel": ("step", "step"),
    "mu": ("point-mass", "point-mass"),
    "combine": ("additive", "additive"),
    "sigma_eval": ("0.25", 0.25),
    "test_file": ("t.csv", "t.csv"),
    "train_frac": ("0.5", 0.5),
    "out_dir": ("runs", "runs"),
    "label_column": ("0", 0),
    "positive_label": ("yes", "yes"),
    "folds": ("3", 3),
    "repetitions": ("5", 5),
    "gammas": ("1,4", (1.0, 4.0)),
    "deltas": ("0.5", (0.5,)),
    "epsilons": ("0.25,", (0.25,)),
    "sigmas": ("2, 8", (2.0, 8.0)),
}


def merged_namespace(monkeypatch, command, *args):
    """The namespace ``main`` hands to a subcommand, captured in its place."""
    seen = []
    entry = cli._SUBCOMMANDS[command]
    capture = lambda ns: seen.append(vars(ns)) or 0  # noqa: E731
    monkeypatch.setitem(cli._SUBCOMMANDS, command, (capture,) + tuple(entry[1:]))
    assert run_cli(command, *args) == 0
    return seen[0]


def typed(values):
    # repr tells 1 from 1.0 and "1", also inside tuples
    return {key: repr(value) for key, value in values.items()}


@pytest.mark.parametrize("command", sorted(EXPECTED_DEFAULTS))
def test_merged_defaults_per_command(monkeypatch, command):
    merged = merged_namespace(monkeypatch, command)
    assert typed(merged) == typed(EXPECTED_DEFAULTS[command])


@pytest.mark.parametrize("command", sorted(EXPECTED_DEFAULTS))
def test_config_file_sets_every_key(monkeypatch, tmp_path, command):
    keys = list(EXPECTED_DEFAULTS[command])
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key}={CONFIG_VALUES[key][0]}\n" for key in keys))
    expected = {key: CONFIG_VALUES[key][1] for key in keys}
    assert all(expected[k] != EXPECTED_DEFAULTS[command][k] for k in keys)
    merged = merged_namespace(monkeypatch, command, "--config", cfg)
    assert typed(merged) == typed(expected)


def test_staged_write_failure_leaves_target_untouched(tmp_path):
    target = tmp_path / "table.csv"
    target.write_text("old\n")

    def failing_writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        cli._staged(str(target), failing_writer)
    assert target.read_text() == "old\n"
    with pytest.raises(RuntimeError):
        cli._staged(str(tmp_path / "fresh.csv"), failing_writer)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_staged_write_text_and_writer(tmp_path):
    text_target, file_target = tmp_path / "best.txt", tmp_path / "rows.csv"

    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")

    cli._staged(str(text_target), "a=1\n")
    cli._staged(str(file_target), writer)
    assert text_target.read_text() == "a=1\n"
    assert file_target.read_text() == "x,y\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.txt", "rows.csv"]
