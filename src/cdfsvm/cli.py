"""Command-line surface: synth | fit | predict | cv | bench-bayes | bench-uci.

Each option is declared once, in ``_OPTIONS``, and each subcommand lists
the options it takes in ``_SUBCOMMANDS``. Every flag has a matching key in
an optional flat key=value config file (--config), whose values are parsed
as flags are; explicit flags override file values. Commands are
deterministic given their full flag set including the seed. Results go to
stdout and the output files; diagnostics go to stderr; the exit code is 0
only when all requested work completed.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from .bench import (bayes_table_text, run_bayes_benchmark, run_uci_benchmark,
                    uci_table_text, write_bayes_csv, write_uci_csv)
from .core import decide, subset
from .datagen import (GaussianSpec2D, Robustness1DSpec, bayes_boundary_2d,
                      gen_gaussian_2d, load_csv, sample_gaussian_2d,
                      sample_robustness_1d, save_csv)
from .evaluation import evaluate, format_report_table, reports_to_csv
from .modelsel import (GridSpec, METHODS, WeightConfig, fit_full, grid_search,
                       rows_to_csv)
from .solvers import SolverError, load_model, predict, save_model

def _staged(path: str, content) -> None:
    """Write ``path`` through a temp file beside it, then rename into place.

    ``content`` is the text to write, or a function that writes a file at
    the temp path it is given. If it raises, ``path`` is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    os.close(fd)
    try:
        if isinstance(content, str):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            content(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(tok) for tok in _comma_list(text))
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated float list")
    return values


def _config_values(parser, command: str, path: str) -> dict:
    """Options set in a flat key=value file, parsed as the subcommand's own
    flags, so they pass the same converters and choices checks."""
    names = _defaults(command)
    args = [command]
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            args.append(f"--{key.replace('_', '-')}={value.strip()}")
    values = vars(parser.parse_args(args))
    del values["command"]
    return values


def _load(ns, path: str, scaler=None):
    return load_csv(path, label_column=ns.label_column,
                    positive_label=ns.positive_label or None, scaler=scaler)


def _weight_config(ns) -> WeightConfig:
    return WeightConfig(g_kind=ns.g_kernel,
                        mu_kind=ns.mu.replace("-", "_"),
                        combine=ns.combine,
                        sigma_eval=ns.sigma_eval)


def _grid_spec(ns, indicator: str) -> GridSpec:
    return GridSpec(gammas=ns.gammas, deltas=ns.deltas, epsilons=ns.epsilons,
                    sigmas=ns.sigmas, folds=ns.folds, indicator=indicator,
                    seed=ns.seed)


def _provenance(ns, command: str) -> str:
    """The subcommand's options but the output directory, as key=value."""
    return " ".join(f"{k}={getattr(ns, k)}" for k in _defaults(command)
                    if k != "out_dir")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(ns) -> int:
    if ns.kind == "gauss2d":
        spec = GaussianSpec2D(n=ns.n, seed=ns.seed)
        raw, labels = sample_gaussian_2d(spec)
        line = bayes_boundary_2d(spec)
        info = f"Bayes boundary: x2 = {line.slope:g}*x1 + {line.intercept:g}"
    else:  # robust1d
        spec = Robustness1DSpec(n=ns.n, seed=ns.seed)
        raw, labels = sample_robustness_1d(spec)
        coef = (spec.center_neg - spec.center_pos) / spec.var
        shift = (spec.center_pos**2 - spec.center_neg**2) / (2.0 * spec.var)
        if shift == 0.0:
            info = f"Bayes posterior: P(y=1|x) = 1/(1+exp({coef:g}*x))"
        else:
            info = f"Bayes posterior: P(y=1|x) = 1/(1+exp({coef:g}*x + {-shift:g}))"
    _staged(ns.out, lambda tmp: save_csv(tmp, raw, labels))
    print(f"wrote {ns.out} ({raw.shape[0]} rows, {raw.shape[1]} features)")
    print(info)
    return 0


def _split_train_test(data, ns):
    """(train, test): all of data and the rows of the separate test file,
    or a stratified split that trains on round(train_frac * n_c) rows of each
    class (at least one, at most n_c - 1), drawn by a permutation from the
    seed."""
    if ns.test_file:
        return data, _load(ns, ns.test_file, data.scaler)
    if not 0.0 < ns.train_frac < 1.0:
        raise ValueError("train_frac must lie strictly between 0 and 1")
    rng = np.random.default_rng(ns.seed)
    train = np.zeros(data.m, dtype=bool)
    for value in np.unique(data.labels):
        rows = rng.permutation(np.flatnonzero(data.labels == value))
        take = min(max(round(ns.train_frac * rows.size), 1), rows.size - 1)
        train[rows[:take]] = True
    return subset(data, np.flatnonzero(train)), subset(data, np.flatnonzero(~train))


def _cmd_fit(ns) -> int:
    data = _load(ns, ns.dataset)
    train, test = _split_train_test(data, ns)
    wcfg = _weight_config(ns)
    params = dict(gamma=ns.gamma, delta=ns.delta, epsilon=ns.epsilon,
                  sigma=ns.sigma)
    model = fit_full(train, ns.method, params, ns.kernel, wcfg)
    if not model.converged:
        print(f"warning: the {ns.method} fit stopped before the KKT tolerance "
              "(max_iter or a stall); the model is written as it stands",
              file=sys.stderr)
    pred = decide(predict(model, test.features))
    # weights are normalized over the whole sample, train and test rows, as
    # in cross-validation
    refs = np.vstack([train.features, test.features])
    v_t = wcfg.weights_for(refs, refs).values[train.m:]
    v_provenance = f"g={ns.g_kernel} mu={ns.mu} sigma_eval={ns.sigma_eval}"
    if np.any(v_t <= 0.0):
        # vanishing step-kernel weights: Vac is undefined, report plain Acc
        v_t, v_provenance = None, v_provenance + " (degenerate weights; vac=acc)"
    report = evaluate(test.labels, pred, v_t, v_provenance=v_provenance)
    os.makedirs(ns.out_dir, exist_ok=True)
    model_path = os.path.join(ns.out_dir, f"model-{ns.method}.json")
    report_path = os.path.join(ns.out_dir, f"report-{ns.method}.csv")
    _staged(model_path, lambda tmp: save_model(model, tmp))
    provenance = _provenance(ns, "fit")
    _staged(report_path,
            lambda tmp: reports_to_csv({ns.method: report}, tmp, provenance))
    print(format_report_table({ns.method: report}))
    print(f"model: {model_path}")
    print(f"report: {report_path}")
    return 0


def _cmd_predict(ns) -> int:
    model = load_model(ns.model)
    if not model.converged:
        print(f"warning: the {model.method} model in {ns.model} stopped before "
              "the KKT tolerance when it was fitted; predicting with it as it "
              "stands", file=sys.stderr)
    data = _load(ns, ns.dataset, model.scaler)
    scores = predict(model, data.features)
    labels = decide(scores)
    lines = ["index,score,label"]
    lines += [f"{i},{float(s)!r},{int(l)}"
              for i, (s, l) in enumerate(zip(scores, labels))]
    _staged(ns.out, "\n".join(lines) + "\n")
    print(f"wrote {ns.out} ({len(labels)} rows)")
    return 0


def _cmd_cv(ns) -> int:
    data = _load(ns, ns.dataset)
    result = grid_search(data, ns.method, _grid_spec(ns, ns.indicator),
                         ns.kernel, _weight_config(ns))
    failed = sum(not row["valid"] for row in result.rows)
    stopped = sum(row["valid"] and not row["converged"] for row in result.rows)
    if failed or stopped:
        print(f"warning: {failed} of {len(result.rows)} fits failed and {stopped} "
              "stopped before the KKT tolerance; their cells were not selectable",
              file=sys.stderr)
    os.makedirs(ns.out_dir, exist_ok=True)
    provenance = _provenance(ns, "cv")
    table_path = os.path.join(ns.out_dir, "cv-table.csv")
    _staged(table_path, lambda tmp: rows_to_csv(result.rows, tmp, provenance))
    best_path = os.path.join(ns.out_dir, "cv-best.txt")
    best_lines = [f"# {provenance}"]
    best_lines += [f"{key}={value}" for key, value in sorted(result.best.items())
                   if value is not None]
    best_lines.append(f"cv_{result.indicator}={result.score!r}")
    _staged(best_path, "\n".join(best_lines) + "\n")
    shown = {k: v for k, v in result.best.items() if v is not None}
    print(f"best {shown} with CV {result.indicator} = {result.score:.4f}")
    print(f"table: {table_path}")
    print(f"best config: {best_path}")
    return 0


def _cmd_bench_bayes(ns) -> int:
    methods = _comma_list(ns.methods)
    for method in methods:
        if method not in METHODS + ("bayes",):
            raise ValueError(f"unknown method {method!r}")
    indicators = ("acc", "vac") if ns.indicator == "both" else (ns.indicator,)
    columns = run_bayes_benchmark(ns.n, ns.repetitions, methods,
                                  _grid_spec(ns, indicators[0]),
                                  wcfg=_weight_config(ns),
                                  indicators=indicators, seed=ns.seed)
    os.makedirs(ns.out_dir, exist_ok=True)
    provenance = _provenance(ns, "bench-bayes")
    reps_path = os.path.join(ns.out_dir, "bench-bayes-reps.csv")
    _staged(reps_path, lambda tmp: write_bayes_csv(columns, tmp, provenance))
    table = bayes_table_text(columns)
    _staged(os.path.join(ns.out_dir, "bench-bayes-table.txt"),
            f"# {provenance}\n{table}\n")
    print(table)
    print(f"per-repetition lines: {reps_path}")
    aborted = [key for key, col in columns.items() if col.aborted]
    for key in aborted:
        print(f"warning: column {key} aborted after repeated failures",
              file=sys.stderr)
    return 1 if aborted else 0


def _cmd_bench_uci(ns) -> int:
    paths = _comma_list(ns.datasets)
    if not paths:
        raise ValueError("no datasets given")
    methods = _comma_list(ns.methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    loaded = []
    for path in paths:
        try:
            loaded.append((os.path.basename(path), _load(ns, path)))
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            loaded.append((os.path.basename(path), exc))
    rows = run_uci_benchmark(loaded, methods, _grid_spec(ns, ns.indicator),
                             ns.kernel, _weight_config(ns))
    os.makedirs(ns.out_dir, exist_ok=True)
    provenance = _provenance(ns, "bench-uci")
    csv_path = os.path.join(ns.out_dir, "bench-uci.csv")
    _staged(csv_path, lambda tmp: write_uci_csv(rows, tmp, provenance))
    table = uci_table_text(rows)
    _staged(os.path.join(ns.out_dir, "bench-uci-table.txt"),
            f"# {provenance}\n{table}\n")
    print(table)
    print(f"csv: {csv_path}")
    return 1 if any(row.status != "ok" for row in rows) else 0


# ---------------------------------------------------------------------------
# argument wiring

_GRID = GridSpec()

# Every option's default, declared once. The default's type converts flag
# and config-file text; a tuple default takes a comma-separated float list.
_OPTIONS = dict(
    kind="gauss2d", n=200, repetitions=100, seed=0, out="dataset.csv",
    dataset="", datasets="", model="", test_file="", train_frac=0.8,
    out_dir=".", label_column=-1, positive_label="",
    method="eps-l1vsvm", methods="eps-l1svm,eps-l1vsvm", kernel="rbf",
    gamma=1.0, delta=1.0, epsilon=0.25, sigma=1.0, indicator="acc",
    folds=10, gammas=_GRID.gammas, deltas=_GRID.deltas,
    epsilons=_GRID.epsilons, sigmas=_GRID.sigmas, g_kernel="gaussian",
    mu="empirical", combine="product", sigma_eval=1.0)

# name: (handler, the options it takes in flag order, per-command defaults)
_SUBCOMMANDS = {
    "synth": (_cmd_synth, "kind n seed out", {}),
    "fit": (_cmd_fit, "dataset method kernel gamma delta epsilon sigma g_kernel "
            "mu combine sigma_eval test_file train_frac seed out_dir "
            "label_column positive_label", {}),
    "predict": (_cmd_predict, "model dataset out label_column positive_label",
                dict(out="predictions.csv")),
    "cv": (_cmd_cv, "dataset method kernel indicator folds seed gammas deltas "
           "epsilons sigmas g_kernel mu combine sigma_eval out_dir label_column "
           "positive_label", {}),
    "bench-bayes": (_cmd_bench_bayes, "n repetitions methods indicator seed "
                    "folds gammas deltas epsilons sigmas g_kernel mu combine "
                    "sigma_eval out_dir",
                    dict(methods="eps-l1vsvm,lssvm", deltas=(1.0,), mu="uniform")),
    "bench-uci": (_cmd_bench_uci, "datasets methods kernel indicator folds seed "
                  "gammas deltas epsilons sigmas g_kernel mu combine sigma_eval "
                  "out_dir label_column positive_label", {}),
}

_CHOICES = dict(method=METHODS, kernel=("linear", "rbf"),
                g_kernel=("gaussian", "step"),
                mu=("empirical", "uniform", "gaussian", "point-mass"),
                combine=("product", "additive"),
                indicator=("acc", "vac", "both"), kind=("gauss2d", "robust1d"))


def _defaults(command: str) -> dict:
    _, names, overrides = _SUBCOMMANDS[command]
    return {key: overrides.get(key, _OPTIONS[key]) for key in names.split()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfsvm",
        description="distribution-weighted kernel classification toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", default=argparse.SUPPRESS,
                         help="flat key=value config file; flags override it")
        for key, default in _defaults(name).items():
            # only bench-bayes scores both indicators
            choices = (("acc", "vac") if key == "indicator" and name != "bench-bayes"
                       else _CHOICES.get(key))
            sub.add_argument("--" + key.replace("_", "-"),
                             default=argparse.SUPPRESS, choices=choices,
                             type=_float_list if isinstance(default, tuple) else type(default),
                             help=f"default: {default}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    explicit = vars(parser.parse_args(argv))
    command = explicit.pop("command")
    try:
        merged = _defaults(command)
        if "config" in explicit:
            merged.update(_config_values(parser, command, explicit.pop("config")))
        merged.update(explicit)
        return _SUBCOMMANDS[command][0](argparse.Namespace(**merged))
    except (OSError, ValueError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
