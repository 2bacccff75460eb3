"""Benchmark entry point: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload cv-tube --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last stdout line is
a JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics from a traced pass over the workload's fixed job set,
timed against an untraced pass over the same jobs. Spans and results are
written under perfbench/out/. The exit code is non-zero when an output
check fails. See perfbench/README.md for the metrics.
"""

import os

# BLAS and OpenMP pools are pinned before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for perfbench/selftest.py")
    return parser.parse_args(argv)


def import_package():
    if not (ROOT / "src" / "cdfsvm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cdfsvm sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import tracer
    import workloads
    # the first BLAS and LAPACK calls initialise OpenBLAS
    a = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.solve(a @ a.T + np.eye(64), np.ones(64))
    return tracer, workloads


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                python=platform.python_version(), numpy=np.__version__,
                scipy=scipy.__version__, blas=f"{blas['name']} {blas['version']}",
                threads={var: os.environ.get(var) for var in THREAD_VARS})


def run_jobs(wl, counters, min_jobs, seconds, spans=None) -> tuple[list, float]:
    """Closed loop from job 0: `min_jobs` jobs, then further jobs while the
    next one is expected to end within `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        done = len(results)
        elapsed = time.perf_counter() - start
        if done >= min_jobs and elapsed + elapsed / done > seconds:
            break
        fits, chosen = counters.cv_rows, len(counters.selections)
        if spans is not None:
            spans.job = done
        result = wl.job(done)
        result.fits = counters.cv_rows - fits
        if wl.op == "fit":
            for indicator in ("acc", "vac"):
                scores = [s for i, s in counters.selections[chosen:] if i == indicator]
                setattr(result, indicator, statistics.fmean(scores))
        results.append(result)
    return results, time.perf_counter() - start


def end_to_end(wl, counters, results, setup_s) -> dict:
    fixed = results[:wl.min_jobs]  # the same jobs on every run at this seed
    if wl.op == "fit":
        ops = sum(r.fits for r in results)
        ok_frac = 1.0 - counters.failed_fits / counters.fits
    else:
        ops = sum(r.rows for r in results)
        ok_frac = 1.0 - sum(r.checks_failed for r in results) / len(results)
    job_ms = [r.seconds * 1e3 for r in results]
    # the highest percentile with 10 jobs beyond it, kept within p50..p90:
    # rarer tails swing with the shared machine's bursts from run to run
    tail = min(0.9, max(0.5, 1.0 - 10 / len(job_ms)))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / sum(r.seconds for r in results), "1/s"),
        "job_ms_p50": (float(np.quantile(job_ms, 0.5)), "ms"),
        "job_ms_tail": (float(np.quantile(job_ms, tail)), "ms"),
        "ok_frac": (ok_frac, "ratio"),
        "acc": (statistics.fmean(r.acc for r in fixed), "ratio"),
        "vac": (statistics.fmean(r.vac for r in fixed), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    once_s = time.perf_counter() - PROCESS_START
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = once_s + statistics.median(setup_times)

    counters = tracer.FitCounters()
    spans = tracer.Tracer() if args.trace else None
    patches = tracer.Patches()
    try:
        counters.install(patches)
        if args.trace:
            untraced, untraced_s = run_jobs(wl, counters, wl.trace_jobs, 0.0)
        else:
            untraced, untraced_s = run_jobs(wl, counters, wl.min_jobs, args.seconds)
        passes = [untraced]
        if args.trace:
            spans.install(patches)
            traced, traced_s = run_jobs(wl, counters, wl.trace_jobs, 0.0, spans)
            passes.append(traced)
    finally:
        patches.restore()

    # an operation fails when it raises or fails an output check; fits that
    # end non-converged complete and lower ok_frac instead
    checks_failed = sum(r.checks_failed for results in passes for r in results)
    if wl.op == "fit":
        attempted = counters.fits
        failed = counters.raised + counters.bad_selections + checks_failed
    else:
        attempted = sum(len(results) for results in passes)
        failed = checks_failed
    if wl.name == "bayes":
        distances = [wl.distances(results) for results in passes]
        failed += sum(bad for _, bad in distances)

    if args.trace:
        metrics = tracer.layer_metrics(spans.spans)
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
        traced_dists = distances[-1][0] if wl.name == "bayes" else {}
        metrics["bench.bayes_dist"] = (traced_dists.get(("eps-l1vsvm", "acc"), 0.0), "1")
    else:
        metrics = end_to_end(wl, counters, untraced, setup_s)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        spans.write(out_dir / f"spans-{stem}.jsonl")
    env = environment()
    jobs = len(passes[-1])
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(
        dict(record, workload=wl.name, seed=args.seed, jobs=jobs, environment=env),
        indent=1) + "\n")
    print(f"# {wl.name} seed={args.seed} trace={args.trace} jobs={jobs} "
          f"environment={json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(record))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
