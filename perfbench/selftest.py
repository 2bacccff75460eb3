"""Tiny-size self-test of the benchmark; takes well under a minute.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark command at tiny
input sizes and checks that:

* the untraced run exits 0 and its last line holds exactly the keys
  correct/attempted/failed/metrics, with every end-to-end metric and unit;
* the traced run reports every per-layer metric and unit, and two traced
  runs at one seed report identical counts (calls and iterations);

and finally that the command fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 1


def run(spec, cwd, workload, trace):
    args = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc, label) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(record)}")
    if record["correct"] is not True or record["failed"] != 0 or record["attempted"] < 1:
        raise AssertionError(f"{label}: {record['correct']=} {record['attempted']=} "
                             f"{record['failed']=}")
    return record["metrics"]


def check_metrics(metrics, declared, label):
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(expected) - set(got))}, "
                             f"extra {sorted(set(got) - set(expected))}, "
                             f"units {[(n, got[n], u) for n, u in expected.items() if got.get(n, u) != u]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(result_of(run(spec, ROOT, workload, 0), f"{workload} untraced"),
                      spec["end_to_end"], workload)
        traced = [result_of(run(spec, ROOT, workload, 1), f"{workload} traced")
                  for _ in range(2)]
        check_metrics(traced[0], spec["per_layer"], workload)
        counts = [{n: m["value"] for n, m in t.items() if m["unit"] == "count"}
                  for t in traced]
        if counts[0] != counts[1]:
            diff = {n: (counts[0][n], counts[1][n]) for n in counts[0]
                    if counts[0][n] != counts[1][n]}
            raise AssertionError(f"{workload}: counts differ between traced runs: {diff}")
        print(f"ok {workload}")

    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
