"""Smoke test of the benchmark itself; not part of the repository's tests.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the tiny scale, untraced and
traced, and checks that each run exits 0, passes every correctness gate,
and prints every metric BENCHMARK.json names with its unit and a finite
value, and that the result file carries the environment stamp.  Then it
checks that the benchmark fails without printing a result in a directory
holding only BENCHMARK.json and perfbench/.  Takes about 20 seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP_KEYS = {"nproc", "python", "numpy", "blas", "blas_threads", "git_commit", "seed"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} missing or not in {m['unit']}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{where}: {m['name']} = {got['value']!r}")
    name = f"{workload}-seed7-trace{trace}-tiny.json"
    with open(os.path.join(ROOT, ".perfbench", "results", name)) as fh:
        stamp = json.load(fh)["environment"]
    if not STAMP_KEYS <= set(stamp):
        problems.append(f"{where}: environment stamp lacks {STAMP_KEYS - set(stamp)}")
    return problems


def check_bare_directory(workload: str) -> list:
    """Without the sources the benchmark must fail and print no result."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, wl["name"], trace)
            print(f"{wl['name']} trace={trace} done", flush=True)
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
