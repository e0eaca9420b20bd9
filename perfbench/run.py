"""fodesolve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fodesolve is imported from its
`src/`.  With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json: the `fodesolve` CLI in fresh processes, a set-up probe in
fresh processes and the same work through the library in this process,
cycling for S seconds.  With --trace 1 it makes the traced run instead
and reports the per-layer metrics.  Every operation is checked (see
harness.Gate).  The last stdout line is the JSON result; the full result
with its environment stamp, samples and (traced) spans is written to
.perfbench/results/.  --scale tiny shrinks every grid for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".perfbench")

# how each end-to-end metric is taken
END_TO_END_KIND = {
    "wall_s": "cold: fresh CLI process, spawn to exit; trimmed mean of the run",
    "cpu_s": "cold: CLI process user+system CPU from wait4; trimmed mean of the run",
    "peak_rss_mb": "cold: CLI process maximum RSS from wait4; median of the run",
    "setup_s": "cold: fresh process, import and parse only; trimmed mean of the run",
    "library_s": "warm: in process, after one untimed call; trimmed mean of the run",
    "ref_err": "untimed: first verified CLI output against the reference",
    "ok_frac": "count: passed operations over attempted",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        # OpenBLAS starts one thread per online CPU unless told otherwise
        "blas_threads": int(threads) if threads else os.cpu_count(),
        "blas_threads_from": "environment" if threads else "OpenBLAS default (one per CPU)",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so children are killed and reaped and
    # the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "fodesolve", "__init__.py")):
        sys.stderr.write(f"no fodesolve sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import fodesolve

    if not os.path.abspath(fodesolve.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported fodesolve from {fodesolve.__file__}, not {SRC}\n")
        return 2
    import harness
    import workloads

    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {workloads.NAMES}\n")
        return 1
    tol = workloads.tolerance(args.workload, BENCHMARK_JSON)
    if args.scale == "tiny":
        tol *= workloads.TINY_TOL_FACTOR
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    started = time.time()
    try:
        wl = workloads.build(args.workload, args.seed, args.scale, ROOT, workdir)
        gate = harness.Gate(wl, tol)
        if args.trace:
            import layers
            from tracing import Tracer, module_summary

            tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
            metrics = layers.workload_part(gate, tracer, args.seconds, workdir)
            metrics.update(layers.suite(gate, tracer, args.seed, args.scale, workdir))
            extra = {"modules": module_summary(tracer.spans), "spans": tracer.spans}
            kinds = layers.LAYER_KIND
        else:
            metrics, samples = harness.end_to_end(gate, args.seconds, workdir)
            extra = {"samples": samples}
            kinds = END_TO_END_KIND
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": {}}
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        result["metrics"][entry["name"]] = {"value": metrics[entry["name"]],
                                            "unit": entry["unit"]}
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "scale": args.scale,
              "seconds": args.seconds, "started_unix": started, "environment": env,
              "measured_as": kinds, "ref_err_tol": tol, "counts": wl.counts,
              "errors": gate.errors, "result": result, **extra}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
