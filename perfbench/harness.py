"""Child processes, the correctness gate and the timed operations shared by
the end-to-end and the traced runs.

Every operation passes the gate or counts as failed.  A run with a
failed operation reports every timing as PENALTY_S, so a failure counts
against every timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from workloads import Workload, read_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")

PENALTY_S = 1e9
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    # fodesolve from this checkout; BLAS threading is left as inherited
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, workdir: str) -> dict:
    """Run one child to completion.  Wall time runs from just before the
    spawn to the reap; CPU time and peak RSS come from os.wait4."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
            "stdout": stdout, "stderr": stderr}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Gate:
    """Counts operations and failures, and holds the first verified CLI
    output that later CLI runs must repeat byte for byte and library
    calls must match value for value."""

    def __init__(self, wl: Workload, tol: float):
        self.wl = wl
        self.tol = tol
        self.hashes = None
        self.parsed = None
        self.ref_err = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")
        return error is None

    def check_cli(self) -> str | None:
        wl = self.wl
        hashes = [_sha256(p) for p in wl.outputs]
        if self.hashes is not None:
            return None if hashes == self.hashes else "output bytes differ between repeats"
        parsed = [read_csv(p) for p in wl.outputs]
        for cols in parsed:
            rows = len(next(iter(cols.values())))
            if rows != wl.rows:
                return f"{rows} output rows, expected {wl.rows}"
            for name in wl.finite_cols:
                if not np.all(np.isfinite(cols[name])):
                    return f"non-finite values in column {name}"
        err = wl.ref_err(parsed)
        if not err <= self.tol:
            return f"ref_err {err:.3g} above the tolerance {self.tol:g}"
        self.hashes, self.parsed, self.ref_err = hashes, parsed, err
        return None

    def check_library(self, cols: list) -> str | None:
        if self.parsed is None:
            return "no verified CLI output to compare with"
        want = self.wl.columns(self.parsed)
        if len(cols) != len(want) or not all(
                np.array_equal(a, b, equal_nan=True) for a, b in zip(cols, want)):
            return "library result differs from the CLI output"
        return None


def cli_op(gate: Gate, workdir: str) -> tuple | None:
    """All CLI calls of the workload, each in a fresh process: summed wall
    and CPU time and the largest peak RSS, or None when the gate fails."""
    wall = cpu = rss = 0.0
    error = None
    for argv in gate.wl.cli_calls:
        ch = run_child([sys.executable, "-m", "fodesolve", *argv], workdir)
        wall += ch["wall_s"]
        cpu += ch["cpu_s"]
        rss = max(rss, ch["rss_mb"])
        if ch["code"] != 0:
            error = f"exit {ch['code']}: {ch['stderr'].strip()[-300:]}"
            break
    if error is None:
        error = gate.check_cli()
    return (wall, cpu, rss) if gate.record("cli", error) else None


def setup_op(gate: Gate, workdir: str) -> float:
    """Fresh interpreter that imports fodesolve, parses the inputs, stops."""
    ch = run_child([sys.executable, PROBE, "setup", *gate.wl.setup_args], workdir)
    error = None
    if ch["code"] != 0:
        error = f"exit {ch['code']}: {ch['stderr'].strip()[-300:]}"
    elif json.loads(ch["stdout"]) != gate.wl.setup_expect:
        error = f"parsed {ch['stdout'].strip()}, expected {gate.wl.setup_expect}"
    return ch["wall_s"] if gate.record("setup", error) else PENALTY_S


def library_op(gate: Gate, tracer=None) -> float:
    """The workload's public library calls in this process, timed."""
    t0 = time.perf_counter()
    try:
        cols = gate.wl.library(tracer)
        error = None
    except Exception as exc:  # a failing call is a failed operation
        cols, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if error is None:
        error = gate.check_library(cols)
    return dt if gate.record("library", error) else PENALTY_S


def warm_up(gate: Gate) -> None:
    """One untimed library call; its failures show in the timed calls."""
    try:
        gate.wl.library()
    except Exception:  # noqa: BLE001 - the timed calls record it
        pass


def median(samples: list) -> float:
    return float(statistics.median(samples)) if samples else PENALTY_S


TRIM = 0.1


def trimmed_mean(samples: list) -> float:
    """Mean after dropping the TRIM share of samples at each end."""
    if not samples:
        return PENALTY_S
    k = int(len(samples) * TRIM)
    kept = sorted(samples)[k:len(samples) - k]
    return float(statistics.fmean(kept))


MIN_CYCLES = 3


def end_to_end(gate: Gate, seconds: float, workdir: str) -> tuple:
    """Cycle CLI run, set-up probe and library call until `seconds` have
    passed (at least MIN_CYCLES times).  Returns (metrics, samples).

    The host's speed swings by up to 2x within seconds as other tenants
    come and go, and a run's samples fall into a fast and a slow cluster
    in varying proportion.  Each timed call is kept well under a second,
    so a run holds dozens of samples.  A timing is their 10%-trimmed
    mean: the median of such a mixture jumps between the clusters, the
    mean moves smoothly with their proportion, and the trim drops rare
    stalls.  Peak RSS is the median.  Any failed operation spoils every
    timing (PENALTY_S).
    """
    samples: dict = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "library_s")}
    # The first CLI process of a run is slower than the rest, so it only
    # verifies the output and serves as warm-up.
    cli_op(gate, workdir)
    warm_up(gate)
    start = time.perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
        cli = cli_op(gate, workdir)
        if cli is not None:
            for key, value in zip(("wall_s", "cpu_s", "peak_rss_mb"), cli):
                samples[key].append(value)
        samples["setup_s"].append(setup_op(gate, workdir))
        samples["library_s"].append(library_op(gate))
        cycle += 1
    metrics = {k: trimmed_mean(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = median(samples["peak_rss_mb"])
    if gate.failed:
        metrics.update(dict.fromkeys(("wall_s", "cpu_s", "setup_s", "library_s"), PENALTY_S))
    metrics["ref_err"] = gate.ref_err if gate.ref_err is not None else PENALTY_S
    metrics["ok_frac"] = (gate.attempted - gate.failed) / gate.attempted
    return metrics, samples
