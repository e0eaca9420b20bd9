"""Seeded inputs, CLI calls, library calls and reference checks for each
benchmark workload.

The seed changes only input values: the plate forcing level, the
coefficients of the operator signal, and the coefficients of the
independent-class problem.  It never changes a grid length, an order's
integer class or any other work count, so every seed costs the same.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fodesolve as fs

NAMES = ("plate_direct", "plate_series", "operator_apply", "convergence_indep")

# Grid per workload and scale: (step, t_end).  The full grids keep each
# timed call under about 0.6 s, so that a run holds dozens of samples
# whose trimmed mean averages over a shared host's speed swings (see
# harness.end_to_end).  "tiny" is for the smoke test only; it keeps every
# code path.
GRIDS = {
    "full": {
        "plate_direct": (0.002, 30.0),         # N = 15 000
        "plate_series": (0.00125, 5.0),        # N = 4 000
        "operator_apply": (0.00025, 4.0),      # n = 16 001 samples
        "convergence_indep": ((0.008, 0.004, 0.002), 20.0),
    },
    "tiny": {
        "plate_direct": (0.05, 30.0),
        "plate_series": (0.0125, 5.0),
        "operator_apply": (0.01, 4.0),
        "convergence_indep": ((0.2, 0.1, 0.05), 20.0),
    },
}

SERIES_TERMS = 30
APPLY_ORDERS = (-0.5, 0.5, 1.5)    # integral, difference and binomial kernels
SIGNAL_POWERS = (2, 3)
INDEP_ORDERS = (1.5, 0.7)          # integer orders 2 and 1: independent class


# The coarse tiny grids are further from their references; the smoke
# test still catches non-finite or wrong-shaped output with this factor.
TINY_TOL_FACTOR = 100.0


def tolerance(name: str, benchmark_json: str) -> float:
    """The workload's ref_err tolerance at full scale, read from the `why`
    line that BENCHMARK.json gives it, so the file states the gate it
    enforces."""
    with open(benchmark_json) as fh:
        spec = json.load(fh)
    for wl in spec["workloads"]:
        if wl["name"] == name:
            m = re.search(r"ref_err tol ([0-9.eE+-]+)", wl["why"])
            if m is None:
                raise ValueError(f"no 'ref_err tol' in the why of {name}")
            return float(m.group(1))
    raise ValueError(f"workload {name!r} is not in {benchmark_json}")


@dataclass
class Workload:
    """Everything one workload needs.

    cli_calls are argv lists for `python -m fodesolve`, each writing one
    CSV; rows is the expected data-row count of each.  calls are the
    public library calls, as (span name, function), that do the same work
    in process; collect turns their results into the columns that must
    equal, bit for bit, columns(parsed CLI outputs).
    """

    name: str
    setup_args: list            # probe.py setup arguments
    setup_expect: dict          # what that probe must report
    cli_calls: list
    outputs: list
    rows: int
    finite_cols: tuple          # CSV columns that must be finite
    calls: list
    collect: Callable[[list], list]
    columns: Callable[[list], list]
    ref_err: Callable[[list], float]
    inputs: dict = field(default_factory=dict)  # generated inputs, by role
    counts: dict = field(default_factory=dict)

    def library(self, tracer=None) -> list:
        if tracer is None:
            return self.collect([fn() for _, fn in self.calls])
        results = []
        for span_name, fn in self.calls:
            with tracer.span(span_name):
                results.append(fn())
        return self.collect(results)


def read_csv(path: str) -> dict:
    """Columns of a fodesolve CSV by header name; empty fields read as nan."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
    cols = {}
    for j, name in enumerate(header):
        cols[name] = np.array([float(r[j]) if r[j] else np.nan for r in rows])
    return cols


def _rel_sup(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def plate_text(root: str, rng: random.Random) -> str:
    """The shipped plate problem with only its forcing level drawn from
    8 * [0.95, 1.05]; terms, orders, coefficients and initial values stay."""
    with open(os.path.join(root, "problems", "bagley_torvik.fode")) as fh:
        text = fh.read()
    level = 8.0 * rng.uniform(0.95, 1.05)
    text, hits = re.subn(r"(?m)^forcing 0 1 \S+", f"forcing 0 1 {level!r}", text)
    if hits != 1:
        raise ValueError("shipped plate problem lost its 'forcing 0 1' line")
    return text


def indep_text(rng: random.Random) -> str:
    """Linear zero-start independent-class problem: orders 1.5 and 0.7,
    reaction c*y, forcing f0 + f1*t.  Each coefficient is drawn within 2%
    of its nominal value, which keeps the problem damped and ref_err
    within a few percent across seeds."""
    a1 = rng.uniform(0.98, 1.02)
    a2 = 0.5 * rng.uniform(0.98, 1.02)
    c = 0.5 * rng.uniform(0.98, 1.02)
    f0 = rng.uniform(0.98, 1.02)
    f1 = 0.1 * rng.uniform(0.98, 1.02)
    return (
        f"term {a1!r} {INDEP_ORDERS[0]!r}\n"
        f"term {a2!r} {INDEP_ORDERS[1]!r}\n"
        f"nonlinear 1 {c!r}\n"
        f"forcing 0 inf {f0!r} {f1!r}\n"
        "init 0 0\ninit 1 0\n"
    )


def signal_coeffs(rng: random.Random) -> tuple:
    """Coefficients of a*t^2 + b*t^3, which starts at zero as the
    binomial kernel requires.  a is drawn in [0.8, 1.2] and b/a within 2%
    of 0.2; the relative error depends only on that ratio."""
    a = rng.uniform(0.8, 1.2)
    return (a, a * 0.2 * rng.uniform(0.98, 1.02))


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def build(name: str, seed: int, scale: str, root: str, workdir: str) -> Workload:
    """Generate the seeded inputs of one workload into workdir."""
    rng = random.Random(f"{name}:{seed}")
    grid = GRIDS[scale][name]
    out = lambda tag: os.path.join(workdir, f"{tag}.csv")  # noqa: E731

    if name in ("plate_direct", "plate_series"):
        h, t_end = grid
        path = _write(os.path.join(workdir, "problem.fode"), plate_text(root, rng))
        problem = fs.parse_problem(read_text(path))
        n = fs.SolverConfig(h=h, t_end=t_end).num_steps + 1
        args = ["solve", "--problem", path, "--step", repr(h), "--t-end", repr(t_end),
                "--out", out("solve")]
        if name == "plate_direct":
            args.append("--derivatives")
            cfg = fs.SolverConfig(h=h, t_end=t_end, output_derivatives=True)
            cols = ("y", "z1", "dy1")
            ref = lambda: fs.gl_direct_solve(  # noqa: E731
                problem, fs.SolverConfig(h=h, t_end=t_end)).y.values

            def collect(res):
                tr = res[0]
                return [tr.y.values, tr.z1.values, tr.y_derivs[0].values[: len(tr.y)]]
        else:
            args += ["--inversion", "babenko", "--babenko-terms", str(SERIES_TERMS)]
            cfg = fs.SolverConfig(h=h, t_end=t_end, inversion=fs.Babenko(SERIES_TERMS))
            cols = ("y",)
            ref = lambda: fs.solve(  # noqa: E731
                problem, fs.SolverConfig(h=h, t_end=t_end)).y.values

            def collect(res):
                return [res[0].y.values]
        return Workload(
            name=name,
            setup_args=["problem", path],
            setup_expect={"terms": len(problem.terms)},
            cli_calls=[args],
            outputs=[out("solve")],
            rows=n,
            finite_cols=("t",) + cols,
            calls=[("stepper.solve", lambda: fs.solve(problem, cfg))],
            collect=collect,
            columns=lambda parsed: [parsed[0][c] for c in cols],
            ref_err=lambda parsed: _rel_sup(parsed[0]["y"], ref()),
            inputs={"path": path, "problem": problem, "h": h, "t_end": t_end},
            counts={"nodes": n},
        )

    if name == "operator_apply":
        h, t_end = grid
        n = int(round(t_end / h)) + 1
        a, b = signal_coeffs(rng)
        t = np.arange(n) * h
        v = a * t ** 2 + b * t ** 3
        sig = os.path.join(workdir, "signal.csv")
        _write(sig, "t,value\n" + "".join(f"{ti!r},{vi!r}\n" for ti, vi in zip(t.tolist(), v.tolist())))
        series = fs.SampleSeries(h, v)
        outs = [out(f"apply{k}") for k in range(len(APPLY_ORDERS))]
        calls = [["apply", "--in", sig, "--order", repr(mu), "--out", o]
                 for mu, o in zip(APPLY_ORDERS, outs)]

        def exact(mu):
            # power rule for each monomial; coefficient taken at t = 1
            kind = "integral" if mu < 0 else "derivative"
            total = np.zeros(n)
            for c, p in zip((a, b), SIGNAL_POWERS):
                coef = fs.power_rule(abs(mu), p, 1.0, kind)
                total += c * coef * t ** (p - mu)
            return total

        return Workload(
            name=name,
            setup_args=["signal", sig],
            setup_expect={"samples": n},
            cli_calls=calls,
            outputs=outs,
            rows=n,
            finite_cols=("t", "value"),
            calls=[("operators.apply_operator",
                    lambda mu=mu: fs.apply_operator(series, mu)) for mu in APPLY_ORDERS],
            collect=lambda res: [r.values for r in res],
            columns=lambda parsed: [p["value"] for p in parsed],
            ref_err=lambda parsed: max(
                _rel_sup(p["value"], exact(mu)) for p, mu in zip(parsed, APPLY_ORDERS)),
            inputs={"series": series},
            counts={"samples": n, "calls": len(APPLY_ORDERS),
                    "macs": len(APPLY_ORDERS) * n * (n + 1) // 2},
        )

    if name == "convergence_indep":
        steps, t_end = grid
        path = _write(os.path.join(workdir, "problem.fode"), indep_text(rng))
        problem = fs.parse_problem(read_text(path))
        finest = fs.SolverConfig(h=min(steps), t_end=t_end)

        def ref_err(parsed):
            # finest row's sup error relative to the reference's size
            scale_ = np.max(np.abs(fs.gl_direct_solve(problem, finest).y.values))
            return float(parsed[0]["sup_error"][-1] / scale_)

        return Workload(
            name=name,
            setup_args=["problem", path],
            setup_expect={"terms": len(problem.terms)},
            cli_calls=[["convergence", "--problem", path,
                        "--steps", ",".join(repr(s) for s in steps),
                        "--t-end", repr(t_end), "--oracle", "gl", "--out", out("conv")]],
            outputs=[out("conv")],
            rows=len(steps),
            finite_cols=("h", "sup_error"),
            calls=[("oracle.convergence_study",
                    lambda: fs.convergence_study(problem, steps, t_end, oracle="gl"))],
            collect=lambda res: [np.array([r.sup_error for r in res[0]])],
            columns=lambda parsed: [parsed[0]["sup_error"]],
            ref_err=ref_err,
            inputs={"problem": problem, "steps": steps, "t_end": t_end},
            counts={"nodes": [fs.SolverConfig(h=s, t_end=t_end).num_steps + 1
                              for s in steps]},
        )

    raise ValueError(f"unknown workload {name!r}")


def read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()
