"""The traced run: per-layer metrics from spans around public fodesolve
calls made by the benchmark itself.

Two parts.  The traced workload repeats its own library calls with and
without spans (the difference is the tracing overhead) and runs
`cli.main` in process (its time minus the library time is the CLI's
own I/O).  The layer suite then times each module's public functions on
the inputs named in the README's layer map, generated from the same
seed, so every traced run reports every layer.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

import fodesolve as fs
import fodesolve.cli

import workloads
from harness import (PENALTY_S, PROBE, ROOT, Gate, cli_op, library_op, median,
                     run_child, warm_up)
from tracing import Tracer, duration

MIN_CYCLES = 2

# how each per-layer metric is taken
LAYER_KIND = {
    "fodesolve.import_s": "cold: fresh process, median of 3",
    "problemfile.parse_s": "warm: median of 50 calls",
    "operators.apply_s": "warm: second round of the three calls",
    "operators.ns_per_mac": "warm: apply_s over the computed n(n+1)/2 per call",
    "operators.node_us.integral": "warm: median of 30 calls at the last node",
    "operators.node_us.d01": "warm: median of 30 calls at the last node",
    "operators.node_us.binomial": "warm: median of 30 calls at the last node",
    "operators.weights_s": "cold: fresh process, first weight_table call per table",
    "decompose.series_invert_s": "one call; its weight tables cost milliseconds",
    "decompose.direct_invert_us": "warm: median of 20 calls at the last node",
    "stepper.solve_s": "warm: second solve in a fresh process",
    "stepper.us_per_node": "warm: solve_s over the node count",
    "stepper.first_call_s": "cold minus warm, same fresh process",
    "stepper.reconstruct_s": "first call after the warm solve",
    "oracle.gl_direct_s": "warm: after the convergence study filled the caches",
    "oracle.convergence_s": "warm: second study",
    "cli.io_s": "warm: median in-process cli.main minus median library time",
    "cli.bytes_out": "count: CSV bytes written",
    "trace.overhead_s": "warm: median traced minus median untraced library time",
}
IMPORT_REPS = 3
PARSE_REPS = 50
NODE_REPS = 30
INVERT_REPS = 20


def _cli_main_op(gate: Gate, tracer: Tracer) -> float:
    """cli.main in this process on the workload's argv lists."""
    total = 0.0
    error = None
    for argv in gate.wl.cli_calls:
        with tracer.span("cli.main") as rec:
            code = fodesolve.cli.main(list(argv))
        total += duration(rec)
        if code != 0:
            error = f"cli.main returned {code}"
            break
    if error is None:
        error = gate.check_cli()
    return total if gate.record("cli.main", error) else PENALTY_S


def workload_part(gate: Gate, tracer: Tracer, seconds: float, workdir: str) -> dict:
    """The traced workload's own calls: cli.io_s, cli.bytes_out and
    trace.overhead_s."""
    cli_op(gate, workdir)
    bytes_out = sum(os.path.getsize(p) for p in gate.wl.outputs)
    warm_up(gate)
    plain, traced, mains = [], [], []
    start = time.perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
        # alternate the order so drift in machine speed cancels
        if cycle % 2:
            plain.append(library_op(gate))
        with tracer.span(f"bench.{gate.wl.name}"):
            traced.append(library_op(gate, tracer))
        if not cycle % 2:
            plain.append(library_op(gate))
        mains.append(_cli_main_op(gate, tracer))
        cycle += 1
    return {
        "cli.io_s": median(mains) - median(plain),
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": median(traced) - median(plain),
    }


def _probe(gate: Gate, tracer: Tracer, workdir: str, mode: str, *args) -> dict | None:
    with tracer.span(f"bench.probe_{mode}") as rec:
        ch = run_child([sys.executable, PROBE, mode, tracer.run_id, rec["id"], *args],
                       workdir)
    if ch["code"] != 0:
        gate.record(f"probe {mode}", f"exit {ch['code']}: {ch['stderr'].strip()[-300:]}")
        return None
    res = json.loads(ch["stdout"])
    tracer.spans.extend(res.pop("spans"))
    return res


def _timed(tracer: Tracer, name: str, fn, reps: int = 1) -> tuple:
    """Run fn reps times, each in a span; (median seconds, last result)."""
    times = []
    result = None
    for _ in range(reps):
        with tracer.span(name) as rec:
            result = fn()
        times.append(duration(rec))
    return median(times), result


def suite(gate: Gate, tracer: Tracer, seed: int, scale: str, workdir: str) -> dict:
    wls = {}
    for name in workloads.NAMES:
        sub = os.path.join(workdir, f"layer-{name}")
        os.makedirs(sub, exist_ok=True)
        wls[name] = workloads.build(name, seed, scale, ROOT, sub)
    m: dict = {}

    # fodesolve: import in a fresh interpreter
    res = [_probe(gate, tracer, workdir, "import") for _ in range(IMPORT_REPS)]
    m["fodesolve.import_s"] = median([r["import_s"] for r in res if r]) if all(res) else PENALTY_S

    # problemfile: parse the plate problem text
    pd = wls["plate_direct"].inputs
    text = workloads.read_text(pd["path"])
    m["problemfile.parse_s"], _ = _timed(tracer, "problemfile.parse_problem",
                                         lambda: fs.parse_problem(text), PARSE_REPS)

    # operators on the operator_apply signal; round 0 fills the weight caches
    series = wls["operator_apply"].inputs["series"]
    macs = wls["operator_apply"].counts["macs"]
    for _ in range(2):
        apply_s = 0.0
        for mu in workloads.APPLY_ORDERS:
            dt, out = _timed(tracer, "operators.apply_operator",
                             lambda mu=mu: fs.apply_operator(series, mu))
            apply_s += dt
            gate.record("operators.apply_operator",
                        None if np.all(np.isfinite(out.values)) else "non-finite output")
    m["operators.apply_s"] = apply_s
    m["operators.ns_per_mac"] = apply_s / macs * 1e9
    last = len(series) - 1
    for key, name, fn in (
            ("integral", "operators.frac_integral",
             lambda: fs.frac_integral(series, 0.5, last)),
            ("d01", "operators.frac_derivative01",
             lambda: fs.frac_derivative01(series, 0.5, last)),
            ("binomial", "operators.frac_derivative_general",
             lambda: fs.frac_derivative_general(series, 1.5, last))):
        dt, _ = _timed(tracer, name, fn, NODE_REPS)
        m[f"operators.node_us.{key}"] = dt * 1e6

    # cold weight tables of the convergence_indep stepper runs: the
    # nu-reconstruction (difference kernel) and the rhs link (binomial)
    ci = wls["convergence_indep"]
    o1, o2 = workloads.INDEP_ORDERS
    nu = math.ceil(o1) - o1
    spec = [[kind, order, n] for n in ci.counts["nodes"]
            for kind, order in (("derivative01", nu), ("binomial", nu + o2))]
    res = _probe(gate, tracer, workdir, "weights", json.dumps(spec))
    m["operators.weights_s"] = res["weights_s"] if res else PENALTY_S

    # decompose: series inversion on the plate_series grid
    ps = wls["plate_series"].inputs
    link = fs.build_system(ps["problem"], fs.Babenko(workloads.SERIES_TERMS)).w_links[0]
    cfg = fs.SolverConfig(h=ps["h"], t_end=ps["t_end"])
    _, traj = _timed(tracer, "stepper.solve", lambda: fs.solve(ps["problem"], cfg))
    z1 = traj.z1
    _, lifted = _timed(tracer, "operators.apply_operator",
                       lambda: fs.apply_operator(z1, -link.order))
    w = fs.SampleSeries(z1.h, z1.values + link.ratio * lifted.values)
    m["decompose.series_invert_s"], inv = _timed(
        tracer, "decompose.babenko_invert",
        lambda: fs.babenko_invert(w, link.ratio, link.order, workloads.SERIES_TERMS))
    err = np.max(np.abs(inv.series.values - z1.values)) / np.max(np.abs(z1.values))
    gate.record("decompose.babenko_invert", None if err < 1e-3 else f"recovery error {err:.3g}")

    # decompose: direct inversion at the last node of the plate_direct grid,
    # on a smooth z1 with z1(0) = 0 (the work depends only on the node index)
    links = fs.build_system(pd["problem"]).w_links
    n = wls["plate_direct"].counts["nodes"]
    t = np.arange(n) * pd["h"]
    zs = fs.SampleSeries(pd["h"], t * t / (1.0 + t))
    i = n - 1
    wv = np.zeros(n)
    wv[i] = zs.values[i] + sum(l.ratio * fs.frac_integral(zs, l.order, i) for l in links)
    wser = fs.SampleSeries(pd["h"], wv)
    dt, got = _timed(tracer, "decompose.volterra_direct_invert",
                     lambda: fs.volterra_direct_invert(wser, links, i, zs), INVERT_REPS)
    m["decompose.direct_invert_us"] = dt * 1e6
    gate.record("decompose.volterra_direct_invert",
                None if abs(got - zs.values[i]) <= 1e-9 * abs(zs.values[i])
                else "did not recover z1 at the last node")

    # stepper: first and warm solve, reconstruction, in a fresh process
    res = _probe(gate, tracer, workdir, "stepper", pd["path"], repr(pd["h"]), repr(pd["t_end"]))
    if res and res["nodes"] == n and res["finite"]:
        gate.record("stepper probe", None)
        m["stepper.solve_s"] = res["warm_s"]
        m["stepper.us_per_node"] = res["warm_s"] / n * 1e6
        m["stepper.first_call_s"] = res["first_s"] - res["warm_s"]
        m["stepper.reconstruct_s"] = res["reconstruct_s"]
    else:
        if res:
            gate.record("stepper probe", "wrong node count or non-finite output")
        for key in ("solve_s", "us_per_node", "first_call_s", "reconstruct_s"):
            m[f"stepper.{key}"] = PENALTY_S

    # oracle on the convergence_indep problem; the first study fills caches
    study = lambda: fs.convergence_study(  # noqa: E731
        ci.inputs["problem"], ci.inputs["steps"], ci.inputs["t_end"], oracle="gl")
    _timed(tracer, "oracle.convergence_study", study)
    m["oracle.convergence_s"], rows = _timed(tracer, "oracle.convergence_study", study)
    finest = fs.SolverConfig(h=min(ci.inputs["steps"]), t_end=ci.inputs["t_end"])
    m["oracle.gl_direct_s"], ref = _timed(
        tracer, "oracle.gl_direct_solve", lambda: fs.gl_direct_solve(ci.inputs["problem"], finest))
    ok = all(math.isfinite(r.sup_error) for r in rows) and np.all(np.isfinite(ref.y.values))
    gate.record("oracle", None if ok else "non-finite study or reference")
    return m

