"""Built-in property battery behind the `verify` CLI subcommand.

Each check exercises one contract the library is supposed to honor
(closed forms, operator composition identities, inverter agreement,
structural exactness of the benchmark solve).  All checks run on small
grids so the whole battery stays fast; the acceptance test suite covers
the same ground at full scale.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .decompose import babenko_invert, volterra_direct_invert, WLink
from .operators import SampleSeries, apply_operator
from .oracle import gl_direct_solve, power_rule
from .problemfile import (
    FracTerm,
    PiecewiseForcing,
    ForcingSegment,
    Polynomial,
    ProblemSpec,
)
from .stepper import SolverConfig, solve

__all__ = ["CheckResult", "run_checks", "run_verify"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    bound: str


def _result(name, measured, bound, ok) -> CheckResult:
    return CheckResult(name=name, passed=bool(ok),
                       measured=measured, bound=bound)


def _bagley_torvik() -> ProblemSpec:
    return ProblemSpec(
        terms=(FracTerm(1.0, 2.0), FracTerm(0.5, 1.5)),
        nonlinearity=Polynomial((0.0, 0.5)),
        forcing=PiecewiseForcing((
            ForcingSegment(0.0, 1.0, (8.0,)),
            ForcingSegment(1.0, math.inf, (0.0,)),
        )),
        initial_conditions=(0.0, 0.0),
    )


def _check_closed_forms():
    h = 2e-3
    n = 501
    t = np.arange(n) * h
    worst_int = 0.0
    for alpha in (0.25, 0.75):
        z = SampleSeries(h, t ** 2)
        got = apply_operator(z, -alpha).values[-1]
        want = power_rule(alpha, 2, t[-1], "integral")
        worst_int = max(worst_int, abs(got - want) / abs(want))
    yield _result("integral-closed-form", f"{worst_int:.2e}", "<= 1e-2",
                  worst_int <= 1e-2)
    worst_der = 0.0
    for alpha, p in ((0.5, 2), (0.25, 2), (0.5, 3)):
        z = SampleSeries(h, t ** p)
        got = apply_operator(z, alpha).values[-1]
        want = power_rule(alpha, p, t[-1], "derivative")
        worst_der = max(worst_der, abs(got - want) / abs(want))
    yield _result("derivative-closed-form", f"{worst_der:.2e}", "<= 2e-2",
                  worst_der <= 2e-2)
    # Order check: halving h must cut the closed-form error by ~half.
    z2 = SampleSeries(h / 2, (np.arange(2 * n - 1) * (h / 2)) ** 2)
    e1 = abs(apply_operator(SampleSeries(h, t ** 2), -0.5).values[-1]
             - power_rule(0.5, 2, t[-1], "integral"))
    e2 = abs(apply_operator(z2, -0.5).values[-1]
             - power_rule(0.5, 2, t[-1], "integral"))
    order = math.log2(e1 / e2) if e2 > 0 else math.inf
    yield _result("integral-refinement-order", f"{order:.2f}", ">= 1.0",
                  order >= 1.0)


def _check_reductions():
    h = 0.01
    n = 301
    t = np.arange(n) * h
    vals = t ** 2 + 1.0
    z = SampleSeries(h, vals)
    got = apply_operator(z, -1.0).values
    trap = np.concatenate((
        [0.0], np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))
    ))
    worst = float(np.max(np.abs(got - trap)))
    scale = float(np.max(np.abs(trap)))
    rel = worst / scale
    yield _result("trapezoid-reduction", f"{rel:.2e}", "<= 1e-12",
                  rel <= 1e-12)
    der = apply_operator(z, 0.4)
    same = apply_operator(der, 0.0)
    yield _result("identity-reduction", "bitwise" if same is der else "copy",
                  "input returned", same is der)


def _check_compositions():
    h = 1e-3
    n = 1001
    t = np.arange(n) * h
    z = SampleSeries(h, t.copy())
    semi = apply_operator(apply_operator(z, -0.4), -0.3).values
    direct = apply_operator(z, -0.7).values
    d1 = float(np.max(np.abs(semi - direct)))
    yield _result("integral-composition", f"{d1:.2e}", "<= 1e-2", d1 <= 1e-2)
    back = apply_operator(apply_operator(z, -0.5), 0.5).values
    d2 = float(np.max(np.abs(back - z.values)))
    yield _result("derivative-inverts-integral", f"{d2:.2e}", "<= 2e-2",
                  d2 <= 2e-2)


def _check_causality():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(200)
    base[0] = 0.0
    for mu in (-0.7, 0.35, 1.6):
        a = SampleSeries(0.01, base)
        bumped = base.copy()
        bumped[120:] += 3.0
        b = SampleSeries(0.01, bumped)
        va = apply_operator(a, mu).values[:120]
        vb = apply_operator(b, mu).values[:120]
        if not np.array_equal(va, vb):
            yield _result("causality", f"prefix differs for mu={mu:g}",
                          "bitwise equal", False)
            return
    yield _result("causality", "prefix bitwise equal", "bitwise equal", True)


def _check_linearity():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(300)
    v = rng.standard_normal(300)
    u[0] = v[0] = 0.0
    worst = 0.0
    for mu in (-1.3, -0.5, 0.6, 2.4):
        lhs = apply_operator(SampleSeries(0.02, 2.0 * u - 3.0 * v), mu).values
        rhs = (2.0 * apply_operator(SampleSeries(0.02, u), mu).values
               - 3.0 * apply_operator(SampleSeries(0.02, v), mu).values)
        scale = float(np.max(np.abs(rhs))) or 1.0
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    yield _result("linearity", f"{worst:.2e}", "<= 1e-9", worst <= 1e-9)


def _check_inversion():
    h = 0.01
    n = 501
    t = np.arange(n) * h
    z1 = SampleSeries(h, t ** 2 * np.exp(-t))
    links = (WLink(0.5, 0.5),)
    w_vals = z1.values + 0.5 * apply_operator(z1, -0.5).values
    w = SampleSeries(h, w_vals)
    rec = np.zeros(n)
    for i in range(n):
        rec[i] = volterra_direct_invert(
            w, links, i, SampleSeries(h, rec if i else np.zeros(1))
        )
    scale = float(np.max(np.abs(z1.values)))
    d_direct = float(np.max(np.abs(rec - z1.values))) / scale
    yield _result("direct-inversion-round-trip", f"{d_direct:.2e}",
                  "<= 1e-12", d_direct <= 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        b30 = babenko_invert(w, 0.5, 0.5, terms=30).series.values
        b60 = babenko_invert(w, 0.5, 0.5, terms=60).series.values
    trunc = float(np.max(np.abs(b30 - b60))) / scale
    yield _result("series-inversion-truncation", f"{trunc:.2e}", "<= 1e-8",
                  trunc <= 1e-8)
    agree = float(np.max(np.abs(b30 - rec))) / scale
    yield _result("series-vs-direct-inversion", f"{agree:.2e}", "<= 1e-3",
                  agree <= 1e-3)


def _check_benchmark():
    problem = _bagley_torvik()
    cfg = SolverConfig(h=0.01, t_end=2.0)
    one = solve(problem, cfg)
    two = solve(problem, cfg)
    ok_det = np.array_equal(one.y.values, two.y.values)
    yield _result("determinism", "bitwise equal" if ok_det else "differs",
                  "bitwise equal", ok_det)
    ok_struct = (one.y.values[0] == 0.0 and one.z1.values[0] == 0.0
                 and one.diagnostics.nan_node is None)
    yield _result("benchmark-structure",
                  f"y0={one.y.values[0]:g} z1_0={one.z1.values[0]:g}",
                  "exact zeros", ok_struct)
    ref = gl_direct_solve(problem, SolverConfig(h=0.0025, t_end=2.0))
    stride = 4
    common = ref.y.values[::stride]
    diff = float(np.max(np.abs(one.y.values - common[: len(one.y.values)])))
    yield _result("benchmark-cross-solver", f"{diff:.2e}", "<= 5e-2",
                  diff <= 5e-2)


_CHECKS = (
    _check_closed_forms,
    _check_reductions,
    _check_compositions,
    _check_causality,
    _check_linearity,
    _check_inversion,
    _check_benchmark,
)


def run_checks() -> list:
    results = []
    for chk in _CHECKS:
        results.extend(chk())
    return results


def run_verify(json_output: bool = False, stream=None) -> int:
    """Run the battery, print a report, return 0 iff everything passed
    (3 otherwise, matching the CLI's numerical-failure exit code)."""
    out = stream if stream is not None else sys.stdout
    results = run_checks()
    all_ok = all(r.passed for r in results)
    if json_output:
        payload = {
            "passed": all_ok,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "bound": r.bound,
                }
                for r in results
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            out.write(
                f"{r.name:<{width}}  {status}  measured {r.measured}"
                f"  (bound {r.bound})\n"
            )
        out.write("verify: " + ("all checks passed\n" if all_ok
                                else "CHECKS FAILED\n"))
    return 0 if all_ok else 3
