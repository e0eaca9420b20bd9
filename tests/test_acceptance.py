"""End-to-end acceptance battery.

Each test exercises one published capability at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers.  Tolerances
here are contract values; do not loosen them to make a run green.
"""
import io
import math
import time
import warnings

import numpy as np

from fodesolve import (
    Babenko,
    BabenkoTailWarning,
    ProblemSpec,
    SampleSeries,
    SolverConfig,
    apply_operator,
    gl_direct_solve,
    manufacture,
    power_rule,
    run_verify,
    solve,
)
from fodesolve.cli import main as cli_main
from fodesolve.decompose import TAIL_TOL


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def observed_order(err_coarse, err_fine, floor=1e-12):
    # quadratures that happen to be scheme-exact sit at the rounding
    # floor on both grids; the refinement order is then unbounded
    if err_fine <= floor:
        return math.inf
    return math.log2(err_coarse / err_fine)


class TestOperatorClosedForms:
    """Criterion 1: quadratures vs closed-form power rules."""

    @staticmethod
    def _rel_error(kind, alpha, p, h):
        n = round(1.0 / h) + 1
        t = np.arange(n) * h
        mu = -alpha if kind == "integral" else alpha
        got = apply_operator(SampleSeries(h, t ** p), mu).values[-1]
        want = power_rule(alpha, p, 1.0, kind)
        return abs(got - want) / abs(want)

    def test_closed_forms_and_refinement(self):
        start = time.perf_counter()
        bounds = {"integral": (1e-2, 1.0), "derivative": (2e-2, 0.9)}
        worst = {}
        for kind, (err_bound, order_bound) in bounds.items():
            errs, orders = [], []
            for alpha in (0.25, 0.5, 0.75):
                for p in (1, 2, 3):
                    e1 = self._rel_error(kind, alpha, p, 1e-3)
                    e2 = self._rel_error(kind, alpha, p, 5e-4)
                    errs.append(e1)
                    orders.append(observed_order(e1, e2))
            worst[kind] = (max(errs), min(orders))
        elapsed = time.perf_counter() - start
        ok = (worst["integral"][0] <= 1e-2
              and worst["derivative"][0] <= 2e-2
              and worst["integral"][1] >= 1.0
              and worst["derivative"][1] >= 0.9
              and elapsed < 10.0)
        report(
            "operator closed forms",
            ok,
            f"worst rel err integral {worst['integral'][0]:.3e} (<= 1e-2), "
            f"derivative {worst['derivative'][0]:.3e} (<= 2e-2); "
            f"worst order integral {worst['integral'][1]:.3f} (>= 1.0), "
            f"derivative {worst['derivative'][1]:.3f} (>= 0.9); "
            f"{elapsed:.2f}s (< 10s)")


class TestCompositionLaws:
    """Criterion 2: semigroup nesting and left-inverse on z(t) = t."""

    def test_composition_and_left_inverse(self):
        start = time.perf_counter()
        h = 1e-3
        t = np.arange(1001) * h
        z = SampleSeries(h, t)
        nested = apply_operator(apply_operator(z, -0.4), -0.3).values
        direct = apply_operator(z, -0.7).values
        comp = float(np.max(np.abs(nested - direct)))
        round_trip = apply_operator(apply_operator(z, -0.5), 0.5).values
        left = float(np.max(np.abs(round_trip - t)))
        elapsed = time.perf_counter() - start
        ok = comp <= 1e-2 and left <= 2e-2 and elapsed < 5.0
        report(
            "composition laws",
            ok,
            f"|nested - single integral| {comp:.3e} (<= 1e-2), "
            f"|D(I z) - z| {left:.3e} (<= 2e-2); {elapsed:.2f}s (< 5s)")


class TestBenchmarkVsCrossSolver:
    """Criterion 3: damped-plate benchmark against the one-step
    whole-history solver on the full horizon."""

    def test_agreement_and_refinement(self, plate):
        start = time.perf_counter()
        ref = gl_direct_solve(plate, SolverConfig(h=1e-3, t_end=30.0)).y.values
        diffs = []
        for h in (0.04, 0.02, 0.01):
            traj = solve(plate, SolverConfig(h=h, t_end=30.0))
            stride = round(h / 1e-3)
            diffs.append(
                float(np.max(np.abs(traj.y.values - ref[::stride][: len(traj.y.values)]))))
        elapsed = time.perf_counter() - start
        ratios = [diffs[0] / diffs[1], diffs[1] / diffs[2]]
        ok = (diffs[2] <= 0.05
              and diffs[0] > diffs[1] > diffs[2]
              and min(ratios) >= 1.5
              and elapsed < 60.0)
        report(
            "benchmark vs cross solver",
            ok,
            f"sup diffs at h=0.04/0.02/0.01: "
            f"{diffs[0]:.4f}/{diffs[1]:.4f}/{diffs[2]:.4f} "
            f"(finest <= 0.05), ratios {ratios[0]:.2f}/{ratios[1]:.2f} "
            f"(>= 1.5); {elapsed:.1f}s (< 60s)")


class TestInversionRouteEquivalence:
    """Criterion 4: series inversion vs direct inversion on the benchmark
    over the full horizon [0, 30], anchored at h = 0.01.

    The two routes are different discretisations of the same inverse.
    The direct route inverts the discrete relation exactly at each node;
    the series route applies each power of the kernel as one product
    integral of order k*delta, and I_h^(k delta) is not (I_h^delta)^k.
    So the routes agree only in the step-refinement limit, and the
    series route only once its truncation has converged.
    """

    STEPS = (0.02, 0.01, 0.005)

    @staticmethod
    def _series(plate, terms, h):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = solve(plate, SolverConfig(
                h=h, t_end=30.0, inversion=Babenko(terms=terms)))
        return traj, [w.category for w in caught]

    def test_routes_agree(self, plate):
        start = time.perf_counter()
        tail_tol = TAIL_TOL
        direct = {h: solve(plate, SolverConfig(h=h, t_end=30.0)).y.values
                  for h in self.STEPS}

        # 30 terms at T = 30: the a-priori factor bounding the K-th term,
        # (|ratio| T^delta)^K / Gamma(1 + K delta) with ratio = delta =
        # 0.5, is 10.2, so the run must flag its own truncation.
        short, short_warned = self._series(plate, 30, 0.01)
        short_tail = short.diagnostics.babenko_tail
        short_ok = (short_tail > tail_tol
                    and BabenkoTailWarning in short_warned)

        # 80 terms: the same bound is 1.2e-13, below tail_tol = 1e-8.
        deep, gaps, deep_warned = {}, [], []
        for h in self.STEPS:
            traj, warned = self._series(plate, 80, h)
            deep[h] = traj
            deep_warned += warned
            gaps.append(float(np.max(np.abs(traj.y.values - direct[h]))))
        deep_tail = max(t.diagnostics.babenko_tail for t in deep.values())
        deeper, _ = self._series(plate, 100, 0.01)
        trunc = float(np.max(np.abs(deep[0.01].y.values
                                    - deeper.y.values)))
        deep_ok = not deep_warned and deep_tail <= tail_tol and trunc <= 1e-6

        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        gap_ok = (gaps[0] > gaps[1] > gaps[2]
                  and min(ratios) >= 2.5
                  and gaps[2] <= 5e-4)
        elapsed = time.perf_counter() - start
        report(
            "inversion route equivalence",
            short_ok and deep_ok and gap_ok,
            f"K=30 at h=0.01: tail {short_tail:.3g} (> {tail_tol:g}), "
            f"{'warned' if BabenkoTailWarning in short_warned else 'no warning'} "
            f"(must warn); K=80: worst tail {deep_tail:.3g} "
            f"(<= {tail_tol:g}), {len(deep_warned)} warnings (none), "
            f"sup |K80 - K100| {trunc:.3e} at h=0.01 (<= 1e-06); "
            f"sup |series - direct| at h=0.02/0.01/0.005: "
            f"{gaps[0]:.3e}/{gaps[1]:.3e}/{gaps[2]:.3e} (finest <= 5e-4), "
            f"ratios {ratios[0]:.2f}/{ratios[1]:.2f} (>= 2.5). "
            "The K=80 depth comes from the a-priori term bound "
            "(|ratio| T^delta)^K / Gamma(1+K*delta) at T=30; the remaining "
            "series-vs-direct gap is the difference between the two "
            "discretisations and falls like h^1.5 over [0, 30]; "
            f"{elapsed:.1f}s")


class TestManufacturedSolutions:
    """Criterion 5: problems built around a known quadratic solution."""

    def test_one_term_and_two_term(self):
        cases = [
            ("one-term a=0.5", ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))),
            ("two-term a=1.7,0.3",
             ProblemSpec(terms=((1.0, 1.7), (1.0, 0.3)),
                         initial_conditions=(0.0, 0.0))),
        ]
        details = []
        ok = True
        for label, base in cases:
            case = manufacture(base, 2)
            errs = []
            for h in (2e-3, 1e-3):
                traj = solve(case.problem, SolverConfig(h=h, t_end=1.0))
                exact = case.exact_series(h, len(traj.y.values)).values
                errs.append(float(np.max(np.abs(traj.y.values - exact))))
            ratio = errs[0] / errs[1]
            ok = ok and errs[1] <= 2e-2 and ratio >= 1.5
            details.append(f"{label}: sup err {errs[1]:.3e} (<= 2e-2), "
                           f"halving ratio {ratio:.2f} (>= 1.5)")
        report("manufactured solutions", ok, "; ".join(details))


class TestNonlinearStepSensitivity:
    """Criterion 6: cubic damping stays finite and self-converges."""

    def test_finite_and_self_converging(self, plate_cubic):
        runs = {}
        for h in (0.1, 0.01, 0.005, 0.0025, 0.00125, 0.001):
            traj = solve(plate_cubic, SolverConfig(h=h, t_end=30.0))
            finite = (traj.diagnostics.nan_node is None
                      and np.all(np.isfinite(traj.y.values)))
            assert finite, f"solution not finite at h={h}"
            runs[h] = traj.y.values

        def gap(h, half):
            coarse = runs[h]
            fine = runs[half][::2][: len(coarse)]
            return float(np.max(np.abs(coarse - fine)))

        d = [gap(0.01, 0.005), gap(0.005, 0.0025), gap(0.0025, 0.00125)]
        ratios = [d[0] / d[1], d[1] / d[2]]
        ok = min(ratios) >= 1.5
        report(
            "nonlinear step sensitivity",
            ok,
            f"finite at h=0.1/0.01/0.001 (max |y| "
            f"{np.max(np.abs(runs[0.1])):.3f}/"
            f"{np.max(np.abs(runs[0.01])):.3f}/"
            f"{np.max(np.abs(runs[0.001])):.3f}); "
            f"successive-halving gaps {d[0]:.3e}/{d[1]:.3e}/{d[2]:.3e}, "
            f"ratios {ratios[0]:.2f}/{ratios[1]:.2f} (>= 1.5)")


class TestStructuralInvariants:
    """Criterion 7: exact origin values, causality, determinism, and the
    self-check battery behind the verify subcommand."""

    def test_invariants_and_verify_battery(self, plate):
        prob = ProblemSpec(terms=((1.0, 1.5),),
                           initial_conditions=(2.75, 0.5))
        traj = solve(prob, SolverConfig(h=0.01, t_end=1.0))
        origin_exact = traj.y.values[0] == 2.75 and traj.z1.values[0] == 0.0

        h = 0.02
        vals = np.sin(np.arange(160) * h) ** 2  # starts at zero
        full = apply_operator(SampleSeries(h, vals), 0.7).values
        short = apply_operator(SampleSeries(h, vals[:90]), 0.7).values
        causal = np.array_equal(full[:90], short)

        cfg = SolverConfig(h=0.01, t_end=2.0)
        a, b = solve(plate, cfg), solve(plate, cfg)
        deterministic = (np.array_equal(a.y.values, b.y.values)
                         and np.array_equal(a.z1.values, b.z1.values))

        rc = cli_main(["verify"])
        ok = origin_exact and causal and deterministic and rc == 0
        report(
            "structural invariants",
            ok,
            f"y(0) and z1(0) exact: {origin_exact}; causality bitwise: "
            f"{causal}; reruns bit-identical: {deterministic}; "
            f"verify subcommand exit code {rc} (== 0)")

    def test_verify_battery_runs_clean(self):
        assert run_verify(stream=io.StringIO()) == 0
