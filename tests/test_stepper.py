import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fodesolve.decompose import (
    Babenko,
    ForcingSegment,
    PiecewiseForcing,
    Polynomial,
    ProblemSpec,
)
from fodesolve import stepper
from fodesolve.decompose import _tail_norm
from fodesolve.errors import BabenkoTailWarning
from fodesolve.oracle import gl_direct_solve, manufacture
from fodesolve.stepper import (
    SolverConfig,
    Trajectory,
    reconstruct_derivatives,
    solve,
)
from fodesolve.operators import SampleSeries, apply_operator
from leaf_map_rows import full_width_leaf_map
from node_loop import node_loop_solve

HALF_DERIVATIVE_OF_T_AT_1 = 1.1283791670955126


def blowup_problem():
    """D^0.5 y = -1 - 10 y^3 runs away fast enough to overflow."""
    return ProblemSpec(
        terms=((1.0, 0.5),),
        nonlinearity=Polynomial((-1.0, 0.0, 0.0, -10.0)),
        forcing=PiecewiseForcing.zero(),
        initial_conditions=(0.0,),
    )


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(h=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(h=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, t_end=0.0)

    def test_num_steps_exact_division(self):
        assert SolverConfig(h=0.01, t_end=2.0).num_steps == 200
        assert SolverConfig(h=0.1, t_end=1.0).num_steps == 10

    def test_num_steps_never_overshoots(self):
        cfg = SolverConfig(h=0.3, t_end=1.0)
        assert cfg.num_steps == 3  # covers [0, 0.9]
        assert cfg.num_steps * cfg.h <= cfg.t_end * (1 + 1e-12)
        # floor(t_end/h + 1e-9) is 3 here, and 3 steps pass t_end.
        assert SolverConfig(h=0.1, t_end=0.29999999991).num_steps == 2

    def test_at_least_two_steps(self):
        with pytest.raises(ValueError):
            SolverConfig(h=1.0, t_end=1.0)

    def test_grid_past_physical_memory_is_refused(self):
        # 3e10 + 1 nodes: 240 GB per float64 array, refused before any
        # array is allocated.
        with pytest.raises(ValueError, match=r"^grid too large: 30000000001"
                           r" nodes need 240000000008 bytes"):
            SolverConfig(h=1e-9, t_end=30.0)

    def test_counts_past_fifteen_digits_are_shortened(self, monkeypatch):
        # 1e300 nodes: the counts keep three digits, not 301.
        monkeypatch.setattr(stepper, "_physical_memory", lambda: 2 ** 34)
        with pytest.raises(ValueError) as info:
            SolverConfig(h=1e-300, t_end=1.0)
        assert str(info.value) == (
            "grid too large: 1.00e+300 nodes need 8.00e+300 bytes per"
            " array, more than the 17179869184 bytes of physical memory")

    @pytest.mark.parametrize("memory", [2 ** 34, None])
    def test_step_count_past_the_float_range_is_refused(self, monkeypatch,
                                                         memory):
        # t_end / h overflows to inf: refused whether or not the memory
        # size is known.
        monkeypatch.setattr(stepper, "_physical_memory", lambda: memory)
        with pytest.raises(ValueError, match=r"^grid too large: step 1e-320"
                           " leaves more steps before t = 1 than a float"):
            SolverConfig(h=1e-320, t_end=1.0)

    def test_grid_check_skipped_where_memory_is_not_reported(
            self, monkeypatch):
        # Without a reported memory size only the node count is checked;
        # a config allocates nothing.
        monkeypatch.setattr(stepper, "_physical_memory", lambda: None)
        assert SolverConfig(h=1e-9, t_end=30.0).num_steps == 30_000_000_000


class TestReconstruction:
    # solve reconstructs y at every node as the initial-condition
    # polynomial plus D^nu z1.  With no cubic term a problem takes the
    # leaf map alone, with one the leaf map after each leaf's sweep.
    def test_node_zero_is_b0_exactly(self):
        for cubic in (0.0, -0.1):
            problem = ProblemSpec(
                terms=((1.0, 0.5),),
                nonlinearity=Polynomial((1.0, 0.0, 0.0, cubic)),
                initial_conditions=(2.5,))
            traj = solve(problem, SolverConfig(h=0.1, t_end=1.0))
            assert traj.y.values[0] == 2.5

    def test_nu_zero_is_polynomial_plus_series(self):
        for cubic in (0.0, -0.1):
            problem = ProblemSpec(
                terms=((1.0, 2.0), (0.5, 0.5)),
                nonlinearity=Polynomial((1.0, 0.0, 0.0, cubic)),
                initial_conditions=(1.0, 2.0))
            traj = solve(problem, SolverConfig(h=0.5, t_end=3.0))
            # y_i = b0 + b1 t_i + z1_i at nu = 0
            z1 = traj.z1.values
            assert np.count_nonzero(z1) > 1
            assert np.array_equal(traj.y.values,
                                  1.0 + 2.0 * traj.times + z1)

    def test_half_order_closed_form(self):
        # The reconstruction's fractional part is apply_operator at nu.
        h, n = 1e-3, 1001
        z1 = SampleSeries(h, h * np.arange(n))
        got = apply_operator(z1, 0.5).values[n - 1]
        assert got == pytest.approx(HALF_DERIVATIVE_OF_T_AT_1, abs=2e-2)

    def test_derivative_rows_zero_case(self):
        z1 = SampleSeries(0.1, np.zeros(8))
        rows = reconstruct_derivatives(z1, (0.0, 0.0), 1.5, 2)
        assert len(rows) == 1
        assert np.array_equal(rows[0].values, np.zeros(8))

    def test_derivative_rows_count(self):
        z1 = SampleSeries(0.1, np.zeros(8))
        assert reconstruct_derivatives(z1, (0.0,), 0.5, 1) == ()
        rows = reconstruct_derivatives(z1, (0.0, 0.0, 0.0), 2.5, 3)
        assert len(rows) == 2

    def test_derivative_rows_ic_count_checked(self):
        z1 = SampleSeries(0.1, np.zeros(8))
        with pytest.raises(ValueError):
            reconstruct_derivatives(z1, (0.0,), 1.5, 2)

    @pytest.mark.parametrize("ics,alpha1,m1", [
        ((0.0, 0.0, 0.0), 1.5, 3), ((0.0, 0.0), 2.7, 2),
        ((0.0, 0.0), 1.5, 2.5)])
    def test_derivative_rows_need_the_matching_m1(self, ics, alpha1, m1):
        # Unchecked, the first case built its rows with nu = 1.5 and the
        # second a "y'" row of D^0.3 z1 (nu = -0.7).
        z1 = SampleSeries(0.1, np.zeros(8))
        with pytest.raises(ValueError, match="integer order"):
            reconstruct_derivatives(z1, ics, alpha1, m1)

    def test_derivative_rows_start_at_their_initial_values(self):
        z1 = SampleSeries(0.1, np.zeros(8))
        t = z1.times
        rows = reconstruct_derivatives(z1, (7.0, 3.0, -2.0), 2.5, 3)
        # y' = b1 + b2 t and y'' = b2 when the fractional part is zero
        assert np.allclose(rows[0].values, 3.0 - 2.0 * t, rtol=0, atol=0)
        assert np.array_equal(rows[1].values, np.full(8, -2.0))
        assert rows[0].values[0] == 3.0 and rows[1].values[0] == -2.0


class TestManufacturedSolves:
    def test_one_term_half_order(self):
        base = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))
        case = manufacture(base, 2)
        errs = []
        for h in (1e-3, 5e-4):
            cfg = SolverConfig(h=h, t_end=1.0)
            traj = solve(case.problem, cfg)
            exact = case.exact_series(h, cfg.num_steps + 1)
            errs.append(np.max(np.abs(traj.y.values - exact.values)))
        assert errs[0] <= 2e-3
        assert errs[0] / errs[1] >= 1.5

    def test_two_term_independent(self):
        base = ProblemSpec(terms=((1.0, 1.7), (1.0, 0.3)),
                           initial_conditions=(0.0, 0.0))
        case = manufacture(base, 2)
        errs = []
        for h in (1e-3, 5e-4):
            cfg = SolverConfig(h=h, t_end=1.0)
            traj = solve(case.problem, cfg)
            exact = case.exact_series(h, cfg.num_steps + 1)
            errs.append(np.max(np.abs(traj.y.values - exact.values)))
        assert errs[0] <= 2e-4
        assert errs[0] / errs[1] >= 1.5

    def test_dependent_two_term(self):
        base = ProblemSpec(terms=((1.0, 1.5), (1.0, 1.2)),
                           initial_conditions=(0.0, 0.0))
        case = manufacture(base, 2)
        cfg = SolverConfig(h=1e-3, t_end=1.0)
        traj = solve(case.problem, cfg)
        exact = case.exact_series(cfg.h, cfg.num_steps + 1)
        assert np.max(np.abs(traj.y.values - exact.values)) <= 2e-2

    def test_with_linear_reaction_term(self):
        base = ProblemSpec(terms=((1.0, 0.5),),
                           nonlinearity=Polynomial((0.0, 1.0)),
                           initial_conditions=(0.0,))
        case = manufacture(base, 2)
        cfg = SolverConfig(h=1e-3, t_end=1.0)
        traj = solve(case.problem, cfg)
        exact = case.exact_series(cfg.h, cfg.num_steps + 1)
        assert np.max(np.abs(traj.y.values - exact.values)) <= 2e-3


class TestIntegerOrderReduction:
    def test_cosine(self):
        # D^2 y = -y with y(0) = 1, y'(0) = 0: the chain reduces to the
        # classical oscillator and must track cos t at first order.
        p = ProblemSpec(terms=((1.0, 2.0),),
                        nonlinearity=Polynomial((0.0, 1.0)),
                        initial_conditions=(1.0, 0.0))
        cfg = SolverConfig(h=1e-3, t_end=1.0)
        traj = solve(p, cfg)
        assert np.max(np.abs(traj.y.values - np.cos(traj.times))) <= 5e-3

    def test_nonzero_start_is_exact_at_origin(self):
        p = ProblemSpec(terms=((1.0, 2.0),),
                        nonlinearity=Polynomial((0.0, 1.0)),
                        initial_conditions=(1.0, 0.0))
        traj = solve(p, SolverConfig(h=0.01, t_end=1.0))
        assert traj.y.values[0] == 1.0
        assert traj.z1.values[0] == 0.0


class TestStructuralInvariants:
    def test_origin_values_exact(self, plate):
        traj = solve(plate, SolverConfig(h=0.01, t_end=2.0))
        assert traj.y.values[0] == 0.0
        assert traj.z1.values[0] == 0.0

    def test_nonzero_b0_exact_at_origin(self):
        p = ProblemSpec(terms=((1.0, 0.5),),
                        initial_conditions=(2.75,))
        traj = solve(p, SolverConfig(h=0.01, t_end=1.0))
        assert traj.y.values[0] == 2.75

    def test_determinism(self, plate):
        cfg = SolverConfig(h=0.01, t_end=2.0)
        a = solve(plate, cfg)
        b = solve(plate, cfg)
        assert np.array_equal(a.y.values, b.y.values)
        assert np.array_equal(a.z1.values, b.z1.values)

    def test_reconstruction_shares_the_operator_kernel(self):
        # Independent class (orders 1.5 and 0.7): y is the IC polynomial
        # plus D^0.5 z1, evaluated node by node with apply_operator's
        # own kernel, so the two agree bitwise.
        p = ProblemSpec(terms=((1.0, 1.5), (0.3, 0.7)),
                        nonlinearity=Polynomial((0.0, 0.5)),
                        forcing=PiecewiseForcing((
                            ForcingSegment(0.0, math.inf, (1.0,)),)),
                        initial_conditions=(1.0, 0.5))
        traj = solve(p, SolverConfig(h=0.01, t_end=5.0))
        expect = 1.0 + 0.5 * traj.times + apply_operator(traj.z1, 0.5).values
        assert np.array_equal(traj.y.values, expect)

    def test_times_cover_requested_span(self, plate):
        traj = solve(plate, SolverConfig(h=0.01, t_end=2.0))
        assert len(traj.y) == 201
        assert traj.times[-1] == pytest.approx(2.0)


class TestInversionRoutes:
    def test_babenko_matches_direct_on_short_horizon(self, plate):
        direct = solve(plate, SolverConfig(h=0.01, t_end=2.0))
        ser = solve(plate, SolverConfig(h=0.01, t_end=2.0,
                                        inversion=Babenko(terms=30)))
        assert ser.diagnostics.babenko_tail is not None
        assert ser.diagnostics.babenko_tail <= 1e-8
        assert np.max(np.abs(ser.y.values - direct.y.values)) <= 1e-3

    def test_babenko_tail_warning_on_long_horizon(self, plate):
        with pytest.warns(BabenkoTailWarning):
            solve(plate, SolverConfig(h=0.1, t_end=30.0,
                                      inversion=Babenko(terms=10)))

    def test_horizon_checked_before_stepping(self, plate):
        # The a-priori warning comes first, so turned into an error it
        # stops the run before any node is stepped.
        cfg = SolverConfig(h=0.01, t_end=30.0, inversion=Babenko(terms=30))
        with warnings.catch_warnings():
            warnings.simplefilter("error", BabenkoTailWarning)
            with pytest.raises(BabenkoTailWarning, match="a-priori"):
                solve(plate, cfg)

    @pytest.mark.parametrize("terms,h,t_end", [
        (30, 0.01, 30.0), (80, 0.01, 30.0), (30, 0.00125, 5.0),
    ])
    def test_babenko_bound_recorded(self, plate, terms, h, t_end):
        # Plate coupling: ratio = delta = 0.5.  The factors are 10.2,
        # 1.2e-13 and 2.2e-11.
        expect = (0.5 * t_end ** 0.5) ** terms / math.gamma(1 + terms / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BabenkoTailWarning)
            diag = solve(plate, SolverConfig(
                h=h, t_end=t_end, inversion=Babenko(terms=terms))).diagnostics
        assert diag.babenko_bound == pytest.approx(expect, rel=1e-12)
        assert type(diag.babenko_bound) is float
        assert type(diag.babenko_tail) is float

    def test_tail_warning_names_the_caller(self, plate):
        # The run's truncation warning is the series inversion's own,
        # pointed at the line that called solve.
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            solve(plate, SolverConfig(h=0.1, t_end=30.0,
                                      inversion=Babenko(terms=10)))
        tails = [r for r in rec if issubclass(r.category, BabenkoTailWarning)
                 and "last term still has sup norm" in str(r.message)]
        assert [r.filename for r in tails] == [__file__]

    def test_unknown_inversion_is_an_error(self, plate):
        # A string is not an inversion; it must not fall through to the
        # direct route.
        with pytest.raises(ValueError, match="inversion"):
            solve(plate, SolverConfig(h=0.01, t_end=2.0,
                                      inversion="babenko"))

    def test_direct_route_has_no_bound(self, plate):
        diag = solve(plate, SolverConfig(h=0.01, t_end=2.0)).diagnostics
        assert diag.babenko_bound is None and diag.babenko_tail is None

    def test_series_route_with_a_zero_folded_term(self, plate):
        # A folded term with coefficient 0 gives ratio 0: the a-priori
        # factor and the last retained power are both 0, no warning is
        # raised, and the series route gives the direct route's bits.
        zero = plate._replace(terms=((1.0, 2.0), (0.0, 1.5)))
        cfg = SolverConfig(h=0.01, t_end=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ser = solve(zero, replace(cfg, inversion=Babenko(terms=30)))
        direct = solve(zero, cfg)
        assert ser.diagnostics.babenko_bound == 0.0
        assert ser.diagnostics.babenko_tail == 0.0
        assert np.array_equal(ser.y.values, direct.y.values)
        assert np.array_equal(ser.z1.values, direct.z1.values)

    def test_series_route_is_prefix_causal(self, plate):
        inv = Babenko(terms=30)
        short = solve(plate, SolverConfig(h=0.01, t_end=2.5, inversion=inv))
        whole = solve(plate, SolverConfig(h=0.01, t_end=5.0, inversion=inv))
        n = len(short.y)
        assert np.array_equal(short.y.values, whole.y.values[:n])
        assert np.array_equal(short.z1.values, whole.z1.values[:n])


    @pytest.mark.parametrize("h,terms,settled", [
        (0.01, 250, 200), (0.1, 400, 300),
    ])
    def test_series_fold_ends_where_its_powers_underflow(
            self, plate, h, terms, settled):
        # Past about 160 powers (h = 0.01) the coefficients underflow to
        # 0 while the power tables overflow, and past 342 powers Gamma
        # itself overflows; those powers are taken in logs, and on
        # [0, 5] they lie far below half an ulp of the fold, so more
        # terms change no bit of y.
        def run(k):
            return solve(plate, SolverConfig(
                h=h, t_end=5.0, inversion=Babenko(terms=k)))
        many = run(terms)
        assert many.diagnostics.nan_node is None
        assert np.all(np.isfinite(many.y.values))
        assert np.array_equal(many.y.values, run(settled).y.values)

    def test_three_shared_leading_orders(self):
        # Three terms share m1 = 2, so two folded links go through the
        # direct inverter together; the plate's reaction and step load.
        p = ProblemSpec(terms=((1.0, 2.0), (0.5, 1.6), (0.3, 1.3)),
                        nonlinearity=Polynomial((0.0, 0.5)),
                        forcing=PiecewiseForcing((
                            ForcingSegment(0.0, 1.0, (8.0,)),
                            ForcingSegment(1.0, math.inf, (0.0,)))),
                        initial_conditions=(0.0, 0.0))
        short = solve(p, SolverConfig(h=0.01, t_end=2.5))
        whole = solve(p, SolverConfig(h=0.01, t_end=5.0))
        n = len(short.y)
        assert np.array_equal(short.y.values, whole.y.values[:n])
        assert np.array_equal(short.z1.values, whole.z1.values[:n])
        # First order against the whole-history oracle: 0.175, 0.088
        # and 0.044 measured.
        gaps = []
        for h in (0.02, 0.01, 0.005):
            cfg = SolverConfig(h=h, t_end=5.0)
            gaps.append(np.max(np.abs(solve(p, cfg).y.values
                                      - gl_direct_solve(p, cfg).y.values)))
        assert gaps[0] >= 1.8 * gaps[1] and gaps[1] >= 1.8 * gaps[2]
        assert gaps[2] <= 0.06


class TestDerivativeOutput:
    def test_disabled_by_default(self, plate):
        traj = solve(plate, SolverConfig(h=0.01, t_end=2.0))
        assert traj.y_derivs is None

    def test_first_derivative_tracks_manufactured_case(self):
        base = ProblemSpec(terms=((1.0, 1.7), (1.0, 0.3)),
                           initial_conditions=(0.0, 0.0))
        case = manufacture(base, 2)
        cfg = SolverConfig(h=1e-3, t_end=1.0, output_derivatives=True)
        traj = solve(case.problem, cfg)
        assert len(traj.y_derivs) == 1
        t = traj.times
        got = traj.y_derivs[0].values[: len(t)]
        assert np.max(np.abs(got - 2.0 * t)) <= 5e-2


class TestNanPolicy:
    def test_trajectory_truncated_before_first_bad_node(self):
        with pytest.warns(RuntimeWarning):
            traj = solve(blowup_problem(), SolverConfig(h=0.1, t_end=50.0))
        assert traj.diagnostics.nan_node == 9
        assert len(traj.y) == traj.diagnostics.nan_node
        assert np.all(np.isfinite(traj.y.values))
        assert np.all(np.isfinite(traj.z1.values))
        # The last node kept is finite, but its cube is past double range.
        with pytest.raises(OverflowError):
            traj.y.values.item(-1) ** 3

    def test_cubic_overflow_at_a_finite_node_stops_at_the_next(self):
        # Dependent class: two leading terms fold, the direct inverter
        # runs.  The last node kept is finite, but its cube is past double
        # range: a float power raises there, where the stepper's numpy
        # power gives inf.  The run must still go on to the next node,
        # which comes out non-finite, and stop there.
        p = ProblemSpec(terms=((1.0, 1.5), (0.5, 1.2)),
                        nonlinearity=Polynomial((-1.0, 0.0, 0.0, -10.0)),
                        initial_conditions=(0.0, 0.0))
        with pytest.warns(RuntimeWarning, match="run stopped at node 20"):
            traj = solve(p, SolverConfig(h=0.1, t_end=50.0))
        assert traj.diagnostics.nan_node == 20
        assert len(traj.y) == len(traj.z1) == 20
        assert np.all(np.isfinite(traj.y.values))
        with pytest.raises(OverflowError):
            traj.y.values.item(-1) ** 3

    def test_series_tail_counts_the_node_the_run_stopped_at(
            self, monkeypatch):
        # D^1.5 y + 0.5 D^1.2 y = -1 - 10 y^3 blows up at node 20, where
        # w overflows.  The last term over nodes 0..19 is finite, so an
        # inf tail shows node 20 was counted.
        seen = []

        def spy(last, values):
            seen.append((last, values.copy()))
            return _tail_norm(last, values)
        monkeypatch.setattr(stepper, "_tail_norm", spy)
        p = ProblemSpec(terms=((1.0, 1.5), (0.5, 1.2)),
                        nonlinearity=Polynomial((-1.0, 0.0, 0.0, -10.0)),
                        initial_conditions=(0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            diag = solve(p, SolverConfig(h=0.1, t_end=50.0,
                                         inversion=Babenko())).diagnostics
        assert diag.nan_node == 20 and diag.babenko_tail == math.inf
        (last, w), = seen
        assert w.size == 21 and np.all(np.isfinite(w[:20]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BabenkoTailWarning)
            assert math.isfinite(_tail_norm(last, w[:20]))

    def test_series_tail_of_a_gradual_runaway_warns_only_of_the_stop(self):
        # D^1.5 y + 5 D^1.2 y = 1 + y runs away and stops at node 70.
        # Its last series term outgrows double range while w is still
        # finite, so the tail's sums overflow; that shows in the tail
        # (inf), not as numpy warnings.
        p = ProblemSpec(terms=((1.0, 1.5), (5.0, 1.2)),
                        nonlinearity=Polynomial((0.0, -1.0)),
                        forcing=PiecewiseForcing((
                            ForcingSegment(0.0, math.inf, (1.0,)),)),
                        initial_conditions=(0.0, 0.0))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            diag = solve(p, SolverConfig(h=0.1, t_end=20.0,
                                         inversion=Babenko())).diagnostics
        assert diag.nan_node == 70 and diag.babenko_tail == math.inf
        plain = [str(w.message) for w in rec
                 if w.category is RuntimeWarning]
        assert len(plain) == 1 and plain[0].startswith("run stopped")

    def test_healthy_run_has_no_nan_node(self, plate):
        traj = solve(plate, SolverConfig(h=0.01, t_end=2.0))
        assert traj.diagnostics.nan_node is None


class TestForcingWindows:
    def test_step_load_cutoff_visible(self, plate):
        # the forcing drops to zero at t = 1; acceleration must fall
        traj = solve(plate, SolverConfig(h=0.01, t_end=2.0,
                                         output_derivatives=True))
        dy = traj.y_derivs[0].values
        k = round(1.0 / 0.01)
        # velocity keeps rising were the load still on; with the cutoff
        # the increments shrink
        before = dy[k] - dy[k - 10]
        after = dy[k + 10] - dy[k]
        assert after < before

    def test_grid_beyond_coverage_rejected(self):
        p = ProblemSpec(
            terms=((1.0, 0.5),),
            forcing=PiecewiseForcing((ForcingSegment(0.0, 1.0, (1.0,)),)),
            initial_conditions=(0.0,),
        )
        with pytest.raises(ValueError):
            solve(p, SolverConfig(h=0.1, t_end=2.0))


def _rel_sup(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _const(*coeffs):
    return PiecewiseForcing((ForcingSegment(0.0, math.inf, coeffs),))


LINEAR = {
    # One term, m1 = 1, a nonzero initial value and a constant monomial.
    "one_term": (ProblemSpec(terms=((1.0, 0.6),),
                             nonlinearity=Polynomial((0.3, 0.8)),
                             forcing=_const(1.0, 0.2),
                             initial_conditions=(1.5,)),
                 SolverConfig(h=0.005, t_end=20.0)),
    # Independent class: nu = 0.5 and one right-hand-side link.
    "independent": (ProblemSpec(terms=((1.0, 1.5), (0.3, 0.7)),
                                nonlinearity=Polynomial((0.0, 0.5)),
                                forcing=_const(1.0),
                                initial_conditions=(1.0, 0.5)),
                    SolverConfig(h=0.005, t_end=20.0)),
    # Dependent class: two folded links through the direct inverter.
    "dependent": (ProblemSpec(terms=((1.0, 2.0), (0.5, 1.6), (0.3, 1.3)),
                              nonlinearity=Polynomial((0.0, 0.5)),
                              forcing=PiecewiseForcing((
                                  ForcingSegment(0.0, 1.0, (8.0,)),
                                  ForcingSegment(1.0, math.inf, (0.0,)))),
                              initial_conditions=(0.0, 0.0)),
                  SolverConfig(h=0.005, t_end=20.0)),
    # m1 = 3: a three-component state, nu = 0.5, two links.
    "m1_3": (ProblemSpec(terms=((1.0, 2.5), (0.4, 1.2), (0.2, 0.5)),
                         nonlinearity=Polynomial((0.1, 0.5)),
                         forcing=_const(1.0),
                         initial_conditions=(0.5, -0.2, 0.1)),
             SolverConfig(h=0.005, t_end=10.0)),
    # Many couplings: m1 = 3, nu = 0.5, one folded link (order 2.1)
    # and two right-hand-side links (orders 1.2 and 0.5).
    "four_term": (ProblemSpec(terms=((1.0, 2.5), (0.5, 2.1), (0.3, 1.2),
                                     (0.2, 0.5)),
                              nonlinearity=Polynomial((0.1, 0.5)),
                              forcing=PiecewiseForcing((
                                  ForcingSegment(0.0, 1.0, (8.0,)),
                                  ForcingSegment(1.0, math.inf, (0.0,)))),
                              initial_conditions=(0.5, -0.2, 0.1)),
                  SolverConfig(h=0.005, t_end=10.0)),
}


class TestLeafRoute:
    @pytest.mark.parametrize("name", [*LINEAR, "plate_series", "cubic",
                                      "cubic_series", "four_term_series"])
    def test_leaf_map_matches_the_node_loop(self, plate, plate_cubic, name):
        # Every problem steps through one leaf map per leaf, a nonlinear
        # one after a sweep inside the leaf; the reference loop steps
        # node by node through the running couplings: the same
        # recurrence, summed in another order.  Bound: 1e-11 relative
        # sup of y and of z1, far above the rounding either route
        # carries over these 1 001-4 001 nodes (7e-16 to 1.3e-12
        # measured) and far below the change a wrong far block, lag,
        # update order or sweep would make.  The four-term series route
        # runs on [0, 5], where its a-priori factor stays below the
        # warning's (1.9e-6 at t = 10).
        if name == "four_term_series":
            problem = LINEAR["four_term"][0]
            config = SolverConfig(h=0.005, t_end=5.0,
                                  inversion=Babenko(terms=30))
        elif name.endswith("series"):
            problem = plate_cubic if name == "cubic_series" else plate
            config = SolverConfig(h=0.00125, t_end=5.0,
                                  inversion=Babenko(terms=30))
        elif name == "cubic":
            problem, config = plate_cubic, SolverConfig(h=0.01, t_end=30.0)
        else:
            problem, config = LINEAR[name]
        leaf = solve(problem, config)
        loop = node_loop_solve(problem, config)
        assert len(leaf.y) == len(loop.y) == config.num_steps + 1
        assert _rel_sup(leaf.y.values, loop.y) <= 1e-11
        assert _rel_sup(leaf.z1.values, loop.z1) <= 1e-11
        if name.endswith("series"):
            tails = (leaf.diagnostics.babenko_tail, loop.babenko_tail)
            assert tails[0] == pytest.approx(tails[1], rel=1e-11)

    @pytest.mark.parametrize("name", [*LINEAR, "plate", "plate_series",
                                      "negative_pivot", "overflowed",
                                      "cubic", "cubic_series", "plate_11"])
    def test_leaf_map_keeps_the_full_width_bits(self, monkeypatch, plate,
                                                plate_cubic, name):
        # The reference runs the recurrence on a column per input per
        # node and forms y node by node.  Every entry must keep its
        # bits, the zeros before a block's input included (the direct
        # route's z1 rows hold 0.0 / pivot there, -0.0 for the negative
        # pivot, and so do y's at nu = 0), and so must G's finiteness
        # (the overflowed map's response to the start state passes
        # double range).  On the cubic plate G_y's right-hand-side block
        # drives the nonlinear sweep; the plate's 11-node grid has lag
        # tables of 16 entries, shorter than the leaf.
        if name in LINEAR:
            problem, config = LINEAR[name]
        elif name == "negative_pivot":
            # pivot 1 - 40 * 0.1 / (2 Gamma(1.5)) = -1.26 at h = 0.01
            problem = ProblemSpec(terms=((1.0, 2.0), (-40.0, 1.5)),
                                  forcing=_const(1.0),
                                  initial_conditions=(0.0, 0.0))
            config = SolverConfig(h=0.01, t_end=1.0)
        elif name == "overflowed":
            problem = ProblemSpec(terms=((1.0, 1.0), (0.2, 0.5)),
                                  nonlinearity=Polynomial((0.0, -1e5)),
                                  forcing=_const(1.0),
                                  initial_conditions=(0.0,))
            config = SolverConfig(h=1.0, t_end=70.0)
        elif name == "plate_11":
            problem, config = plate, SolverConfig(h=0.1, t_end=1.0)
        else:
            problem = plate_cubic if name.startswith("cubic") else plate
            config = SolverConfig(
                h=0.01, t_end=5.0,
                inversion=Babenko(30) if name.endswith("series") else None)
        built = []

        def both(*args):
            maps = stepper_leaf_map(*args), full_width_leaf_map(*args)
            built.append(maps)
            return maps[0]
        stepper_leaf_map = stepper._leaf_map
        monkeypatch.setattr(stepper, "_leaf_map", both)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            solve(problem, config)
        (package, full), = built
        for a, b in zip(package[:2], full[:2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        finite = np.isfinite(full[0]).all()
        assert finite == (name != "overflowed")
        if name == "negative_pivot":
            assert np.signbit(full[0][0, -1]) and full[0][0, -1] == 0.0

    @pytest.mark.parametrize("name, shape", [
        ("one_term", (65, 65)), ("independent", (66, 66)),
        ("dependent", (66, 130)), ("m1_3", (67, 67)),
        ("four_term", (67, 131)), ("plate", (66, 130)),
        ("plate_series", (130, 130))])
    def test_leaf_map_takes_one_input_per_injection_point(
            self, monkeypatch, plate, name, shape):
        # g has m1 + 64 * (1 + [inverter links]) columns, whatever the
        # number of couplings: the right-hand side's input, and the
        # inverter's where it has links.  Its rows are z1 at the leaf's
        # nodes, w there on the series route, and the state after the
        # leaf.  g_y has g's columns.
        if name in LINEAR:
            problem, config = LINEAR[name]
        else:
            problem = plate
            config = SolverConfig(
                h=0.01, t_end=5.0,
                inversion=Babenko(30) if name == "plate_series" else None)
        built = []

        def kept(*args):
            built.append(leaf_map(*args))
            return built[-1]
        leaf_map = stepper._leaf_map
        monkeypatch.setattr(stepper, "_leaf_map", kept)
        solve(problem, config)
        (g, g_y, _, _), = built
        assert g.shape == shape
        assert g_y.shape == (64, shape[1])

    @pytest.mark.parametrize("t_short", [0.2, 2.5])
    def test_prefix_causal_over_a_partial_last_leaf(self, plate_cubic,
                                                    t_short):
        # 41 and 501 nodes: the short grid's only or last leaf is cut
        # short, and its padded inputs must not reach a node on the grid.
        # The cubic plate's sweeps end at their fixed point whatever
        # the padded nodes do.
        for problem in (LINEAR["m1_3"][0], plate_cubic):
            short = solve(problem, SolverConfig(h=0.005, t_end=t_short))
            whole = solve(problem, SolverConfig(h=0.005, t_end=5.0))
            n = len(short.y)
            assert n % 64 and n < len(whole.y)
            assert np.array_equal(short.y.values, whole.y.values[:n])
            assert np.array_equal(short.z1.values, whole.z1.values[:n])

    @pytest.mark.parametrize("inversion", [{}, {"inversion": Babenko(30)}],
                             ids=["direct", "series"])
    def test_sweeps_stop_at_the_grid_nodes(self, monkeypatch, plate_cubic,
                                           inversion):
        # The cubic plate at h = 0.125 on [0, 0.25] is one leaf of 3 grid
        # nodes and 61 padding nodes.  The leaf takes one product for its
        # inputs, one for the sweeps' base, one per sweep and one for its
        # outputs.  Sweep k fixes node k, so once the padding is held at
        # 0 the sweeps end after at most 3 + 1, and the leaf takes 4 to
        # 7 products; sweeping the padding too took 49.
        calls = []
        real = stepper._leaf_product

        def counted(g, x, buf):
            calls.append(g.shape)
            return real(g, x, buf)
        monkeypatch.setattr(stepper, "_leaf_product", counted)
        run = solve(plate_cubic,
                    SolverConfig(h=0.125, t_end=0.25, **inversion))
        assert len(run.y) == 3 and run.diagnostics.nan_node is None
        assert 4 <= len(calls) <= 7

    def test_linear_solve_sums_no_history_node_by_node(self, monkeypatch,
                                                       plate, plate_cubic):
        # Every problem takes each leaf's history from the far field and
        # its leaf from the leaf map, a nonlinear one after its sweep,
        # and the oracle and apply_operator take whole series: none of
        # them calls a single-node function, the frac_* operators or the
        # direct inverter's volterra_direct_invert, by any module's name
        # for it.
        import fodesolve
        from fodesolve import decompose, operators, oracle, verify
        calls = []

        def counting(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted
        for module in (fodesolve, operators, decompose, stepper, oracle,
                       verify):
            for name in ("frac_integral", "frac_derivative01",
                         "frac_derivative_general", "volterra_direct_invert"):
                if name in vars(module):
                    monkeypatch.setattr(module, name,
                                        counting(name, vars(module)[name]))
        config = SolverConfig(h=0.01, t_end=5.0)
        z1 = solve(plate, config).z1
        solve(plate_cubic, config)
        gl_direct_solve(plate, config)
        for mu in (-0.5, 0.5, 1.5):
            apply_operator(z1, mu)
        assert calls == []
        # The counters are live.
        operators.frac_integral(z1, 0.5, 3)
        assert calls == ["frac_integral"]

    def test_an_overflowed_leaf_map_entry_meets_zero_inputs_as_zero(self):
        # y' + 0.2 D^0.5 y = 1 + 1e5 y at h = 1 grows 1e5-fold a node: the
        # leaf map's response to the start state overflows within the
        # first leaf, where that state is 0.  The run must stop where the
        # node loop stops, at node 64, not at the first overflowed entry.
        p = ProblemSpec(terms=((1.0, 1.0), (0.2, 0.5)),
                        nonlinearity=Polynomial((0.0, -1e5)),
                        forcing=_const(1.0),
                        initial_conditions=(0.0,))
        config = SolverConfig(h=1.0, t_end=200.0)
        with pytest.warns(RuntimeWarning, match="run stopped at node 64"):
            leaf = solve(p, config)
        loop = node_loop_solve(p, config)
        assert loop.nan_node == 64
        assert _rel_sup(leaf.y.values, loop.y) <= 1e-11

    def test_a_non_finite_forcing_sample_stops_the_run_after_it(self):
        # The forcing overflows at node 180, inside the leaf of nodes
        # 128..191; it enters z1 through the state at node 181, where
        # both routes stop.  The leaf's earlier nodes must not meet the
        # inf as 0 * inf.
        p = ProblemSpec(terms=((1.0, 0.5),),
                        nonlinearity=Polynomial((0.0, 1.0)),
                        forcing=PiecewiseForcing((
                            ForcingSegment(0.0, 17.95, (1.0,)),
                            ForcingSegment(17.95, math.inf, (0.0, 1e308)))),
                        initial_conditions=(0.0,))
        config = SolverConfig(h=0.1, t_end=30.0)
        with np.errstate(over="ignore"):
            with pytest.warns(RuntimeWarning, match="stopped at node 181"):
                leaf = solve(p, config)
            loop = node_loop_solve(p, config)
        assert loop.nan_node == 181
        assert _rel_sup(leaf.y.values, loop.y) <= 1e-11

    # The leaf driver's stop.  D^1.5 y + 0.7 D^0.7 y + 0.4 y = 1 - 0.05 t
    # up to t = start, then 1e308 t, past double range from the first
    # node after start, which reaches z1 through the state at the next
    # node: node 31 inside the first leaf, or node 197 inside the partial
    # last leaf of a 201-node grid (3 leaves and 9 nodes).  Bound, here
    # and on the short grids below: 1e-9 relative sup of y and of z1, the
    # bound of the oracle's test_leaf_solve_matches_the_node_by_node_loop,
    # far above the rounding either route carries over at most 201 nodes
    # (up to 2.4e-14 measured) and far below the change a lost leaf, a
    # far block closed at the wrong start or a leaf cut short would make.
    @pytest.mark.parametrize("start,nan_node", [(2.95, 31), (19.55, 197)],
                             ids=["first_leaf", "partial_last_leaf"])
    def test_stops_inside_a_leaf_and_keeps_the_nodes_before(self, start,
                                                            nan_node):
        p = ProblemSpec(terms=((1.0, 1.5), (0.7, 0.7)),
                        nonlinearity=Polynomial((0.0, 0.4)),
                        forcing=PiecewiseForcing((
                            ForcingSegment(0.0, start, (1.0, -0.05)),
                            ForcingSegment(start, math.inf, (0.0, 1e308)))),
                        initial_conditions=(0.0, 0.0))
        config = SolverConfig(h=0.1, t_end=20.0)
        with np.errstate(over="ignore"):
            with pytest.warns(RuntimeWarning,
                              match=f"stopped at node {nan_node} "):
                leaf = solve(p, config)
            loop = node_loop_solve(p, config)
        assert leaf.diagnostics.nan_node == loop.nan_node == nan_node
        assert len(leaf.y) == len(leaf.z1) == len(loop.y) == nan_node
        assert _rel_sup(leaf.y.values, loop.y) <= 1e-9
        assert _rel_sup(leaf.z1.values, loop.z1) <= 1e-9

    @pytest.mark.parametrize("nodes", [3, 64, 65])
    @pytest.mark.parametrize("name", ["plate", "cubic", "independent"])
    def test_short_grids_match_the_node_loop(self, plate, plate_cubic, name,
                                             nodes):
        # Fewer nodes than one leaf, exactly one leaf, and one leaf and
        # the node that closes the first far block.
        problem = {"plate": plate, "cubic": plate_cubic,
                   "independent": LINEAR["independent"][0]}[name]
        config = SolverConfig(h=0.125, t_end=0.125 * (nodes - 1))
        leaf = solve(problem, config)
        loop = node_loop_solve(problem, config)
        assert leaf.diagnostics.nan_node is None and loop.nan_node is None
        assert len(leaf.y) == len(loop.y) == nodes
        assert _rel_sup(leaf.y.values, loop.y) <= 1e-9
        assert _rel_sup(leaf.z1.values, loop.z1) <= 1e-9

    def test_a_runaway_is_kept_up_to_its_own_overflow(self):
        # D^1.5 y - 50 y = 1 passes double range after node 630.  The
        # node loop stops at 628, where its history sums overflow; the
        # leaf map keeps 628..630 (1.3e307, 4.2e307, 1.3e308), which the
        # same run with its forcing scaled by 2^-1000 confirms: it is
        # linear, so the two agree to the last bit.
        def runaway(level):
            return ProblemSpec(terms=((1.0, 1.5),),
                               nonlinearity=Polynomial((0.0, -50.0)),
                               forcing=_const(level),
                               initial_conditions=(0.0, 0.0))
        config = SolverConfig(h=0.1, t_end=100.0)
        with pytest.warns(RuntimeWarning, match="stopped at node 631"):
            traj = solve(runaway(1.0), config)
        tiny = solve(runaway(2.0 ** -1000), config)
        assert np.all(np.isfinite(traj.y.values))
        assert np.array_equal(traj.y.values,
                              tiny.y.values[:631] * 2.0 ** 1000)
