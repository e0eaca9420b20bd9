import math

import numpy as np
import pytest

from fodesolve.decompose import (
    ForcingSegment,
    PiecewiseForcing,
    Polynomial,
    PowerSumForcing,
    ProblemSpec,
)
from fodesolve.errors import UnsupportedProblemError
from fodesolve.oracle import (
    convergence_study,
    gl_direct_solve,
    manufacture,
    power_rule,
)
from fodesolve.stepper import SolverConfig, solve

# Frozen 40-digit closed-form anchors Gamma(p+1)/Gamma(p+1 -+ alpha).
ANCHORS = [
    (0.5, 1, "integral", 0.7522527780636751),
    (0.5, 1, "derivative", 1.1283791670955126),
    (0.5, 2, "integral", 0.6018022224509401),
    (0.5, 2, "derivative", 1.5045055561273502),
    (1.5, 2, "derivative", 2.256758334191025),
    (0.25, 3, "integral", 0.7241929198413701),
    (0.75, 3, "derivative", 2.353626989484453),
]

GAMMA3_OVER_GAMMA15 = 2.256758334191025
GAMMA3_OVER_GAMMA25 = 1.5045055561273502
GAMMA3_OVER_GAMMA13 = 2.2284850170946036
GAMMA3_OVER_GAMMA27 = 1.2947616535572537


# D^1.5 y - 50 y = 1 from rest: linear, so the direct solver takes it,
# and it grows until it overflows.
RUNAWAY = ProblemSpec(terms=((1.0, 1.5),),
                      nonlinearity=Polynomial((0.0, -50.0)),
                      forcing=PiecewiseForcing((ForcingSegment(
                          0.0, math.inf, (1.0,)),)),
                      initial_conditions=(0.0, 0.0))


class TestPowerRule:
    @pytest.mark.parametrize("alpha,p,kind,want", ANCHORS)
    def test_anchors_at_one(self, alpha, p, kind, want):
        assert power_rule(alpha, p, 1.0, kind) == pytest.approx(
            want, rel=1e-13)

    def test_classical_first_derivative(self):
        assert power_rule(1.0, 1, 1.0, "derivative") == pytest.approx(1.0)

    def test_scales_like_the_exponent(self):
        got = power_rule(0.5, 2, 4.0, "integral")
        assert got == pytest.approx(0.6018022224509401 * 4.0 ** 2.5,
                                    rel=1e-13)

    def test_pole_raises(self):
        # derivative of t^1 at order 2: Gamma(0) pole
        with pytest.raises(ValueError):
            power_rule(2.0, 1, 1.0, "derivative")

    def test_singular_origin_raises(self):
        with pytest.raises(ValueError):
            power_rule(0.5, 0, 0.0, "derivative")
        assert power_rule(0.5, 0, 1.0, "derivative") == pytest.approx(
            0.5641895835477563, rel=1e-13)

    def test_zero_t_zero_value(self):
        assert power_rule(0.5, 2, 0.0, "integral") == 0.0
        assert power_rule(0.5, 2, 0.0, "derivative") == 0.0

    def test_argument_gating(self):
        with pytest.raises(ValueError):
            power_rule(-0.5, 1, 1.0, "integral")
        with pytest.raises(ValueError):
            power_rule(0.5, -1, 1.0, "integral")
        with pytest.raises(ValueError):
            power_rule(0.5, 1, 1.0, "nope")
        with pytest.raises(ValueError, match="t must be nonnegative"):
            power_rule(0.5, 1, -1.0, "integral")


class TestManufacture:
    def test_one_term_with_linear_reaction(self):
        base = ProblemSpec(terms=((1.0, 0.5),),
                           nonlinearity=Polynomial((0.0, 1.0)),
                           initial_conditions=(0.0,))
        case = manufacture(base, 2)
        f = case.problem.forcing
        assert isinstance(f, PowerSumForcing)
        terms = dict((e, c) for c, e in f.terms)
        assert terms[1.5] == pytest.approx(GAMMA3_OVER_GAMMA25, rel=1e-13)
        assert terms[2.0] == pytest.approx(1.0)

    def test_two_term_forcing_closed_form(self):
        base = ProblemSpec(terms=((1.0, 1.5), (1.0, 0.5)),
                           initial_conditions=(0.0, 0.0))
        case = manufacture(base, 2)
        terms = dict((e, c) for c, e in case.problem.forcing.terms)
        assert terms[0.5] == pytest.approx(GAMMA3_OVER_GAMMA15, rel=1e-13)
        assert terms[1.5] == pytest.approx(GAMMA3_OVER_GAMMA25, rel=1e-13)

    def test_independent_pair_forcing(self):
        base = ProblemSpec(terms=((1.0, 1.7), (1.0, 0.3)),
                           initial_conditions=(0.0, 0.0))
        case = manufacture(base, 2)
        terms = dict((e, c) for c, e in case.problem.forcing.terms)
        assert terms[2.0 - 1.7] == pytest.approx(GAMMA3_OVER_GAMMA13,
                                                 rel=1e-13)
        assert terms[2.0 - 0.3] == pytest.approx(GAMMA3_OVER_GAMMA27,
                                                 rel=1e-13)

    def test_power_below_leading_integer_order_rejected(self):
        base = ProblemSpec(terms=((1.0, 1.5),),
                           initial_conditions=(0.0, 0.0))
        with pytest.raises(ValueError):
            manufacture(base, 1)

    def test_initial_conditions_zeroed(self):
        base = ProblemSpec(terms=((1.0, 1.5),),
                           initial_conditions=(3.0, -1.0))
        case = manufacture(base, 2)
        assert case.problem.initial_conditions == (0.0, 0.0)

    def test_exact_series(self):
        base = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))
        case = manufacture(base, 3)
        ser = case.exact_series(0.5, 3)
        assert np.allclose(ser.values, [0.0, 0.125, 1.0])
        assert case.exact_series(2.0, 2).values[1] == 8.0


class TestGlDirectSolve:
    def test_zero_forcing_zero_solution(self):
        p = ProblemSpec(terms=((1.0, 0.5),),
                        nonlinearity=Polynomial((0.0, 1.0)),
                        initial_conditions=(0.0,))
        traj = gl_direct_solve(p, SolverConfig(h=0.1, t_end=1.0))
        assert np.array_equal(traj.y.values, np.zeros(11))

    def test_manufactured_case_within_bound(self):
        # D^0.5 y + y = f with exact solution t^2
        base = ProblemSpec(terms=((1.0, 0.5),),
                           nonlinearity=Polynomial((0.0, 1.0)),
                           initial_conditions=(0.0,))
        case = manufacture(base, 2)
        cfg = SolverConfig(h=1e-3, t_end=1.0)
        traj = gl_direct_solve(case.problem, cfg)
        exact = case.exact_series(cfg.h, cfg.num_steps + 1)
        assert np.max(np.abs(traj.y.values - exact.values)) <= 1e-2

    def test_nonzero_ics_unsupported(self):
        p = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(1.0,))
        with pytest.raises(UnsupportedProblemError):
            gl_direct_solve(p, SolverConfig(h=0.1, t_end=1.0))

    def test_nonlinear_reaction_unsupported(self, plate_cubic):
        with pytest.raises(UnsupportedProblemError):
            gl_direct_solve(plate_cubic, SolverConfig(h=0.1, t_end=1.0))

    def test_agrees_with_decomposition_solver(self, plate):
        ours = solve(plate, SolverConfig(h=0.01, t_end=2.0))
        ref = gl_direct_solve(plate, SolverConfig(h=0.0025, t_end=2.0))
        diff = np.max(np.abs(ours.y.values - ref.y.values[::4]))
        assert diff <= 5e-2

    def test_stops_at_the_first_non_finite_node(self):
        # D^1.5 y - 50 y = 1 grows without bound and overflows at node
        # 691 of 1 001; the nodes before it are kept.
        traj = gl_direct_solve(RUNAWAY, SolverConfig(h=0.1, t_end=100.0))
        assert traj.diagnostics.nan_node == 691
        assert len(traj.y) == 691 and np.all(np.isfinite(traj.y.values))

    def test_folded_table_matches_a_per_term_exact_sum(self, plate):
        # The solver folds its terms into one table W_j = sum_k s_k w_j^(k)
        # and sums one history per node.  The reference keeps the terms
        # apart, s_k = a_k h^(-alpha_k), and sums each term's history
        # exactly (math.fsum).  The two differ only in rounding: W's
        # entries carry one more rounding each, a relative perturbation
        # of about eps in the discrete equation, which the damped plate
        # carries to y as a few hundred eps at most over these N = 1 000
        # nodes.  Bound: 1e-9 sup |y|, far above that and far below the
        # O(1) change a wrong scale, table or dropped term would make.
        h, n = 0.01, 1001
        traj = gl_direct_solve(plate, SolverConfig(h=h, t_end=10.0))
        f = plate.forcing.sample(h, n)
        scales = [tm.coefficient * h ** -tm.order for tm in plate.terms]
        tables = []
        for tm in plate.terms:
            w = [1.0]
            for j in range(1, n):
                w.append(w[-1] * (1.0 - (tm.order + 1.0) / j))
            tables.append(np.array(w))
        pivot = sum(scales) + plate.nonlinearity.coefficients[1]
        ref = np.zeros(n)
        for i in range(1, n):
            past = ref[i - 1::-1]
            ref[i] = (f[i] - sum(s * math.fsum((w[1:i + 1] * past).tolist())
                                 for s, w in zip(scales, tables))) / pivot
        assert len(traj.y) == n
        assert np.max(np.abs(traj.y.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_no_z1_series(self, plate):
        traj = gl_direct_solve(plate, SolverConfig(h=0.1, t_end=1.0))
        assert traj.z1 is None


class TestConvergenceStudy:
    def test_self_oracle_rows(self, plate):
        rows = convergence_study(plate, [0.04, 0.02, 0.01], 2.0)
        assert [r.h for r in rows] == [0.04, 0.02]
        assert rows[0].observed_order is None
        assert rows[1].observed_order >= 1.0
        assert all(r.sup_error > 0 for r in rows)

    def test_gl_oracle_errors_decrease(self, plate):
        rows = convergence_study(plate, [0.04, 0.02, 0.01], 2.0,
                                 oracle="gl")
        errs = [r.sup_error for r in rows]
        assert len(errs) == 3
        assert errs == sorted(errs, reverse=True)

    def test_manufactured_orders_near_one(self):
        base = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))
        case = manufacture(base, 2)
        rows = convergence_study(case.problem, [0.01, 0.005, 0.0025], 1.0)
        for row in rows[1:]:
            assert row.observed_order >= 0.9

    def test_steps_are_deduplicated_and_sorted(self, plate):
        rows = convergence_study(plate, [0.01, 0.04, 0.04, 0.02], 2.0)
        assert [r.h for r in rows] == [0.04, 0.02]

    def test_too_few_steps(self, plate):
        with pytest.raises(ValueError):
            convergence_study(plate, [0.01, 0.01], 2.0)

    def test_non_nested_steps_rejected(self, plate):
        with pytest.raises(ValueError):
            convergence_study(plate, [0.01, 0.003], 2.0)

    def test_bad_oracle_name(self, plate):
        with pytest.raises(ValueError):
            convergence_study(plate, [0.02, 0.01], 2.0, oracle="magic")

    def test_gl_oracle_on_unsupported_problem(self, plate_cubic):
        with pytest.raises(UnsupportedProblemError):
            convergence_study(plate_cubic, [0.02, 0.01], 2.0, oracle="gl")

    def test_stopped_reference_run_raises(self):
        with pytest.raises(ArithmeticError, match="reference run stopped"):
            convergence_study(RUNAWAY, [0.2, 0.1], 100.0, oracle="gl")

    def test_diverging_run_raises(self):
        p = ProblemSpec(
            terms=((1.0, 0.5),),
            nonlinearity=Polynomial((-1.0, 0.0, 0.0, -10.0)),
            forcing=PiecewiseForcing.zero(),
            initial_conditions=(0.0,),
        )
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ArithmeticError):
                convergence_study(p, [0.2, 0.1], 50.0)
