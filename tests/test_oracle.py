import math
from dataclasses import replace

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
from fodesolve.operators import _weights
from fodesolve.oracle import (
    convergence_study,
    gl_direct_solve,
    manufacture,
    power_rule,
)
from fodesolve.stepper import SolverConfig, solve
from node_loop import _history

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

# D^1.5 y + 0.7 D^0.7 y + 0.4 y = f: two terms of the independent class
# (orders 1.5 and 0.7) plus a reaction.
INDEPENDENT = ProblemSpec(terms=((1.0, 1.5), (0.7, 0.7)),
                          nonlinearity=Polynomial((0.0, 0.4)),
                          forcing=PiecewiseForcing((
                              ForcingSegment(0.0, 2.0, (1.0, -0.5)),
                              ForcingSegment(2.0, math.inf, (0.3,)))),
                          initial_conditions=(0.0, 0.0))


def _loop_solve(problem, config):
    """Reference: the whole-history forward substitution node by node,
    y_i = (f_i - sum_{j=1..i} W_j y_{i-j}) / (W_0 + c), one direct
    history sum per node over the folded table, O(N^2).  Stops before
    the first non-finite node."""
    h, n = config.h, config.num_steps + 1
    f = problem.forcing.sample(h, n)
    scales = [tm.coefficient * h ** -tm.order for tm in problem.terms]
    coeffs = problem.nonlinearity.coefficients
    pivot = sum(scales) + (coeffs[1] if len(coeffs) > 1 else 0.0)
    table = np.zeros(n)
    for s, tm in zip(scales, problem.terms):
        table += s * _weights("binomial", tm.order, n)
    y = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n):
            y[i] = (f[i] - _history(table, y, i, 1, i)) / pivot
            if not math.isfinite(y[i]):
                return y[:i]
    return y


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
        # A power that is not whole is refused, not cut to an integer;
        # whole-valued ones stay accepted.
        with pytest.raises(ValueError, match="power must be a whole"):
            power_rule(0.5, 2.5, 1.0, "integral")
        assert (power_rule(0.5, 3.0, 1.0, "integral")
                == power_rule(0.5, np.int64(3), 1.0, "integral")
                == power_rule(0.5, 3, 1.0, "integral"))


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
        with pytest.raises(ValueError, match="power must be a whole"):
            manufacture(base, 2.9)
        assert manufacture(base, 3.0).power == 3
        assert manufacture(base, np.int64(3)) == manufacture(base, 3)

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
        # 694 of 1 001; the nodes before it are kept.  The same run with
        # its forcing scaled by 2^-1000 gives the true values: on nodes
        # 0..690 bitwise those of the node-by-node loop, which overflows
        # inside its history sum at node 691, and finite at 691..693
        # (-1.137e307, 3.183e307, -8.910e307).  The kept nodes must match
        # it to 1e-12 relative, node by node.
        cfg = SolverConfig(h=0.1, t_end=100.0)
        traj = gl_direct_solve(RUNAWAY, cfg)
        assert traj.diagnostics.nan_node == 694
        assert len(traj.y) == 694 and np.all(np.isfinite(traj.y.values))
        tiny = replace(RUNAWAY, forcing=PiecewiseForcing((ForcingSegment(
            0.0, math.inf, (2.0 ** -1000,)),)))
        ref = _loop_solve(tiny, cfg)[:694] * 2.0 ** 1000
        assert np.all(np.abs(traj.y.values - ref) <= 1e-12 * np.abs(ref))

    def test_a_non_finite_forcing_sample_stops_the_run_there(self):
        # The forcing overflows at node 180, inside the leaf of nodes
        # 128..191.  The nodes before it keep their zeros: the leaf's
        # earlier rows must not meet the inf as 0 * inf.
        p = ProblemSpec(terms=((1.0, 0.5),),
                        nonlinearity=Polynomial((0.0, 1.0)),
                        forcing=PiecewiseForcing((
                            ForcingSegment(0.0, 17.95, (0.0,)),
                            ForcingSegment(17.95, math.inf, (0.0, 1e308)))),
                        initial_conditions=(0.0,))
        with np.errstate(over="ignore"):
            traj = gl_direct_solve(p, SolverConfig(h=0.1, t_end=30.0))
        assert traj.diagnostics.nan_node == 180
        assert np.array_equal(traj.y.values, np.zeros(180))

    @pytest.mark.parametrize("problem,t_end", [("plate", 10.0),
                                               ("independent", 20.0)])
    def test_leaf_solve_matches_the_node_by_node_loop(self, problem, t_end,
                                                      plate):
        # The leaf solve takes each leaf's history from the far field's
        # block FFTs and the leaf itself from the inverse of its Toeplitz
        # matrix; the loop sums every node's history directly.  Same
        # equations, different rounding.  Bound: 1e-9 sup |y| at
        # N = 4 001, far above the rounding either carries to y over
        # that many nodes and far below the change a wrong block, lag or
        # leaf inverse would make.
        problem = plate if problem == "plate" else INDEPENDENT
        cfg = SolverConfig(h=t_end / 4000, t_end=t_end)
        ref = _loop_solve(problem, cfg)
        y = gl_direct_solve(problem, cfg).y.values
        assert len(ref) == len(y) == 4001
        assert np.max(np.abs(y - ref)) <= 1e-9 * np.max(np.abs(ref))

    # The leaf driver's stop.  D^1.5 y + 0.7 D^0.7 y + 0.4 y = 1 - 0.05 t
    # up to t = start, then 1e308 t, past double range from the first
    # node after start: node 30 inside the first leaf, or node 196 inside
    # the partial last leaf of a 201-node grid (3 leaves and 9 nodes).
    # Bound, here and on the short grids below: 1e-9 relative sup, as in
    # test_leaf_solve_matches_the_node_by_node_loop, far above the
    # rounding either solve carries over at most 201 nodes (up to 2e-14
    # measured) and far below the change a lost leaf, a far block closed
    # at the wrong start or a leaf cut short would make.
    @pytest.mark.parametrize("start,nan_node", [(2.95, 30), (19.55, 196)],
                             ids=["first_leaf", "partial_last_leaf"])
    def test_stops_inside_a_leaf_and_keeps_the_nodes_before(self, start,
                                                            nan_node):
        p = replace(INDEPENDENT, forcing=PiecewiseForcing((
            ForcingSegment(0.0, start, (1.0, -0.05)),
            ForcingSegment(start, math.inf, (0.0, 1e308)))))
        cfg = SolverConfig(h=0.1, t_end=20.0)
        with np.errstate(over="ignore"):
            traj = gl_direct_solve(p, cfg)
            ref = _loop_solve(p, cfg)
        assert traj.diagnostics.nan_node == nan_node
        assert len(traj.y) == len(ref) == nan_node
        y = traj.y.values
        assert np.max(np.abs(y - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nodes", [3, 64, 65])
    @pytest.mark.parametrize("problem", ["plate", "independent"])
    def test_short_grids_match_the_node_by_node_loop(self, problem, nodes,
                                                     plate):
        # Fewer nodes than one leaf, exactly one leaf, and one leaf and
        # the node that closes the first far block.
        problem = plate if problem == "plate" else INDEPENDENT
        cfg = SolverConfig(h=0.125, t_end=0.125 * (nodes - 1))
        ref = _loop_solve(problem, cfg)
        traj = gl_direct_solve(problem, cfg)
        assert traj.diagnostics.nan_node is None
        assert len(traj.y) == len(ref) == nodes
        y = traj.y.values
        assert np.max(np.abs(y - ref)) <= 1e-9 * np.max(np.abs(ref))

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

    def test_stopped_reference_run_names_its_node_and_step(self):
        # The gl reference run at the finest step, 0.1, stops at node 694.
        with pytest.raises(ArithmeticError, match=r"^reference run stopped"
                           r" at node 694 at step 0\.1$"):
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
