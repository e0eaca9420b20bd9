"""Independent checks: closed forms, manufactured problems, and a direct
one-shot solver that never goes through the decomposition.

The direct solver discretizes every term of a linear zero-start problem
with binomial weights on the same grid and solves the resulting lower
triangular Toeplitz system a leaf at a time.  It shares with the
decomposition stepper the weight recurrences and the history
summation's far field (operators._quadrature's plan and
operators._close_blocks' block FFTs, whose accuracy tests/test_operators
checks against exact sums), but not the decomposition: no integer-order
stepping, no Abel coupling, no inversion.  Agreement between the two is
a meaningful cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decompose import DirectVolterra, _guard_pivot
from .errors import UnsupportedProblemError
from .operators import (
    _LEAF,
    SampleSeries,
    _group,
    _leaf_product,
    _leaf_run,
    _quadrature,
    _table_length,
    _weights,
    _whole,
)
from .problemfile import PowerSumForcing, ProblemSpec, integer_order
from .stepper import Diagnostics, SolverConfig, Trajectory, solve

__all__ = [
    "power_rule",
    "ManufacturedCase",
    "manufacture",
    "gl_direct_solve",
    "ConvergenceRow",
    "convergence_study",
]


def power_rule(alpha: float, p: int, t: float, kind: str) -> float:
    """Closed form of the fractional integral or derivative of t^p.

        integral:    Gamma(p+1) / Gamma(p+1+alpha) * t^(p+alpha)
        derivative:  Gamma(p+1) / Gamma(p+1-alpha) * t^(p-alpha)

    A non-finite order or time raises ValueError.  For the derivative,
    Gamma(p+1-alpha) sits at a pole whenever p+1-alpha is a nonpositive
    integer and a ValueError propagates; a Gamma past double range
    raises OverflowError.
    t = 0 with a negative result exponent is singular and raises too,
    as does a power that is not whole (3.0 and numpy integers are).
    """
    alpha = float(alpha)
    p = _whole(p, "power")
    t = float(t)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"order must be positive and finite, got {alpha!r}")
    if p < 0:
        raise ValueError("power must be a nonnegative integer")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t!r}")
    if kind == "integral":
        expo = p + alpha
        coef = math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha)
    elif kind == "derivative":
        expo = p - alpha
        coef = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
    else:
        raise ValueError(f"kind must be 'integral' or 'derivative', got {kind!r}")
    if t == 0.0:
        if expo < 0.0:
            raise ValueError("singular at t = 0 for a negative exponent")
        return coef if expo == 0.0 else 0.0
    return coef * t ** expo


@dataclass(frozen=True)
class ManufacturedCase:
    """A problem rigged so the exact solution is y(t) = t^power."""

    problem: ProblemSpec
    power: int

    def exact_series(self, h: float, n: int) -> SampleSeries:
        return SampleSeries(h, (np.arange(n) * h) ** self.power)


def manufacture(base: ProblemSpec, p: int) -> ManufacturedCase:
    """Forge the forcing that makes y(t) = t^p solve the given terms and
    nonlinearity:

        f(t) = sum_i a_i Gamma(p+1)/Gamma(p+1-alpha_i) t^(p-alpha_i)
               + g(t^p),

    kept in exact power-sum form so any grid samples it without error.
    Requires a whole p >= m1 so all initial conditions are zero (they
    are replaced with zeros in the returned problem).
    """
    p = _whole(p, "power")
    m1 = integer_order(base.terms[0].order)
    if p < m1:
        raise ValueError(
            f"power {p} is below the leading integer order {m1};"
            " the manufactured start values would not vanish"
        )
    terms = []
    gp1 = math.gamma(p + 1.0)
    for tm in base.terms:
        coef = tm.coefficient * gp1 / math.gamma(p + 1.0 - tm.order)
        terms.append((coef, p - tm.order))
    for c, q in base.nonlinearity.monomials():
        terms.append((c, float(p * q)))
    forcing = PowerSumForcing(tuple(terms))
    problem = replace(
        base, forcing=forcing, initial_conditions=(0.0,) * m1
    )
    return ManufacturedCase(problem=problem, power=p)


def gl_direct_solve(problem: ProblemSpec, config: SolverConfig) -> Trajectory:
    """Solve a linear zero-start problem by direct binomial-weight
    discretization of every term.

    Only problems with all initial conditions zero and nonlinearity of
    the exact form g(y) = c*y are supported (UnsupportedProblemError
    otherwise).  The terms fold into one weight table

        W_j = sum_k a_k h^(-alpha_k) w_j^(k),

    and node i >= 1 satisfies

        y_i (W_0 + c) = f(t_i) - sum_{j=1..i} W_j y_{i-j},

    where W_0 = sum_k a_k h^(-alpha_k) (every w_0^(k) is 1).  y_0 = 0
    from the start values.  A vanishing pivot W_0 + c raises
    SingularInversionError.

    The lower-triangular Toeplitz system is solved a leaf of _LEAF nodes
    at a time (Hairer, Lubich & Schlichte 1985): the history from before
    the leaf comes from the node form's far field, and the leaf's own
    nodes from G (f - far), where G is the inverse of the leaf's
    Toeplitz matrix (W_0 + c, W_1, ..., W_63), applied by
    operators._leaf_product, under its one rule for non-finite values,
    as the stepper applies its leaf map; the leaves are walked by
    operators._leaf_run, the stepper's leaf loop too.  That costs O(N log^2 N) rather than one O(N) history sum per
    node.  The run stops at the first non-finite node.
    """
    if any(v != 0.0 for v in problem.initial_conditions):
        raise UnsupportedProblemError(
            "direct discretization requires zero initial conditions"
        )
    coeffs = problem.nonlinearity.coefficients
    if any(c != 0.0 for k, c in enumerate(coeffs) if k != 1):
        raise UnsupportedProblemError(
            "direct discretization requires nonlinearity g(y) = c*y"
        )
    c_lin = coeffs[1] if len(coeffs) > 1 else 0.0

    h = config.h
    n = config.num_steps + 1
    # y_0 = 0: node 0 solves for a zero right-hand side, so the rest of
    # the first leaf is the same Toeplitz system one node shorter.  The
    # zero goes into a copy; the forcing may hand out a shared array.
    fvec = np.array(problem.forcing.sample(h, n), dtype=np.float64)
    fvec[0] = 0.0
    scales = [_term_scale(tm, h) for tm in problem.terms]
    pivot = _guard_pivot(sum(scales) + c_lin,
                         sum(abs(s) for s in scales) + abs(c_lin),
                         "direct discretization pivot vanished for this step")
    table = np.zeros(_table_length(n))
    for s, tm in zip(scales, problem.terms):
        table += s * _weights("binomial", tm.order, table.size)
    group = _group((_quadrature(1.0, pivot, np.zeros(n), table),))
    inverse = _leaf_inverse(pivot, table[:min(_LEAF, n)])
    buf = np.empty_like(inverse)

    y = np.zeros(n, dtype=np.float64)
    acc = np.zeros((1, n))
    far = acc[0]

    def solve_leaf(s, e):
        # A non-finite right-hand side at node j makes y_j non-finite,
        # and only the rows from j on.
        y[s:e] = _leaf_product(inverse[:e - s, :e - s],
                               fvec[s:e] - far[s:e], buf[:e - s, :e - s])
        return y[s:e]

    with np.errstate(over="ignore", invalid="ignore"):
        nan_node = _leaf_run(n, [(y, group, acc)], solve_leaf)
    if nan_node is not None:
        y = y[:nan_node]
    return Trajectory(
        h=h,
        num_steps=len(y) - 1,
        y=SampleSeries(h, y),
        z1=None,
        y_derivs=None,
        diagnostics=Diagnostics(nan_node=nan_node),
    )


def _term_scale(tm, h: float) -> float:
    """The term's a h**(-alpha); a prefactor past double range raises
    OverflowError naming h and the order, as operators._kernel_quad
    does."""
    try:
        return h ** (-tm.order) * tm.coefficient
    except OverflowError:
        raise OverflowError(
            f"term of order {tm.order:g} at step {h:.6g}: h**{-tm.order:g}"
            f" exceeds double range") from None


def _leaf_inverse(pivot: float, table: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular Toeplitz matrix with first
    column (pivot, table[1], ..., table[m-1]), m = table.size: lower
    triangular Toeplitz too, its first column g from g_0 = 1/pivot and
    g_k = -sum_{j=1..k} table[j] g_(k-j) / pivot, each sum of rounded
    products taken exactly (math.fsum)."""
    m = table.size
    g = np.zeros(m)
    g[0] = 1.0 / pivot
    for k in range(1, m):
        g[k] = -math.fsum((table[1:k + 1] * g[k - 1::-1]).tolist()) / pivot
    lag = np.arange(m)
    return np.tril(g[np.abs(lag[:, None] - lag)])


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    sup_error: float
    observed_order: float | None


def _common_stride(h: float, h_ref: float) -> int:
    ratio = h / h_ref
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > 1e-6 * stride:
        raise ValueError(
            f"step {h:g} does not nest with the reference step {h_ref:g}"
        )
    return int(stride)


def convergence_study(problem: ProblemSpec, steps, t_end: float,
                      oracle: str = "self", inversion=None) -> list:
    """Refinement study: solve at every step and measure each run against
    a reference on their common nodes.

    oracle = "gl" compares against the direct binomial-weight solver run
    at the finest step (linear zero-start problems only); oracle = "self"
    uses the decomposition solve at the finest step as reference, in
    which case the finest step itself gets no row.  Rows come out coarse
    to fine; each row after the first carries the observed order
    log(e_prev/e_this) / log(h_prev/h_this).  A step or horizon that no
    grid takes, or a step that is not a whole multiple of the finest,
    raises ValueError before anything is solved.  Any run that dies with
    a non-finite node raises ArithmeticError.
    """
    steps = sorted({float(s) for s in steps}, reverse=True)
    if len(steps) < 2:
        raise ValueError("need at least two distinct steps")
    if oracle not in ("self", "gl"):
        raise ValueError(f"oracle must be 'self' or 'gl', got {oracle!r}")
    h_ref = steps[-1]
    # Every grid is checked, and every step against the reference, before
    # anything is solved.
    configs = {h: SolverConfig(h=h, t_end=t_end, inversion=DirectVolterra()
                               if inversion is None else inversion)
               for h in steps}
    strides = {h: _common_stride(h, h_ref) for h in steps}

    def _run(h):
        traj = solve(problem, configs[h])
        if traj.diagnostics.nan_node is not None:
            raise ArithmeticError(
                f"run at step {h:g} stopped at node"
                f" {traj.diagnostics.nan_node}"
            )
        return traj

    if oracle == "gl":
        ref = gl_direct_solve(problem, configs[h_ref])
        if ref.diagnostics.nan_node is not None:
            raise ArithmeticError(
                f"reference run stopped at node {ref.diagnostics.nan_node}"
                f" at step {h_ref:g}")
        measured_steps = steps
    else:
        ref = _run(h_ref)
        measured_steps = steps[:-1]

    ref_values = ref.y.values
    rows = []
    prev = None
    for h in measured_steps:
        traj = _run(h)
        stride = strides[h]
        vals = traj.y.values
        k = (len(vals) - 1) * stride
        common_ref = ref_values[:k + 1:stride]
        err = float(np.max(np.abs(vals[: len(common_ref)] - common_ref)))
        order = None
        if prev is not None:
            ph, perr = prev
            if err > 0.0 and perr > 0.0:
                order = math.log(perr / err) / math.log(ph / h)
        rows.append(ConvergenceRow(h=h, sup_error=err, observed_order=order))
        prev = (h, err)
    return rows
