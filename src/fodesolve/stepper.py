"""Time stepper for the decomposed system.

One explicit Euler pass advances the state vector u = (w, w', ...,
w^(m1-1)), where w = z1 + sum_j ratio_j I^(delta_j) z1 combines the
leading terms that fold together (w = z1 when none do).  Each node
records w_i = u_0 in one w history and recovers z1_i from it by a node
map (w, z1, i) -> z1_i: the series inverter when a Babenko inversion is
asked for and a link folds, the direct inverter otherwise.  The update
is sequential from the top: the highest component absorbs the
right-hand side first and each lower component then integrates the
component above it in its already updated form.  That ordering costs
nothing extra and keeps the cubic benchmark stable on coarse grids
where the fully explicit ordering blows up.

Every fractional coupling is evaluated by causal quadrature over the
nodes computed so far, through a bare running evaluator (one closure
call per coupling and node) that sums the recent lags directly and the
older ones by block FFT, so the whole solve costs O(N log^2 N) and in
practice grows about linearly in N: its floor is the per-node Python
loop, which holds only the work the next node depends on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .decompose import (
    Babenko,
    DirectVolterra,
    ProblemSpec,
    TAIL_TOL,
    build_system,
    integer_order,
    _babenko_bound,
    _direct_inverter,
    _series_inverter,
    _tail_norm,
)
from .errors import BabenkoTailWarning
from .operators import (
    SampleSeries,
    apply_operator,
    frac_derivative01,
    _node_kernel,
)

__all__ = [
    "SolverConfig",
    "Diagnostics",
    "Trajectory",
    "solve",
    "reconstruct_y",
    "reconstruct_derivatives",
]


def _num_steps(h: float, t_end: float) -> int:
    n = math.floor(t_end / h + 1e-9)
    while n * h > t_end * (1.0 + 1e-12):
        n -= 1
    if n < 2:
        raise ValueError(
            f"step {h:g} leaves fewer than two steps before t = {t_end:g}"
        )
    return n


@dataclass(frozen=True)
class SolverConfig:
    """Grid and inversion choices for one run.

    The grid is t_i = i*h for i = 0..N with N = floor(t_end/h), so the
    last node never passes t_end.  output_derivatives additionally
    reconstructs y', ..., y^(m1-1) from the computed series.
    """

    h: float
    t_end: float
    inversion: object = DirectVolterra()
    output_derivatives: bool = False

    def __post_init__(self):
        h = float(self.h)
        t_end = float(self.t_end)
        if not math.isfinite(h) or h <= 0.0:
            raise ValueError("step must be positive and finite")
        if not math.isfinite(t_end) or t_end <= 0.0:
            raise ValueError("t_end must be positive and finite")
        _num_steps(h, t_end)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "t_end", t_end)

    @property
    def num_steps(self) -> int:
        return _num_steps(self.h, self.t_end)


@dataclass(frozen=True)
class Diagnostics:
    """babenko_tail: sup of the series inversion's last term over the
    nodes visited, nan_node included (None for the direct inverter).
    nan_node: index of the first node whose value came out non-finite
    (None for a clean run); the trajectory is cut just before it.
    babenko_bound: the a-priori factor (|ratio| T^delta)^K /
    Gamma(1 + K delta) bounding that last term relative to sup |w| on
    the grid, known before the first step (None for the direct
    inverter)."""

    babenko_tail: float | None = None
    nan_node: int | None = None
    babenko_bound: float | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    h: float
    num_steps: int
    y: SampleSeries
    z1: SampleSeries | None
    y_derivs: tuple | None
    diagnostics: Diagnostics

    @property
    def times(self) -> np.ndarray:
        return self.y.times


def _ic_poly_values(ics, t: np.ndarray) -> np.ndarray:
    """sum_k b_k t^k / k! evaluated on an array of times."""
    out = np.zeros_like(t)
    fact = 1.0
    for k, b in enumerate(ics):
        if k > 0:
            fact *= k
        out += (b / fact) * t ** k
    return out


def reconstruct_y(z1: SampleSeries, ics, nu: float, i: int) -> float:
    """Recover the unknown at node i from the temporary series:
    y_i = sum_k b_k t_i^k / k!  +  D^nu z1 at node i (identity at nu = 0).
    Costs one frac_derivative01 call; solve reconstructs every node.
    """
    t = np.array([i * z1.h])
    poly = float(_ic_poly_values(tuple(float(b) for b in ics), t)[0])
    return poly + frac_derivative01(z1, nu, i)


def reconstruct_derivatives(z1: SampleSeries, ics, alpha1: float,
                            m1: int) -> tuple:
    """Derivative rows y^(k) for k = 1..m1-1 from the temporary series,
    obtained by differentiating the reconstruction k times:

        y^(k)_i = sum_{j=k..m1-1} b_j t_i^(j-k) / (j-k)!  +  D^(nu+k) z1,

    with nu = m1 - alpha1, so that row k starts exactly at b_k.  m1 must
    be integer_order(alpha1), so nu lies in [0, 1): the fractional part
    always has order >= 1 here and z1 starts at zero, so the
    binomial-weight scheme applies.  Returns an empty tuple when m1 <= 1.
    """
    alpha1 = float(alpha1)
    want = integer_order(alpha1)
    if m1 != want:
        raise ValueError(f"m1 must be the integer order {want} of"
                         f" alpha1 = {alpha1:g}, got {m1!r}")
    m1 = want
    nu = float(m1) - alpha1
    ics = tuple(float(b) for b in ics)
    if len(ics) != m1:
        raise ValueError(f"need {m1} initial values, got {len(ics)}")
    out = []
    t = z1.times
    for k in range(1, m1):
        frac = apply_operator(z1, nu + k)
        out.append(SampleSeries(z1.h, _ic_poly_values(ics[k:], t)
                                + frac.values))
    return tuple(out)


def solve(problem: ProblemSpec, config: SolverConfig) -> Trajectory:
    """Integrate the problem over [0, t_end] and return the trajectory.

    Initial conditions enter through the polynomial part of the
    reconstruction, which makes every fractional term act on the
    solution minus that polynomial (for the leading term this is the
    regularised derivative commonly used for initial value problems).
    The nonlinearity, by contrast, sees the full reconstructed
    solution, so a plain linear reaction term belongs there.

    A non-finite value at some node stops the run: the returned series
    are cut to the nodes before it and diagnostics.nan_node records its
    index.  Inversion trouble (a vanished pivot) raises instead, since
    no node can be produced at all.
    """
    system = build_system(problem, config.inversion)
    h = config.h
    big_n = config.num_steps
    n = big_n + 1
    m1 = system.m1
    nu = system.nu

    t = np.arange(n) * h
    fvec = np.asarray(problem.forcing.sample(h, n), dtype=np.float64)
    ic_poly = _ic_poly_values(system.initial_conditions, t)
    monomials = problem.nonlinearity.monomials()

    # Every coupling order is positive; z1[0] = 0 on both routes, so no
    # origin check is needed and the d01 boundary term is an exact 0.
    links = [(l.coefficient, _node_kernel(l.order, h, n))
             for l in system.rhs_links]
    nu_node = _node_kernel(nu, h, n) if nu > 0.0 else None

    # The series route needs a folded link; every other problem, with or
    # without links, takes the direct inverter.  Both are node maps
    # (w, z1, i) -> z1_i over the one w history.
    bound = last = None
    if system.w_links and isinstance(system.inversion, Babenko):
        link = system.w_links[0]
        bab = system.inversion
        bound = _babenko_bound(link.ratio, link.order, big_n * h, bab.terms)
        if bound > TAIL_TOL:
            warnings.warn(
                f"series inversion's a-priori term factor is {bound:.3g}"
                f" at t = {big_n * h:g}; the result will be unreliable",
                BabenkoTailWarning, stacklevel=2)
        invert, last = _series_inverter(link.ratio, link.order, h,
                                        bab.terms, n)
    else:
        invert = _direct_inverter(h, system.w_links, n)

    # The arrays are what the couplings read; the loop's own scalars are
    # Python floats, which cost less per operation than numpy scalars.
    # fvec and ic_poly are read through .item rather than copied into
    # lists of n boxed floats.
    w = np.zeros(n, dtype=np.float64)
    z1 = np.zeros(n, dtype=np.float64)
    y = np.zeros(n, dtype=np.float64)
    u = [0.0] * m1
    f_at = fvec.item
    ic_at = ic_poly.item
    a1 = system.a1
    nan_node = None

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            w[i] = u[0]
            z1i = invert(w, z1, i)
            z1[i] = z1i
            yi = ic_at(i) + (z1i if nu_node is None else nu_node(z1, i))
            y[i] = yi
            if not (math.isfinite(yi) and math.isfinite(z1i)):
                nan_node = i
                break
            acc = f_at(i)
            for c, node in links:
                acc -= c * node(z1, i)
            for c, p in monomials:
                try:
                    acc -= c * yi ** p
                except OverflowError:
                    # A float power raises where a numpy one gives the
                    # infinity, with which the run stops at the next node.
                    acc -= c * math.copysign(math.inf, yi) ** p
            rhs = acc / a1
            u[m1 - 1] += h * rhs
            for k in range(m1 - 2, -1, -1):
                u[k] += h * u[k + 1]

    if nan_node is not None:
        cut = nan_node
        y = y[:cut]
        z1 = z1[:cut]
        warnings.warn(
            f"run stopped at node {nan_node} (t = {nan_node * h:g}):"
            " non-finite value",
            RuntimeWarning,
            stacklevel=2,
        )

    y_series = SampleSeries(h, y)
    z1_series = SampleSeries(h, z1)
    derivs = None
    if config.output_derivatives and m1 > 1:
        derivs = reconstruct_derivatives(
            z1_series, system.initial_conditions, problem.leading_order, m1
        )
    tail = None
    if last is not None:
        # Over every node visited, the one a cut run stopped at included.
        tail = _tail_norm(last, w[:n if nan_node is None else nan_node + 1])
    return Trajectory(
        h=h,
        num_steps=len(y) - 1,
        y=y_series,
        z1=z1_series,
        y_derivs=derivs,
        diagnostics=Diagnostics(babenko_tail=tail, nan_node=nan_node,
                                babenko_bound=bound),
    )
