"""Time stepper for the decomposed system.

One semi-implicit Euler pass advances the state vector u = (w, w', ...,
w^(m1-1)), where w = z1 + sum_j ratio_j I^(delta_j) z1 combines the
leading terms that fold together (w = z1 when none do).  Each node
records w_i = u_0 in one w history and recovers z1_i from it by an
inverter linear in w and z1: the folded series inverse when a Babenko
inversion is asked for and a link folds, the direct inverter otherwise.
The update is sequential from the top: the highest component absorbs
the right-hand side first and each lower component then integrates the
component above it in its already updated form.  That is
semi-implicit Euler for m1 >= 2 and, with one component, explicit
Euler for m1 = 1.  The ordering costs nothing extra and keeps the cubic
benchmark stable on coarse grids where the fully explicit ordering
blows up.

Every fractional coupling is evaluated by causal quadrature over the
nodes computed so far: the lags inside a node's aligned leaf of 64
nodes directly, the older samples by block FFT (the operators' far
field), so a whole solve costs O(N log^2 N).  Every problem steps a
leaf at a time (the blocked convolution of Hairer, Lubich & Schlichte
1985).  Without the nonlinearity's powers p >= 2, the recurrence over
one leaf is one fixed linear map of the state at the leaf start and of
two inputs at each of its nodes: the inverter's, where the inverter's
far fields enter, and the right-hand side's, where the forcing, the
right-hand-side links' far fields and, through the linear reaction,
the initial-condition polynomial and nu's far field enter.  The map is
built once per solve, by one pass of the node recurrence over a column
per state component and per input at each node, with a weight table
that forms the inputs from one far-field row per coupling, the forcing
and the polynomial; each leaf costs one far block per series its
couplings read (one shared transform pair), the weighted inputs, one
elementwise product with the map and one row sum.  A node's nonlinear
value enters the recurrence where its forcing sample does and reaches
only the later nodes, so a nonlinear problem steps through the same
map: each leaf first sweeps y at its nodes to the forward-substitution
value, then adds the nonlinear values to its right-hand-side inputs.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .decompose import (
    Babenko,
    DirectVolterra,
    TAIL_TOL,
    build_system,
    _babenko_bound,
    _babenko_kernels,
    _direct_inverter,
    _tail_norm,
)
from .errors import BabenkoTailWarning
from .operators import (
    _LEAF,
    SampleSeries,
    apply_operator,
    _group,
    _kernel_quad,
    _leaf_product,
    _leaf_run,
    _series,
    _table_length,
)
from .problemfile import ProblemSpec, integer_order

__all__ = [
    "SolverConfig",
    "Diagnostics",
    "Trajectory",
    "solve",
    "reconstruct_derivatives",
]


def _num_steps(h: float, t_end: float) -> int:
    """N = floor(t_end/h), the last node never past t_end.  A grid with
    fewer than two steps, or one whose float64 array of N + 1 nodes
    exceeds physical memory where the platform reports it, raises
    ValueError before anything is allocated."""
    n = math.floor(t_end / h + 1e-9)
    while n * h > t_end * (1.0 + 1e-12):
        n -= 1
    if n < 2:
        raise ValueError(
            f"step {h:g} leaves fewer than two steps before t = {t_end:g}"
        )
    need, have = 8 * (n + 1), _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"grid too large: {n + 1} nodes need {need} bytes per array,"
            f" more than the {have} bytes of physical memory")
    return n


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not
    report them."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


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
    solution minus that polynomial.  For the leading term this is the
    regularised (Caputo) derivative commonly used for initial value
    problems; a lower term of order alpha_j with ceil(alpha_j) < m1
    acts on it too, where Caputo would subtract only the Taylor terms
    below ceil(alpha_j).
    The nonlinearity, by contrast, sees the full reconstructed
    solution, so a plain linear reaction term belongs there.

    A non-finite value at some node stops the run: the returned series
    are cut to the nodes before it and diagnostics.nan_node records its
    index.  A derivative row may pass double range at an earlier node:
    its non-finite entries are returned as they are, with no numpy
    warning.  Inversion trouble (a vanished pivot) raises instead, since
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
    m = _table_length(n)
    links = [(l.coefficient, _kernel_quad(l.order, h, m))
             for l in system.rhs_links]
    nu_quad = _kernel_quad(nu, h, m) if nu > 0.0 else None

    # The series route needs a folded link; every other problem, with or
    # without links, takes the direct inverter.  Both are linear in w and
    # z1 over the one w history.
    bound = last = fold = pivot = None
    w_links = ()
    if system.w_links and isinstance(system.inversion, Babenko):
        link = system.w_links[0]
        bab = system.inversion
        bound = _babenko_bound(link.ratio, link.order, big_n * h, bab.terms)
        if bound > TAIL_TOL:
            warnings.warn(
                f"series inversion's a-priori term factor is {bound:.3g}"
                f" at t = {big_n * h:g}; the result will be unreliable",
                BabenkoTailWarning, stacklevel=2)
        fold, last = _babenko_kernels(link.ratio, link.order, h, bab.terms,
                                      n)
    else:
        w_links, pivot = _direct_inverter(h, system.w_links, n)

    coef = {p: c for c, p in monomials}
    with np.errstate(over="ignore", invalid="ignore"):
        g, g_y, quads, weights = _leaf_map(m1, system.a1, h, fold, w_links,
                                           pivot, links, nu_quad,
                                           coef.get(1, 0.0))
        w, z1, y, nan_node = _leaf_solve(
            g, g_y, quads, weights, m1, fold is not None,
            fvec - coef.get(0, 0.0),
            ic_poly, nu_quad, [(c, p) for c, p in monomials if p > 1])
        if nan_node is not None:
            y = y[:nan_node]
            z1 = z1[:nan_node]
        y_series = SampleSeries(h, y)
        z1_series = SampleSeries(h, z1)
        derivs = None
        if config.output_derivatives and m1 > 1:
            derivs = reconstruct_derivatives(
                z1_series, system.initial_conditions, problem.leading_order,
                m1)

    if nan_node is not None:
        warnings.warn(
            f"run stopped at node {nan_node} (t = {nan_node * h:g}):"
            " non-finite value",
            RuntimeWarning,
            stacklevel=2,
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


def _step(u, h, a1, f):
    """One semi-implicit Euler step of the state
    u = (w, w', ..., w^(m1-1)) in place, driven by the right-hand side
    f / a1.  The update runs from the top: the highest component absorbs
    the right-hand side first, and each lower one then integrates the
    component above it in its already updated form.  _leaf_map steps
    the coefficient rows of one leaf through here, so the update order
    is written once."""
    u[-1] = u[-1] + h * (f / a1)
    for k in range(len(u) - 2, -1, -1):
        u[k] = u[k] + h * u[k + 1]


def _leaf_map(m1, a1, h, fold, w_links, pivot, links, nu_quad, c1):
    """The leaf map G of a problem with reaction c1*y and no higher
    power, y's rows G_y, the quadratures whose far fields the leaves
    read and the weight table that forms the map's inputs from them:
    one aligned leaf of _LEAF nodes as one matrix, so that
    (G * x).sum(axis=1) gives z1 at the leaf's nodes, then w there on
    the series route (fold given; else the direct inverter's links and
    pivot), then the state after the leaf, and (G_y * x).sum(axis=1) + o
    gives y at the leaf's nodes.

    x holds the state at the leaf start and, at the leaf's nodes, the
    two places where everything from outside the leaf enters the
    recurrence, each linearly: the inverter's input, added to w before
    the division by the pivot (to z1 on the series route), where the
    inverter's far fields enter; and the right-hand side's input, added
    to f, where f - c0, the right-hand-side links' far fields and,
    through the reaction c1*y, y's own input o enter.  o is y's part
    from outside the leaf: the initial-condition polynomial plus nu's
    far field.  Without inverter links the first input is dropped, so
    x has m1 + _LEAF * (1 + [inverter links]) entries.  The weight
    table forms the inputs and o at one node from the quadratures' far
    fields (their order and factors are _couplings'), f - c0 and the
    polynomial there.

    Every piece of the node recurrence (the Euler update, the
    inverter, the right-hand-side links, the reconstruction of y) is
    linear and, within a leaf, shift-invariant: a leaf node's near lags
    reach only the leaf's earlier nodes, everything before the leaf
    comes in as a far field, and the first samples of w and z1, which
    the boundary weights read, are 0.  So G is built once, by one pass
    of the node recurrence on coefficient rows (entry c of a row is the
    value's response to a unit input c), a column per state component
    and a column per input per node, with elementwise products and sums
    only.  The couplings that enter one input are summed as one, each
    times its factor (_near_table): one lag table and one centre weight
    per input, so each node takes one near sum per input, and y's row
    there one more, nu's.  y at a node is formed before the node's
    right-hand side enters, so G_y's right-hand-side block is strictly
    lower triangular, with exact zeros above.  The near sums run from
    0.0 and the farthest lag, not lag rising as operators._series sums
    them, and the summed couplings round once: G agrees with a
    node-by-node run to rounding, not bitwise."""
    couplings = _couplings(fold, w_links, links, nu_quad, c1)
    inverter = _near_table(couplings, 0)
    rhs = _near_table(couplings, 1, -c1 if nu_quad is None else 0.0)
    width = m1 + _LEAF * (1 + (inverter is not None))
    eye = np.eye(width)
    if nu_quad is not None:
        lag_nu, _ = _near_table([(nu_quad, 1, 1.0)], 1)

    def near(lag, rows, r):
        # sum_{j<r} lag[r-j] * rows[j] from 0.0, the farthest lag first.
        return np.add.reduce(lag[r:0:-1, None] * rows[:r], axis=0,
                             initial=0.0)

    u = eye[:m1].copy()
    w = np.zeros((_LEAF, width))
    z = np.zeros((_LEAF, width))
    y = np.zeros((_LEAF, width))
    for r in range(_LEAF):
        w[r] = u[0]
        if fold is not None:
            lag, centre = inverter
            z[r] = w[r] + (centre * w[r] + near(lag, w, r)) + eye[m1 + r]
        elif inverter is not None:
            z[r] = (w[r] + eye[m1 + r] + near(inverter[0], z, r)) / pivot
        else:
            z[r] = w[r] / pivot
        y[r] = z[r] if nu_quad is None else nu_quad.pref * (
            nu_quad.centre * z[r] + near(lag_nu, z, r))
        f = eye[width - _LEAF + r]
        if rhs is not None:
            lag, centre = rhs
            f = f + (centre * z[r] if lag is None
                     else centre * z[r] + near(lag, z, r))
        _step(u, h, a1, f)
    # The weight table: a row per input, a column per feed row.
    table = [[f if place == 0 else 0.0 for _, place, f in couplings]
             + [0.0, 0.0]] if inverter is not None else []
    table.append([f if place == 1 else 0.0 for _, place, f in couplings]
                 + [1.0, -c1])
    own = [0.0] * len(couplings) + [0.0, 1.0]
    if nu_quad is not None:
        own[len(couplings) - 1] = nu_quad.pref
    table.append(own)
    return (np.vstack([z] + ([w] if fold is not None else []) + [u]), y,
            [q for q, _, _ in couplings], np.array(table))


def _couplings(fold, w_links, links, nu_quad, c1):
    """The quadratures whose far fields a leaf reads, in the order of
    _leaf_solve's feed rows, each with the input it enters (0 the
    inverter's, 1 the right-hand side's) and the factor it enters it
    with: pref for the series fold, -ratio * pref for a link of the
    direct inverter, -c * pref for a right-hand-side link and, through
    the reaction c1*y, -c1 * pref for nu, last."""
    if fold is not None:
        out = [(fold, 0, fold.pref)]
    else:
        out = [(q, 0, -ratio * q.pref) for ratio, q in w_links]
    out += [(q, 1, -c * q.pref) for c, q in links]
    if nu_quad is not None:
        out.append((nu_quad, 1, -c1 * nu_quad.pref))
    return out


def _near_table(couplings, place, centre=0.0):
    """The near lags 0.._LEAF-1 and the centre weight of the couplings
    that enter one input, each times its factor, summed onto centre:
    (lag, centre), lag None when no coupling enters, and None when
    centre is 0 too.  Lags past a table shorter than the leaf reach
    only nodes past the grid and count as 0."""
    parts = [(q, f) for q, p, f in couplings if p == place]
    if not parts:
        return (None, centre) if centre else None
    lag = np.zeros(_LEAF)
    for q, f in parts:
        k = min(q.lag.size, _LEAF)
        lag[:k] += f * q.lag[:k]
        centre += f * q.centre
    return lag, centre


def _leaf_solve(g, g_y, quads, weights, m1, on_w, force, ic_poly, nu_quad,
                powers):
    """Step a problem a leaf at a time through its leaf map g, y's rows
    g_y, the quadratures and the input weights (see _leaf_map), force
    being f - c0 on the grid and powers the nonlinearity's monomials
    (c, p) with p >= 2; on_w when the first quadrature, the series fold,
    reads w.  Returns w (zeros off the series route), z1, y and the
    first node where z1 or y is not finite (None for a clean run).

    The run keeps one far-field row per quadrature, in the feed with
    f - c0 and the initial-condition polynomial, and walks its leaves
    through operators._leaf_run, the cross-check solver's leaf loop
    too.  Each leaf start closes the quadratures' far blocks into their
    rows there, one group of quadratures per series they read (w for
    the series fold, z1 for every other), so the members of a group
    share each block's transforms.  The leaf's inputs, the weight table
    times the feed at the leaf's nodes summed over the feed's rows, and
    its outputs, g times the inputs, are one operators._leaf_product
    each, into buffers kept for the solve, so a zero weight or entry of
    g meets a non-finite value as 0 by that helper's rule.  A node's
    nonlinear value n_r = -sum c*y_r**p enters where the right-hand
    side's input does, and y at a leaf node depends on n at the leaf's
    earlier nodes only.
    So a leaf with powers first takes base = g_y x + o, o being y's own
    input, then sweeps y = base + L n(y), L being g_y's strictly lower
    right-hand-side block, until n's bits stop changing, and adds n to
    the right-hand side's inputs.  Sweep k fixes node k for good: the
    sweeps end after at most one more than the leaf has grid nodes (n is
    held at 0 on the last leaf's padding) and give the forward-substitution
    value however many they take, so a prefix of the grid gives the
    same bits.  A linear problem skips the sweep.  Stepping stops after
    the first leaf whose z1 is not finite, and y is formed up to z1's
    first non-finite node.  y is ic_poly + nu's
    whole-series pass over z1 (ic_poly + z1 at nu = 0), bitwise what
    apply_operator gives: the run has closed nu's blocks at every leaf
    start before the end, as that pass would, so the pass takes its far
    field from nu's row.  nu lies in (0, 1), so its table has no zero
    lag and takes a far field whenever the run has more than one leaf;
    in a run of one leaf that far field is all zeros, as the pass's own
    would be."""
    n = force.size
    z1 = np.zeros(n)
    w = np.zeros(n)
    q = len(quads)
    # One far-field row per quadrature, f - c0 and the polynomial,
    # padded with zeros to whole leaves.
    feed = np.zeros((q + 2, -(-n // _LEAF) * _LEAF))
    feed[q, :n] = force
    feed[q + 1, :n] = ic_poly
    # The quadratures that read one series close their blocks together:
    # a group and its rows of the feed, up to n.
    cut = 1 if on_w else 0
    groups = [(values, _group(quads[lo:hi]), feed[lo:hi, :n])
              for values, lo, hi in ((w, 0, cut), (z1, cut, q)) if lo < hi]
    width = g.shape[1]
    # The leaf's inputs at x[m1:width], y's own after them.
    x = np.zeros(m1 + weights.shape[0] * _LEAF)
    terms = np.empty((len(weights), q + 2, _LEAF))
    table = weights[:, :, None]
    rhs = slice(width - _LEAF, width)
    buf = np.empty_like(g)
    if powers:
        # Only the sweep reads g_y.
        lower = g_y[:, rhs].copy()
        buf_y, buf_lower = np.empty_like(g_y), np.empty_like(lower)

    def nonlinear(y, k):
        # From +0.0: a zero value is +0.0 whatever sign y's zero has, so
        # the later nodes' signed zeros in a row sum cannot flip its
        # bits and keep the sweeps from ending.  Only the leaf's first k
        # nodes are on the grid: the padding past its end stays 0, so
        # neither the sweeps' stop test nor the inputs read it.
        out = np.zeros(_LEAF)
        for c, p in powers:
            out = out - c * y ** p
        out[k:] = 0.0
        return out

    def solve_leaf(s, e):
        x[m1:] = _leaf_product(table, feed[:, s:s + _LEAF], terms).ravel()
        if powers:
            base = _leaf_product(g_y, x[:width], buf_y) + x[width:]
            nl = nonlinear(base, e - s)
            while True:
                nxt = nonlinear(base + _leaf_product(lower, nl, buf_lower),
                                e - s)
                if nxt.tobytes() == nl.tobytes():
                    break
                nl = nxt
            x[rhs] += nl
        out = _leaf_product(g, x[:width], buf)
        z1[s:e] = out[:e - s]
        if on_w:
            w[s:e] = out[_LEAF:_LEAF + e - s]
        x[:m1] = out[-m1:]
        return z1[s:e]

    stop = _leaf_run(n, groups, solve_leaf)
    end = n if stop is None else stop + 1
    y = ic_poly[:end] + (z1[:end] if nu_quad is None
                         else _series(nu_quad, z1[:end], feed[q - 1, :end]))
    bad = ~(np.isfinite(z1[:end]) & np.isfinite(y))
    return w, z1, y, int(bad.argmax()) if bad.any() else None
