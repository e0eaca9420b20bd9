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
one leaf is one fixed linear map of the state at the leaf start, each
coupling's far field, the forcing and the initial-condition polynomial;
it is built once per solve, and each leaf costs one far block per
coupling (those on one series share its transforms), one elementwise
product with the map and one row sum.  A node's nonlinear value enters
the recurrence where its forcing sample does and reaches only the
later nodes, so a nonlinear problem steps through the same map: each
leaf first sweeps y at its nodes to the forward-substitution value,
then adds the nonlinear values to its forcing inputs.
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
    _babenko_kernels,
    _direct_inverter,
    _tail_norm,
)
from .errors import BabenkoTailWarning
from .operators import (
    _LEAF,
    SampleSeries,
    apply_operator,
    _close_blocks,
    _kernel_quad,
    _leaf_product,
    _series,
    _table_length,
)

__all__ = [
    "SolverConfig",
    "Diagnostics",
    "Trajectory",
    "solve",
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
        g, g_y, quads = _leaf_map(m1, system.a1, h, fold, w_links, pivot,
                                  links, nu_quad, coef.get(1, 0.0))
        w, z1, y, nan_node = _leaf_solve(
            g, g_y, quads, m1, fold is not None, fvec - coef.get(0, 0.0),
            ic_poly, nu_quad, [(c, p) for c, p in monomials if p > 1])

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


def _step(u, h, a1, f, links, y, monomials):
    """One semi-implicit Euler step of the state
    u = (w, w', ..., w^(m1-1)) in place, driven by the right-hand side

        (f - sum_links c*v - sum_monomials c*y**p) / a1,

    subtracted term by term in that order.  The update runs from the
    top: the highest component absorbs the right-hand side first, and
    each lower one then integrates the component above it in its
    already updated form.  _leaf_map steps the coefficient rows of one
    leaf through here, so the update order and the right-hand side are
    written once."""
    for c, v in links:
        f = f - c * v
    for c, p in monomials:
        f = f - c * y ** p
    u[-1] = u[-1] + h * (f / a1)
    for k in range(len(u) - 2, -1, -1):
        u[k] = u[k] + h * u[k + 1]


def _leaf_map(m1, a1, h, fold, w_links, pivot, links, nu_quad, c1):
    """The leaf map G of a problem with reaction c1*y and no higher
    power, y's rows G_y, and the quadratures whose far fields they
    read: one aligned leaf of _LEAF nodes as one matrix, so that
    (G * x).sum(axis=1) gives z1 at the leaf's nodes, then w there on
    the series route (fold given; else the direct inverter's links and
    pivot), then the state after the leaf, and (G_y * x).sum(axis=1)
    gives y at the leaf's nodes.  x holds the state at the leaf start,
    the far field of each quadrature (the inverter's, the
    right-hand-side links', then nu's) at the leaf's nodes, f - c0 there
    and the initial-condition polynomial there.

    Every piece of the node recurrence (the Euler update, the
    inverter, the right-hand-side links, the reconstruction of y) is
    linear and, within a leaf, shift-invariant: a leaf node's near lags
    reach only the leaf's earlier nodes, everything before the leaf
    comes in as a far field, and the first samples of w and z1, which
    the boundary weights read, are 0.  So G is built once, by running
    the node recurrence on coefficient rows (entry c of a row is the
    value's response to a unit input c), with elementwise products and
    sums only.  y at a node is formed before the node's forcing enters,
    so G_y's forcing block is strictly lower triangular, with exact
    zeros above.  Its near sums run from the farthest lag, not lag
    rising as operators._node and _series sum them: G agrees with a
    node-by-node run to rounding, not bitwise.

    The rows run on one column per state component and one per block
    of inputs (each quadrature's far field, f - c0, the polynomial),
    the block's input at the leaf's first node.  By the shift
    invariance, the response at node r to a block's input at node c
    is its column's at node r - c, and the state after the leaf its
    column's after node _LEAF - 1 - c, so each block is spread from
    its column.  Every operation acts on each column alone, and numpy
    sums the rows of two or more columns one row at a time, so the
    entries keep the bits that rows over every input give them.
    Before its input enters, such a row's entry is an exact zero
    (+0.0, but 0.0 / pivot on z1's rows of the direct route), and its
    terms in later near sums are zeros that meet an added 0.0 or 1.0
    before anything else, so their signs never show."""
    quads = [fold] if fold is not None else [q for _, q in w_links]
    quads += [q for _, q in links] + ([] if nu_quad is None else [nu_quad])
    blocks = len(quads) + 2
    cols = m1 + blocks
    force, ic = cols - 2, cols - 1
    lags = []
    for q in quads:
        # Lags past a table shorter than the leaf reach only nodes past
        # the grid.
        lag = np.zeros(_LEAF)
        lag[:q.lag.size] = q.lag[:_LEAF]
        lags.append(lag)
    eye = np.eye(cols)
    zero = np.zeros(cols)

    def unit(col, r):
        # A block's input at leaf node r: its column's only at node 0.
        return eye[col] if r == 0 else zero

    def node(k, rows, r, current=None):
        # Quad k at leaf node r over the rows of the leaf's nodes before
        # it, pref * (centre*current + far + near) as operators._node
        # forms it; the direct inverter's links have no current.
        q = quads[k]
        v = unit(m1 + k, r) + (lags[k][r:0:-1, None] * rows[:r]).sum(axis=0)
        if current is not None:
            v = q.centre * current + v
        return q.pref * v

    u = [eye[k] for k in range(m1)]
    w = np.zeros((_LEAF, cols))
    z = np.zeros((_LEAF, cols))
    y = np.zeros((_LEAF, cols))
    after = np.zeros((_LEAF, m1, cols))  # the state after leaf node r
    first_link = 1 if fold is not None else len(w_links)
    for r in range(_LEAF):
        w[r] = u[0]
        if fold is not None:
            z[r] = w[r] + node(0, w, r, w[r])
        else:
            acc = 0.0
            for k, (ratio, _) in enumerate(w_links):
                acc = acc + ratio * node(k, z, r)
            z[r] = (w[r] - acc) / pivot
        y[r] = unit(ic, r) + (z[r] if nu_quad is None
                              else node(len(quads) - 1, z, r, z[r]))
        _step(u, h, a1, unit(force, r),
              [(c, node(first_link + j, z, r, z[r]))
               for j, (c, _) in enumerate(links)],
              y[r], [(c1, 1)] if c1 else ())
        for k in range(m1):
            after[r, k] = u[k]

    def spread(rows, before):
        # Entry (r, c) of a block: its column at node r - c, or before
        # the input, for c > r.
        padded = np.full((blocks, 2 * _LEAF - 1), before)
        padded[:, _LEAF - 1:] = rows[:, m1:].T
        window = np.lib.stride_tricks.sliding_window_view(
            padded[:, ::-1], _LEAF, axis=1)[:, ::-1]
        # window[k, r, c] = padded[k, _LEAF - 1 + r - c]
        out = np.empty((_LEAF, m1 + blocks * _LEAF))
        out[:, :m1] = rows[:, :m1]
        out[:, m1:].reshape(_LEAF, blocks, _LEAF)[...] = (
            window.transpose(1, 0, 2))
        return out

    # The state after the leaf from input node c: after node
    # _LEAF - 1 - c.
    state = np.empty((m1, m1 + blocks * _LEAF))
    state[:, :m1] = after[-1, :, :m1]
    state[:, m1:] = after[::-1, :, m1:].transpose(1, 2, 0).reshape(m1, -1)
    rows = [spread(z, 0.0 if fold is not None else 0.0 / pivot)]
    if fold is not None:
        rows.append(spread(w, 0.0))
    return np.vstack(rows + [state]), spread(y, 0.0), quads


def _leaf_solve(g, g_y, quads, m1, on_w, force, ic_poly, nu_quad, powers):
    """Step a problem a leaf at a time through its leaf map g, y's rows
    g_y and the quadratures (see _leaf_map), force being f - c0 on the
    grid and powers the nonlinearity's monomials (c, p) with p >= 2; on_w
    when the first quadrature, the series fold, reads w.  Returns w
    (zeros off the series route), z1, y and the first node where z1 or
    y is not finite (None for a clean run).

    Each leaf start closes the couplings' far blocks through
    operators._close_blocks, as operators._node and _series do, one call
    per series they read (w for the series fold, z1 for every other
    coupling), so the couplings on one series share each block's
    transforms.  The leaf's outputs are one operators._leaf_product
    with g over inputs padded to the full leaf width, into buffers
    kept for the solve.  A node's nonlinear value n_r = -sum c*y_r**p
    enters where its forcing sample does, and y at a leaf node depends
    on n at the leaf's earlier nodes only.  So a
    leaf with powers first takes base = g_y x, then sweeps
    y = base + L n(y), L being g_y's strictly lower forcing block,
    until n's bits stop changing, and adds n to its forcing inputs.
    Sweep k fixes node k for good: the sweeps end after at most
    _LEAF + 1 and give the forward-substitution value however many
    they take, so a prefix of the grid gives the same bits.  A linear
    problem skips the sweep.  Stepping stops after the first leaf whose
    z1 is not finite.  y is ic_poly + nu's whole-series pass over z1
    (ic_poly + z1 at nu = 0), bitwise what apply_operator gives: the run
    has closed nu's blocks at every leaf start before the end, as that
    pass would, so the pass takes its far field from the run.  nu lies
    in (0, 1), so its table has no zero lag and takes a far field
    whenever the run has more than one leaf; in a run of one leaf that
    far field is all zeros, as the pass's own would be."""
    n = force.size
    z1 = np.zeros(n)
    w = np.zeros(n)
    # A leaf's inputs past the state, in g's column order: each
    # quadrature's far field, f - c0 and the polynomial, one row each,
    # padded with zeros to whole leaves.
    feed = np.zeros((len(quads) + 2, -(-n // _LEAF) * _LEAF))
    feed[-2, :n] = force
    feed[-1, :n] = ic_poly
    far = [row[:n] for row in feed[:-2]]
    # The couplings that read one series close their blocks together.
    groups = [(w, quads[:1], far[:1]), (z1, quads[1:], far[1:])] if on_w \
        else [(z1, quads, far)]
    groups = [group for group in groups if group[1]]
    forcing = slice(-2 * _LEAF, -_LEAF)
    g_finite = bool(np.isfinite(g).all())
    y_finite = bool(np.isfinite(g_y).all())
    lower = g_y[:, forcing].copy()
    buf = np.empty_like(g)
    buf_y, buf_lower = ((np.empty_like(g_y), np.empty_like(lower)) if powers
                        else (None, None))

    def nonlinear(y):
        # From +0.0: a zero value is +0.0 whatever sign y's zero has, so
        # the later nodes' signed zeros in a row sum cannot flip its
        # bits and keep the sweeps from ending.
        out = np.zeros(_LEAF)
        for c, p in powers:
            out = out - c * y ** p
        return out

    x = np.zeros(g.shape[1])
    inputs = x[m1:].reshape(-1, _LEAF)
    end = n
    for s in range(0, n, _LEAF):
        e = min(s + _LEAF, n)
        if s:
            for values, group, accs in groups:
                _close_blocks(group, values, accs, (s,))
        inputs[...] = feed[:, s:s + _LEAF]
        if powers:
            base = _leaf_product(g_y, x, y_finite, buf_y)
            nl = nonlinear(base)
            while True:
                nxt = nonlinear(base + _leaf_product(lower, nl, y_finite,
                                                     buf_lower))
                if nxt.tobytes() == nl.tobytes():
                    break
                nl = nxt
            x[forcing] += nl
        out = _leaf_product(g, x, g_finite, buf)
        z1[s:e] = out[:e - s]
        if on_w:
            w[s:e] = out[_LEAF:_LEAF + e - s]
        x[:m1] = out[-m1:]
        if not np.isfinite(z1[s:e]).all():
            end = e
            break
    y = ic_poly[:end] + (z1[:end] if nu_quad is None
                         else _series(nu_quad, z1[:end], far[-1][:end]))
    stop = ~(np.isfinite(z1[:end]) & np.isfinite(y))
    return w, z1, y, int(stop.argmax()) if stop.any() else None
