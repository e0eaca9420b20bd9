"""The node-by-node reference for the stepper's leaf route and for the
whole-series evaluator.

solve steps every problem a 64-node leaf at a time through one linear
map of the leaf (stepper._leaf_map) and, for a nonlinear problem, a
sweep to the forward-substitution value inside each leaf.  This module
runs the same recurrence node by node: every coupling and inverter link
a running evaluator (_running below) over the package's own
quadratures, the same update (stepper._step) on floats, each coupling
of the right-hand side subtracted on its own.  It sums each history in
another order, so the two agree to rounding, not bitwise.

_running keeps one far-field accumulator per coupling and closes each
far block once, when a visited node first needs it, so a dense run
costs what operators._series costs; its near sum is _history, one `@`
in increasing lag.  It gives operators._series's bits at every node,
which tests/test_operators.py checks byte for byte.
"""

from typing import NamedTuple

import numpy as np

from fodesolve.decompose import (
    Babenko,
    build_system,
    _babenko_kernels,
    _direct_inverter,
    _tail_norm,
)
from fodesolve.operators import (
    _Quadrature,
    _close_blocks,
    _group,
    _kernel_quad,
    _table_length,
)
from fodesolve.stepper import _ic_poly_values, _step


class Loop(NamedTuple):
    """y and z1 cut before nan_node, as solve cuts them."""

    y: np.ndarray
    z1: np.ndarray
    nan_node: int | None
    babenko_tail: float | None


def _history(weights: np.ndarray, values: np.ndarray, i: int,
             lo: int, hi: int) -> float:
    """Causal product-quadrature sum over the lags lo..hi at node i,
    sum_j weights[j] * values[i - j]; 0 for an empty lag range.  Needs
    0 <= lo <= i and hi <= i.  The tests' direct history sum.

    The sum runs left to right from 0.0, in increasing lag j, each term
    rounded before it is added: operators._series reproduces it
    bitwise by multiply-adds in that order (tests/test_operators.py
    checks it)."""
    # The operand layout: weights forward, values reversed (negative
    # stride).  With one negative-stride operand `@` stays in numpy's own
    # single-threaded loop (numpy 2.4, OpenBLAS 0.3.31), so the sum is
    # bitwise the same for any BLAS thread count.  np.dot, or `@` on two
    # forward-contiguous operands, calls the BLAS ddot, which splits long
    # sums across threads and so changes the last bits with the thread
    # count.  einsum is invariant too but slower.
    stop = i - hi - 1 if hi < i else None
    return weights[lo:hi + 1] @ values[i - lo:stop:-1]


def _running(quad: _Quadrature, n: int):
    """Evaluator (values, i, current=None) -> quad at node i of one
    n-sample series, for nodes visited in increasing order (a single
    node is one such visit).  A given current stands in for v_i, and
    values[i] is then never read: values need only cover 0..i-1.  The
    node loops below and the every-node comparisons of the tests call
    it; the package evaluates a single node as the last output of
    operators._series over the prefix that ends at it, which keeps no
    state.

    It holds the far field in an accumulator over the grid.  A visit
    closes node i's blocks (the binary prefixes of its leaf start) that
    start after the last leaf start visited: a block that starts at or
    before it and holds node i also held that visit's node, so it is
    already in.  Each block is thus summed at most once, only when a
    visited node needs it, and every node's blocks are added in
    increasing k.  A table without far field is one leaf, starting at
    0, so it closes no block.

    It makes no finiteness check: a non-finite lag gives inf or nan
    where _series raises OverflowError, so the two agree bitwise on
    tables finite on the grid."""
    pref, centre, boundary, lag, support, period, _, _, _ = quad
    group = _group((quad,))
    acc = np.zeros((1, n))
    done = 0  # the last leaf start visited

    def product_node(values, i, current=None):
        nonlocal done
        if i == 0:
            return 0.0
        near = i % period
        start = i - near
        if start > done:
            closing, k = [], start
            while k > done:
                closing.append(k)
                k &= k - 1
            _close_blocks(group, values, acc, closing)
            done = start
        hi = near if near < i else i - 1
        lags = acc[0, i] + _history(lag, values, i, 1,
                                 hi if hi < support else support)
        v_i = values[i] if current is None else current
        return float(pref * (centre * v_i + boundary[i] * values[0] + lags))
    return product_node


def series_inverter(ratio, delta, h, terms, n):
    """The folded series inverse as a node map (w, z1, i) -> z1_i that
    never reads z1, and the last retained power's quadrature."""
    fold, last = _babenko_kernels(ratio, delta, h, terms, n)
    node = _running(fold, n)
    return (lambda w, z1, i: w.item(i) + node(w, i)), last


def direct_inverter(h, w_links, n):
    """The direct inverse as a node map (w, z1, i) -> z1_i, for nodes
    visited in increasing order; z1 is read at nodes 0..i-1 only."""
    quads, pivot = _direct_inverter(h, w_links, n)
    links = [(r, _running(q, n)) for r, q in quads]

    def invert(w, z1, i):
        acc = 0.0
        for r, node in links:
            acc += r * node(z1, i, 0.0)
        return (w.item(i) - acc) / pivot
    return invert


def node_loop_solve(problem, config):
    """solve's y, z1, nan_node and babenko_tail, node by node."""
    system = build_system(problem, config.inversion)
    h, n = config.h, config.num_steps + 1
    m = _table_length(n)
    fvec = problem.forcing.sample(h, n)
    ic_poly = _ic_poly_values(system.initial_conditions, np.arange(n) * h)
    links = [(l.coefficient, _running(_kernel_quad(l.order, h, m), n))
             for l in system.rhs_links]
    nu_node = (_running(_kernel_quad(system.nu, h, m), n)
               if system.nu > 0.0 else None)
    last = None
    if system.w_links and isinstance(system.inversion, Babenko):
        link = system.w_links[0]
        invert, last = series_inverter(link.ratio, link.order, h,
                                       system.inversion.terms, n)
    else:
        invert = direct_inverter(h, system.w_links, n)
    monomials = problem.nonlinearity.monomials()
    w, z1, y = np.zeros(n), np.zeros(n), np.zeros(n)
    u = [0.0] * system.m1
    stop = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            w[i] = u[0]
            z1[i] = invert(w, z1, i)
            y[i] = ic_poly[i] + (z1[i] if nu_node is None
                                 else nu_node(z1, i))
            if not (np.isfinite(y[i]) and np.isfinite(z1[i])):
                stop = i
                break
            # The right-hand side, term by term.  y[i] is a numpy float:
            # a power past double range gives the signed inf with which
            # the run stops at the next node.
            f = fvec.item(i)
            for c, node in links:
                f = f - c * node(z1, i)
            for c, p in monomials:
                f = f - c * y[i] ** p
            _step(u, h, system.a1, f)
    tail = None
    if last is not None:
        tail = _tail_norm(last, w[:n if stop is None else stop + 1])
    end = n if stop is None else stop
    return Loop(y[:end], z1[:end], stop, tail)
