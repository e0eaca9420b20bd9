"""The node-by-node reference for the stepper's leaf route.

solve steps every problem a 64-node leaf at a time through one linear
map of the leaf (stepper._leaf_map) and, for a nonlinear problem, a
sweep to the forward-substitution value inside each leaf.  This module
runs the same recurrence node by node: every coupling and inverter link
a running evaluator (operators._running) over the package's own
quadratures, the same update and right-hand side (stepper._step) on
floats.  It sums each history in another order, so the two agree to
rounding, not bitwise.
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
from fodesolve.operators import _kernel_quad, _running, _table_length
from fodesolve.stepper import _ic_poly_values, _step


class Loop(NamedTuple):
    """y and z1 cut before nan_node, as solve cuts them."""

    y: np.ndarray
    z1: np.ndarray
    nan_node: int | None
    babenko_tail: float | None


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
            # y[i] is a numpy float: a power past double range gives the
            # signed inf with which the run stops at the next node.
            _step(u, h, system.a1, fvec.item(i),
                  [(c, node(z1, i)) for c, node in links], y[i], monomials)
    tail = None
    if last is not None:
        tail = _tail_norm(last, w[:n if stop is None else stop + 1])
    end = n if stop is None else stop
    return Loop(y[:end], z1[:end], stop, tail)
