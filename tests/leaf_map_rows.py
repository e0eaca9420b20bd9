"""The full-width reference for the stepper's leaf map.

stepper._leaf_map runs the node recurrence of one leaf on one column
per state component and one per block of inputs, and spreads each
block from its column.  This module keeps the build as it stood before:
the same recurrence on one column per input, every block's entries
computed where they sit.  Its G and G_y are the bits the spread ones
must keep.
"""

import numpy as np

from fodesolve.operators import _LEAF
from fodesolve.stepper import _step


def full_width_leaf_map(m1, a1, h, fold, w_links, pivot, links, nu_quad, c1):
    """stepper._leaf_map's G, G_y and quadratures, the recurrence run
    on one column per input."""
    quads = [fold] if fold is not None else [q for _, q in w_links]
    quads += [q for _, q in links] + ([] if nu_quad is None else [nu_quad])
    width = m1 + _LEAF * (len(quads) + 2)
    force, ic = width - 2 * _LEAF, width - _LEAF
    lags = []
    for q in quads:
        # Lags past a table shorter than the leaf reach only nodes past
        # the grid.
        lag = np.zeros(_LEAF)
        lag[:q.lag.size] = q.lag[:_LEAF]
        lags.append(lag)

    def unit(col):
        e = np.zeros(width)
        e[col] = 1.0
        return e

    def node(k, rows, r, current=None):
        # Quad k at leaf node r over the rows of the leaf's nodes before
        # it, pref * (centre*current + far + near) as the running
        # evaluator forms it; the direct inverter's links have no
        # current.
        q = quads[k]
        v = unit(m1 + k * _LEAF + r) + (lags[k][r:0:-1, None]
                                         * rows[:r]).sum(axis=0)
        if current is not None:
            v = q.centre * current + v
        return q.pref * v

    u = [unit(k) for k in range(m1)]
    w = np.zeros((_LEAF, width))
    z = np.zeros((_LEAF, width))
    y = np.zeros((_LEAF, width))
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
        y[r] = unit(ic + r) + (z[r] if nu_quad is None
                               else node(len(quads) - 1, z, r, z[r]))
        _step(u, h, a1, unit(force + r),
              [(c, node(first_link + j, z, r, z[r]))
               for j, (c, _) in enumerate(links)],
              y[r], [(c1, 1)] if c1 else ())
    return np.vstack([z] + ([w] if fold is not None else []) + u), y, quads
