"""The full-width reference for the stepper's leaf map.

stepper._leaf_map builds G and G_y in one pass of the node recurrence
of one leaf, over a column per state component and a column per input
(the inverter's, when it has links, and the right-hand side's) per
node.  This module runs that recurrence again, written out on its own
with a unit vector per input, a list of state rows and numpy's sum, so
that a change to the package's build is checked against a second
writing of the same pass.  Its G and G_y are the bits the package's
build must keep.
"""

import numpy as np

from fodesolve.operators import _LEAF
from fodesolve.stepper import _couplings, _near_table, _step


def full_width_leaf_map(m1, a1, h, fold, w_links, pivot, links, nu_quad, c1):
    """stepper._leaf_map's G and G_y, the recurrence run on one column
    per input per node, over the same summed near lags."""
    couplings = _couplings(fold, w_links, links, nu_quad, c1)
    inverter = _near_table(couplings, 0)
    rhs = _near_table(couplings, 1, -c1 if nu_quad is None else 0.0)
    blocks = 1 + (inverter is not None)
    width = m1 + _LEAF * blocks
    if nu_quad is not None:
        lag_nu, _ = _near_table([(nu_quad, 1, 1.0)], 1)

    def unit(col):
        e = np.zeros(width)
        e[col] = 1.0
        return e

    def near(lag, rows, r):
        return (lag[r:0:-1, None] * rows[:r]).sum(axis=0, initial=0.0)

    u = [unit(k) for k in range(m1)]
    w = np.zeros((_LEAF, width))
    z = np.zeros((_LEAF, width))
    y = np.zeros((_LEAF, width))
    for r in range(_LEAF):
        w[r] = u[0]
        if fold is not None:
            lag, centre = inverter
            z[r] = w[r] + (centre * w[r] + near(lag, w, r)) + unit(m1 + r)
        elif inverter is not None:
            z[r] = (w[r] + unit(m1 + r) + near(inverter[0], z, r)) / pivot
        else:
            z[r] = w[r] / pivot
        y[r] = z[r] if nu_quad is None else nu_quad.pref * (
            nu_quad.centre * z[r] + near(lag_nu, z, r))
        f = unit(width - _LEAF + r)
        if rhs is not None:
            lag, centre = rhs
            f = f + (centre * z[r] if lag is None
                     else centre * z[r] + near(lag, z, r))
        _step(u, h, a1, f)
    return np.vstack([z] + ([w] if fold is not None else []) + u), y
