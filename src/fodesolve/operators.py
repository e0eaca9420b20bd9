"""Discrete fractional integral and derivative operators on uniform grids.

All operators act on series sampled at t_i = i*h with the lower terminal
of the underlying integrals fixed at t = 0, and all of them are causal:
the value at node i depends on samples 0..i only.

Three quadratures cover the whole order range (the first two follow
Oldham & Spanier's product-rule constructions, the third uses the
binomial weights of the backward-difference definition):

* fractional integral of any positive order,
* fractional derivative of order in [0, 1), which carries an explicit
  boundary term so a nonzero first sample is tolerated away from t = 0,
* binomial-weight derivative for orders >= 1, valid for series whose
  first sample is zero.

All three, and every other product quadrature in the package, are
evaluated in one node form (see the comment above _LEAF).  The difference
quadrature is summed by parts into it: samples times differenced
weights rather than weights times sample differences.  That is the same
quadrature; only the rounding differs, and it grows with the history
length and the order.

The node form sums the lags near node i directly and the older ones by
block FFT, so a whole series costs O(n log^2 n) rather than O(n^2).  A
whole series lays its near sums out lag-major, one row per place in the
leaf and one column per leaf, so each lag is one multiply and one add
over contiguous memory for every leaf at once.  It transforms all its
far blocks of one size together, one FFT
pair per size, the largest size first: a node's blocks all differ in
size, and a larger one starts earlier, so every node adds its blocks in
increasing k.  Quadratures that read the same series close their blocks
as one group that shares every transform: one rfft of the samples, one
broadcast multiply by the members' stacked lag spectra, one irfft for
all of them.
Where the weights grow (integral orders above 1, the series fold's last
power) a geometric scale flattens each block first; a block that no
scale flattens (the series fold's, where it dips and then grows) or
that holds a weight past double range is summed directly instead.  A
quadrature that scales or sums directly closes its blocks alone.  The
node form has one evaluator, _series, for a series known in full
(apply_operator, the series inversion and its tail, the reconstruction
of y).  Its output is prefix causal to the bit, so a single node i is
the last output of the series cut after node i: the single-node
functions evaluate it that way.  A series whose next sample depends on
the last output (the stepper's, the cross-check solver's) is solved a
leaf of nodes at a time instead, by one driver, _leaf_run: the far
field from before the leaf, one group per series the couplings read,
then the leaf itself through one matrix and _leaf_product; the
whole-series evaluator then takes a coupling's far field from the run
rather than summing it again.  _leaf_product holds the package's one
rule for non-finite values in a leaf: a product with an exact zero on
either side counts as 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gammafn
from .errors import (
    DEFAULT_ORDER_CAP,
    NonzeroOriginError,
    SingularOriginError,
)

__all__ = [
    "DEFAULT_ORDER_CAP",
    "SampleSeries",
    "weight_table",
    "frac_integral",
    "frac_derivative01",
    "frac_derivative_general",
    "apply_operator",
]

_WEIGHT_CACHE_SIZE = 256
# Each cached quadrature also holds block spectra, and a growing table
# block scales, each about twice the size of its lag table.
_QUAD_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class SampleSeries:
    """A real-valued signal sampled uniformly at t_i = i*h, i = 0..n-1.

    The sample array is stored read-only; build a new series instead of
    mutating one in place.  Series entering a common computation must
    share the same h.
    """

    h: float
    values: np.ndarray

    def __post_init__(self):
        h = float(self.h)
        if not np.isfinite(h) or h <= 0.0:
            raise ValueError(f"step must be positive and finite, got {h!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.h


def _signed_order(mu) -> float:
    """mu as a signed operator order: negative integrates, positive
    differentiates, zero is the identity.  A non-finite order, or one of
    magnitude DEFAULT_ORDER_CAP or more, is rejected: it is usually a
    sign of a misread input file."""
    mu = float(mu)
    if not math.isfinite(mu):
        raise ValueError(f"operator order must be finite, got {mu!r}")
    if abs(mu) >= DEFAULT_ORDER_CAP:
        raise ValueError(f"operator order {mu!r} exceeds the cap"
                         f" {DEFAULT_ORDER_CAP!r}")
    return mu


def _whole(x, what: str) -> int:
    """x as an int when it is whole-valued (numpy integers and floats
    such as 3.0 included); ValueError for 2.5, nan or inf, which int()
    would cut or fail on."""
    if not float(x).is_integer():
        raise ValueError(f"{what} must be a whole number, got {x!r}")
    return int(x)


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def _weights(kind: str, order: float, n: int) -> np.ndarray:
    """Read-only weights of one of the three public kinds, "integral",
    "derivative01" or "binomial", and one order for an n-sample series.

    The one weight cache behind every internal caller.  The order is not
    validated here (the oracle needs binomial weights below order 1);
    weight_table does that.  Tables used only once can skip the cache
    through the uncached builder, _weights.__wrapped__.
    """
    j = np.arange(n, dtype=np.float64)
    if kind == "integral":
        w = _integral_tables(order, n)[1].copy()
    elif kind == "derivative01":
        w = (j + 1.0) ** (1.0 - order) - j ** (1.0 - order)
    else:
        # Binomial: w_0 = 1, w_j = w_{j-1} * (1 - (order+1)/j).  For an
        # integer order the factor hits zero at j = order+1 and the
        # weights terminate exactly.
        w = np.empty(n, dtype=np.float64)
        w[0] = 1.0
        w[1:] = np.cumprod(1.0 - (order + 1.0) / j[1:])
    w.setflags(write=False)
    return w


def _integral_tables(order: float, n: int) -> np.ndarray:
    """The weights x1^a - x0^a of the integral quadrature of one
    positive order for an n-sample series, as the rows of one array,
    both differenced from the one power table j^a, j = 0..n.  Row 0, the
    boundary weights, has x1 = j: the first sample's weight at node j.
    Row 1, the "integral" kind, has x1 = j + 1: the weight of lag j.
    Both have x0 = j - 1 clipped at 0, and slot 0 is zero in both.  The
    subtraction loses at most ~j*eps relative accuracy, far below
    quadrature error at any grid this package targets."""
    power = np.arange(n + 1, dtype=np.float64) ** order
    out = np.zeros((2, n))
    np.subtract(power[1:n], power[:n - 1], out=out[0, 1:])
    np.subtract(power[2:], power[:n - 1], out=out[1, 1:])
    return out


def _scaled_weights(c: float, log_c: float, order: float,
                    m: int) -> np.ndarray:
    """c times the m weights x1^a - x0^a of both rows of
    _integral_tables, built outside the cache, where
    |c| = exp(log_c) and c is either a nonzero float or a signed zero
    standing in for a smaller one.  The products may lie in double
    range where the tables, or c, do not.  An entry that a nonzero c
    does not give as a finite product is taken as
    (c x1^(a/2)) x1^(a/2) (1 - (x0/x1)^a), two factors in double range
    wherever the product is; every entry of a zero c as
    sign(c) exp(log|c| + a log x1) (1 - (x0/x1)^a), which loses about
    |log|c|| eps.  The other entries keep their bits."""
    with np.errstate(all="ignore"):
        out = c * _integral_tables(order, m)
        redo = ~np.isfinite(out)
        if not c:
            redo[:, 1:] = True  # slot 0 is zero in both rows
        if redo.any():
            row, j = np.nonzero(redo)
            x1, x0 = j + row, np.maximum(j - 1.0, 0.0)
            if c:
                half = x1 ** (0.5 * order)
                power = (c * half) * half
            else:
                power = (math.copysign(1.0, c)
                         * np.exp(log_c + order * np.log(x1)))
            # (x0/x1)^a in logs of 1 - (x1 - x0)/x1: its error does not
            # grow with the order.
            out[row, j] = power * -np.expm1(order * np.log1p((x0 - x1) / x1))
    return out


def weight_table(kind: str, order: float, n: int) -> np.ndarray:
    """The weights of the given kind and order for an n-sample series.

    kind is one of "integral", "derivative01", "binomial".  Weights carry
    no h factor; the caller applies the h**(+-order) prefactor.  Repeated
    calls with the same arguments return the same cached array, built on
    first use; the array is read-only."""
    order = float(order)
    if not math.isfinite(order):
        raise ValueError(f"weight order must be finite, got {order!r}")
    n = _whole(n, "table length")
    if n < 1:
        raise ValueError("table length must be at least 1")
    if kind == "integral":
        if order <= 0.0:
            raise ValueError("integral order must be positive")
    elif kind == "derivative01":
        if not 0.0 <= order < 1.0:
            raise ValueError("derivative01 order must lie in [0, 1)")
    elif kind == "binomial":
        if order < 1.0:
            raise ValueError("binomial order must be at least 1")
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return _weights(kind, order, n)


def _check_node(z: SampleSeries, i: int) -> int:
    i = _whole(i, "node index")
    if not 0 <= i < len(z):
        raise IndexError(f"node {i} outside series of length {len(z)}")
    return i


# Every product quadrature in the package has one node form,
#
#   out_i = pref * (centre*v_i + boundary[i]*v_0
#                   + sum_{j=1..i-1} lag[j]*v_{i-j}),     out_0 = 0,
#
# evaluated over a whole series by _series, which performs the same
# float operations in the same order for every node.  The output at
# node i depends only on samples 0..i (causality holds exactly, not just
# to rounding), so the series cut after node i gives node i's bits: the
# single-node functions take that last output.
#
# The lag sum is split in two (Hairer, Lubich & Schlichte 1985).  The
# near field, the lags inside node i's aligned leaf of _LEAF samples, is
# summed directly: from 0.0, lag rising, each product rounded before it
# is added.  The far field covers the samples before that leaf with
# aligned dyadic blocks: each node k that is a multiple of _LEAF closes
# the block of the b = k & -k samples before it, and one FFT of size 2b
# convolves that block with lag[0:2b] for the nodes k..k+b-1, both
# scaled flat where the lags grow (_block_scale); a block that no scale
# flattens is summed directly.  The plan (_quadrature) decides each
# block size once.  Node i's blocks are the binary prefixes of its leaf
# start, O(log i) of them.
# Every piece has bounds fixed by the node index alone and content
# independent of the container length, so prefixes stay bitwise equal.
# _series sums every block once, adding a node's blocks in increasing
# k, so a whole series costs O(n log^2 n), and a single node, the
# series cut after it, O(i log^2 i).  It fills its far field through
# one function, _close_blocks, and so does the one leaf driver,
# _leaf_run, which walks the leaves of stepper._leaf_solve and
# oracle.gl_direct_solve.
# _close_blocks transforms the blocks it is given size by size, all of
# one size in one FFT pair (a direct sum from cap on), the largest size
# first, for a group of quadratures that read the same samples
# (_Group): the group cuts the blocks once and shares every transform,
# one rfft, one broadcast multiply by its members' lag spectra, stacked
# once per group and size, and one irfft, and adds each size's outputs
# into one accumulator row per member with one slice add.  A quadrature
# that scales a block or sums it directly is a group of its own.
# _series gives it every leaf start at once, and _leaf_run one leaf
# start at a time, for every coupling on one series together, with a
# group built once per solve.  A node's blocks are the
# binary prefixes of its leaf start, one of each size, and of two of
# them the larger block has the smaller k, so largest size first is
# increasing k for every node, and no bit depends on how the blocks, or
# the quadratures, were grouped.  The FFT is numpy's pocketfft, which
# uses no BLAS threads and transforms each row of a stack alone.
_LEAF = 64


def _table_length(n: int) -> int:
    """Length of the lag tables of an n-sample series: the far blocks
    need lags up to 2b - 1, so n is rounded up to a power of two.  Every
    table is built element by element, so a longer one only extends a
    shorter one."""
    return max(n, 1 << (n - 1).bit_length())


class _Quadrature(NamedTuple):
    """A quadrature (pref, centre, boundary, lag) in the node form above,
    with its summation plan, read once from the lag table by
    _quadrature:

    support  the last nonzero lag, where a direct sum stops (an
             integer-order binomial table ends at lag = order, so the
             first derivative sums one lag);
    period   _LEAF when the far field takes the lags beyond the leaf,
             else longer than the table, so one direct sum takes them;
    cap      0, or the smallest block size summed directly;
    scales   the scale vectors rho^j, j < 2b, of the far blocks whose
             lags grow, by block size;
    spectra  the far blocks' scaled lag spectra by block size, filled
             on use.
    """

    pref: float
    centre: float
    boundary: np.ndarray
    lag: np.ndarray
    support: int
    period: int
    cap: int
    scales: dict
    spectra: dict


def _quadrature(pref: float, centre: float, boundary: np.ndarray,
                lag: np.ndarray) -> _Quadrature:
    """The quadrature with its summation plan.

    The far field's rounding error scales with the largest lag it is
    given.  A block of b samples is transformed as it is while the
    largest |lag_j|, 1 <= j < 2b, lies inside the leaf: every block of
    the decaying tables (integral order <= 1, order (0, 1), non-integer
    binomial orders).  Otherwise its growth is flattened first (see
    _block_scale): every block of a table that grows like a power
    (integral orders above 1, the series fold's last power).  A block
    that neither admits, or whose lags are not all finite, is summed
    directly with every larger one: the series fold's where it decays
    and then grows as its truncated powers take over, and a large
    order's where its table passes double range past the grid.  Each
    block's choice and scale read lag[0:2b] only, so they do not depend
    on n.  For an n-sample series the lag table must be
    _table_length(n) long, the boundary n long.
    """
    mag = np.abs(lag[1:])
    nonzero = mag != 0.0
    support = mag.size - int(np.argmax(nonzero[::-1])) if nonzero.any() else 0
    leaf = mag[:_LEAF - 1].max(initial=0.0)
    scales = {}
    b = _LEAF
    while 2 * b <= lag.size:
        block = mag[:2 * b - 1]  # lags 1..2b-1
        if not np.isfinite(block).all():
            break
        if block.max() > leaf:
            scale = _block_scale(block, b)
            if scale is None:
                break
            scales[b] = scale
        b *= 2
    cap = b if 2 * b <= lag.size else 0
    return _Quadrature(pref, centre, boundary, lag, support,
                       _LEAF if support >= _LEAF else lag.size + 1, cap,
                       scales, {})


def _block_scale(block: np.ndarray, b: int):
    """The scale vector rho^j, j = 0..2b-1, that flattens a far block of
    b samples whose lags |lag_j|, j = 1..2b-1, are block; None if it
    does not admit the block.

    The block's sums are taken as
    sum_m lag[i-m] v_m = rho^-(i-s) sum_m (lag[i-m] rho^(i-m)) (v_m rho^(m-s))
    for its first sample s, with rho^b = |lag_b / lag_(2b-1)|, so every
    power stays within rho^(+-(2b-1)).  Each output i of the block sums
    one lag of the far half b <= j < 2b, with v_s; the block is
    admitted while its largest scaled lag lies there, which a table
    growing like a power meets (its scaled lags peak near j = 1.44 b),
    and a block that dips and then grows does not."""
    lo, hi = block[b - 1], block[2 * b - 2]
    if lo == 0.0 or hi == 0.0:
        return None
    log_rho = (math.log(lo) - math.log(hi)) / b
    # Keep rho^(+-(2b-1)) normal.
    if (2 * b - 1) * abs(log_rho) > 700.0:
        return None
    scale = math.exp(log_rho) ** np.arange(2 * b, dtype=np.float64)
    if int(np.argmax(block * scale[1:])) < b - 1:
        return None
    return scale


class _Group(NamedTuple):
    """Quadratures that read one series and close their far blocks
    together, sharing every transform (see the comment above _LEAF),
    built once per solve or per whole-series pass:

    quads    the members, in the order of the accumulator's rows;
    spectra  by block size, the members' lag spectra stacked one row
             each, filled on use.

    A quadrature whose plan scales a block or sums it directly closes
    its blocks alone."""

    quads: tuple
    spectra: dict


def _group(quads) -> _Group:
    quads = tuple(quads)
    if len(quads) > 1 and any(q.cap or q.scales for q in quads):
        raise ValueError("a quadrature that scales or sums its far blocks"
                         " directly closes them alone")
    return _Group(quads, {})


def _far_block(group: _Group, values: np.ndarray, k: int, count: int,
               n: int) -> np.ndarray:
    """Far-field sums sum_{m=s-b..s-1} lag[i-m]*v_m, for each quadrature
    of the group, all of which read values, of the count blocks of
    b = k & -k samples that the nodes s = k, k + 2b, ..., k + 2b(count-1)
    close: a (members, count, b) array, one row per member in the
    group's order and block, for the nodes i = s..s+b-1; entries for
    nodes at or past n are not meaningful.

    The blocks are cut once.  Sample 0 belongs to the boundary term and
    counts as 0 here: the cut zeroes it once, and a direct sum, from 0.0
    in increasing lag, skips it.  The members share one rfft of the
    blocks, one broadcast multiply by their lag spectra, stacked once
    per group and size (a lone member's row is its cache's spectrum, not
    a copy), and one irfft.  Each transform acts on each row alone, so
    every member gets the bits a group of its own gives it.  Every FFT
    is a circular convolution of size 2b: the outputs b..2b-1 take lags
    1..2b-1 only, so none of them wraps.  A lone member may scale the
    pair, as _block_scale says, or sum the blocks directly from its
    cap on."""
    b = k & -k
    if count == 1 and k != b:
        x = values[None, k - b:k]
    else:
        # The blocks' samples, one row each: every other b of one span.
        x = np.empty((count, 2 * b))
        x.reshape(-1)[:(2 * count - 1) * b] = (
            values[k - b:k + 2 * b * (count - 1)])
        x = x[:, :b]
        if k == b:
            x[0, 0] = 0.0
    quad = group.quads[0]
    if quad.cap and b >= quad.cap:
        # Lag rising is sample falling.  Lags past the grid reach only
        # the nodes past it, and may be inf: they count as 0 here.
        # Sample 0's lags may be inf too: it is skipped, not multiplied
        # by its zero.
        lag = quad.lag[:2 * b]
        if n < 2 * b:
            lag = lag.copy()
            lag[n:] = 0.0
        out = np.zeros((count, b))
        for m in range(b - 1, -1, -1):
            r = 1 if m == 0 and k == b else 0
            out[r:] += lag[b - m:2 * b - m] * x[r:, m, None]
        return out[None]
    spectra = group.spectra.get(b)
    if spectra is None:
        for q in group.quads:
            if b not in q.spectra:
                # Lag 0 never reaches the outputs kept below; zeroed, it
                # adds no rounding either.
                lag = q.lag[:2 * b].copy()
                lag[0] = 0.0
                if b in q.scales:
                    lag *= q.scales[b]
                q.spectra[b] = np.fft.rfft(lag)
        spectra = group.spectra[b] = (
            quad.spectra[b][None] if len(group.quads) == 1
            else np.array([q.spectra[b] for q in group.quads]))
    scale = quad.scales.get(b)
    if scale is not None:
        x = x * scale[:b]
    out = np.fft.irfft(np.fft.rfft(x, 2 * b) * spectra[:, None],
                       2 * b)[..., b:]
    return out if scale is None else out / scale[b:]


def _close_blocks(group: _Group, values: np.ndarray, acc: np.ndarray,
                  closing) -> None:
    """Add to acc, a (members, n) accumulator with one row per
    quadrature of the group, all of which read values, the far blocks
    that the leaf starts closing close, each size's blocks by one
    _far_block call and one slice add, from the largest size to the
    smallest, which is increasing k for every node (see the comment
    above _LEAF).  Those of one size b must be consecutive odd multiples
    of b.  The package passes every leaf start of a range (_series) or a
    single leaf start, which takes no sorting (_leaf_run, once per leaf
    start for every coupling that reads the same series): the one
    far-field path."""
    n = acc.shape[1]
    if len(closing) == 1:
        runs = ((closing[0], 1),)
    else:
        sizes = {}
        for k in closing:
            sizes.setdefault(k & -k, []).append(k)
        runs = [(min(sizes[b]), len(sizes[b]))
                for b in sorted(sizes, reverse=True)]
    for k, count in runs:
        b = k & -k
        out = _far_block(group, values, k, count, n)
        # Every block but the last ends before the last one starts.
        last = k + 2 * b * (count - 1)
        if count > 1:
            acc[:, k:last].reshape(len(acc), count - 1, 2 * b)[..., :b] += (
                out[:, :-1])
        acc[:, last:last + b] += out[:, -1, :n - last]


def _series(quad: _Quadrature, values: np.ndarray,
            far: np.ndarray | None = None) -> np.ndarray:
    """quad at every node of the whole series values: the same float
    operations in the same order at every node, batched over the nodes.
    Node i reads samples 0..i only, so _series(quad, values[:i + 1])[i]
    is _series(quad, values)[i], bit for bit.

    The far field closes every leaf start's block in one _close_blocks
    call, one FFT pair per block size; a leaf solve that has already
    accumulated it over the same values at every leaf start passes it
    as far (for a table with far field), and it is not summed again.
    The near field is at most min(_LEAF - 1, support) multiply-adds
    over the leaves, in increasing lag from 0.0, each product rounded
    before it is added; a table without far field is one leaf as long
    as the series.  It is laid out lag-major: samples, sums and one
    product buffer are (period, leaves) arrays, slot [c, r] for leaf r's
    sample c, so lag j multiplies the first rows into the buffer and
    adds it to the rows from j on, both over contiguous memory, and one
    transpose gives the node order back (a view for one leaf).  Sample
    0, the boundary term's, enters as +0.0, which leaves a near sum
    (never -0.0) as it is while the lag is finite.  A
    non-finite lag anywhere on the grid raises OverflowError."""
    pref, centre, boundary, lag, support, period, _, _, _ = quad
    n = values.size
    if not np.isfinite(lag[1:min(n, support + 1)]).all():
        raise OverflowError("weights exceed double range on this grid")
    if far is None:
        acc = np.zeros((1, n))
        _close_blocks(_group((quad,)), values, acc,
                      range(period, n, period))
        far = acc[0]
    # Near lags j at node r*p + c: the samples c-j of the same leaf, at
    # slots [c - j, r].
    p = min(period, n)
    full, tail = divmod(n, p)
    v = np.zeros((p, full + (tail > 0)))
    v.T[:full] = values[:full * p].reshape(full, p)
    if tail:
        v[:tail, full] = values[full * p:]
    v[0, 0] = 0.0
    near = np.zeros(v.shape)
    buf = np.empty(v.shape)
    for j in range(1, min(p, support + 1)):
        np.multiply(lag[j], v[:p - j], out=buf[:p - j])
        near[j:] += buf[:p - j]
    lags = far + near.T.reshape(-1)[:n]
    out = pref * (centre * values + boundary[:n] * values[0] + lags)
    out[0] = 0.0
    return out


def _leaf_product(g: np.ndarray, x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(g * x).sum(axis=1): one leaf of a leaf-blocked solve, its outputs
    from the leaf's matrix g and its inputs x, by an elementwise product
    into buf, the broadcast product's shape, kept by the caller for the
    whole solve, and a row sum (no BLAS call).  The per-leaf solves that
    _leaf_run drives, the stepper's and oracle.gl_direct_solve's, take
    their leaves here, and the stepper its leaf inputs too.

    The package's one rule for non-finite values in a leaf: a product
    with an exact zero on either side counts as 0, so a zero entry of g
    never meets a non-finite input as 0 * inf, nor a non-finite entry a
    zero input; every other product is plain IEEE arithmetic.  Outputs
    that come out finite, the usual case, are the plain sum; only a leaf
    with a non-finite output is summed again with its zero products
    masked."""
    prod = np.multiply(g, x, out=buf)
    out = np.add.reduce(prod, axis=1)
    # A finite sum means every output is finite.
    if not math.isfinite(np.add.reduce(out, axis=None)):
        prod[(g == 0.0) | (x == 0.0)] = 0.0
        out = np.add.reduce(prod, axis=1)
    return out


def _leaf_run(n: int, groups, leaf) -> int | None:
    """Walk an n-node leaf-blocked solve a leaf of _LEAF nodes at a
    time: the one leaf loop of the stepper and of
    oracle.gl_direct_solve.  At each leaf start s it closes the far
    blocks that s closes for every (values, group, acc) of groups, one
    _close_blocks call per group, then calls leaf(s, e), which solves
    nodes s..e-1 and returns their outputs.  It stops after the first
    leaf whose outputs are not all finite and returns the first
    non-finite node (None for a clean run)."""
    for s in range(0, n, _LEAF):
        if s:
            for values, group, acc in groups:
                _close_blocks(group, values, acc, (s,))
        out = leaf(s, min(s + _LEAF, n))
        # A finite sum means every node of the leaf is finite.
        if not math.isfinite(np.add.reduce(out)):
            bad = ~np.isfinite(out)
            if bad.any():
                return s + int(bad.argmax())
    return None


def _integral_pref(h: float, alpha: float) -> float:
    return h ** alpha / (2.0 * gammafn.gamma(1.0 + alpha))


@functools.lru_cache(maxsize=_QUAD_CACHE_SIZE)
def _kernel_quad(mu: float, h: float, m: int) -> _Quadrature:
    """The quadrature of signed order mu != 0 with step h and lag tables
    of length m (see _table_length), in the node form above.  mu < 0
    integrates, 0 < mu < 1 takes the difference quadrature summed by
    parts, mu >= 1 the binomial weights (whose sum covers v_0 as
    boundary[i] = w_i).  Cached with its plan and the block spectra it
    fills, so kernels built again on the same grid (single-node calls
    among them) share them.  Its tables are read-only.

    The tables run past the grid to m; a large order's weights may
    leave double range there, so their builds are silent about it.
    _series raises OverflowError for a non-finite weight on the grid,
    and the far field sums a block holding one directly.  A prefactor
    h**(-mu) past double range raises OverflowError naming h and mu."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if mu < 0.0:
                pref, centre = _integral_pref(h, -mu), 1.0
                boundary, lag = _integral_tables(-mu, m)
            elif mu < 1.0:
                pref, centre = h ** (-mu) / gammafn.gamma(2.0 - mu), 1.0
                # Summation by parts moves the difference quadrature's
                # weights w from sample differences onto samples: the
                # first sample gets (1-a)/i^a - w_{i-1} at node i, lag j
                # gets w_j - w_{j-1}.
                w = _weights("derivative01", mu, m)
                j = np.arange(1, m, dtype=np.float64)
                boundary, lag = np.zeros((2, m))
                np.subtract((1.0 - mu) / j ** mu, w[:-1], out=boundary[1:])
                np.subtract(w[1:], w[:-1], out=lag[1:])
            else:
                boundary = lag = _weights("binomial", mu, m)
                pref, centre = h ** (-mu), lag[0]
    except OverflowError:
        raise OverflowError(
            f"operator of order {mu:g} at step {h:.6g}: h**{-mu:g} exceeds"
            f" double range") from None
    boundary.setflags(write=False)
    lag.setflags(write=False)
    return _quadrature(pref, centre, boundary, lag)


def _check_zero_origin(values: np.ndarray) -> None:
    if values[0] != 0.0:
        raise NonzeroOriginError(
            "binomial-weight derivative needs a series starting at zero"
        )


def frac_integral(z: SampleSeries, alpha: float, i: int) -> float:
    """Fractional integral of order alpha > 0 of z, evaluated at node i.

    Trapezoid-like product quadrature: the current and first samples get
    boundary weights, interior samples the weights (j+1)^a - (j-1)^a.
    Node 0 is the empty integral and returns 0.  Reduces to the composite
    trapezoid rule at alpha = 1.

    Orders at or above DEFAULT_ORDER_CAP are rejected, as
    apply_operator rejects them.

    One call is the whole-series pass over nodes 0..i, work of order
    i log^2 i; apply_operator serves every node of a series in one pass.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("integral order must be positive")
    _signed_order(-alpha)
    i = _check_node(z, i)
    quad = _kernel_quad(-alpha, z.h, _table_length(len(z)))
    return _series(quad, z.values[:i + 1]).item(i)


def frac_derivative01(z: SampleSeries, alpha: float, i: int) -> float:
    """Fractional derivative of order alpha in [0, 1) of z at node i.

    First-order difference quadrature with an explicit boundary term
    (1-alpha) z_0 / i**alpha, so a series with nonzero first sample is
    handled for i >= 1.  At i = 0 and alpha > 0 the boundary term
    diverges: the routine returns 0 when z_0 = 0 and raises
    SingularOriginError otherwise.  alpha = 0 is the identity and returns
    z_i exactly at every node.

    One call is the whole-series pass over nodes 0..i, work of order
    i log^2 i; apply_operator serves every node of a series in one pass.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError("derivative01 order must lie in [0, 1)")
    i = _check_node(z, i)
    if alpha == 0.0:
        return float(z.values[i])
    if i == 0 and z.values[0] != 0.0:
        raise SingularOriginError(
            "derivative at t = 0 of a series with nonzero first sample")
    quad = _kernel_quad(alpha, z.h, _table_length(len(z)))
    return _series(quad, z.values[:i + 1]).item(i)


def frac_derivative_general(z: SampleSeries, alpha: float, i: int) -> float:
    """Fractional derivative of order alpha >= 1 of z at node i, using the
    binomial weights of the backward-difference definition.

    Requires z_0 = 0 (raises NonzeroOriginError otherwise); under that
    condition the scheme agrees with the integral definition of the
    derivative, which is exactly the situation the solver produces for
    its internal series.  At alpha = 1 this is the plain backward
    difference.

    Orders at or above DEFAULT_ORDER_CAP are rejected, as
    apply_operator rejects them.

    One call is the whole-series pass over nodes 0..i, work of order
    i log^2 i; apply_operator serves every node of a series in one pass.
    """
    alpha = float(alpha)
    if alpha < 1.0:
        raise ValueError("general derivative order must be at least 1")
    _signed_order(alpha)
    i = _check_node(z, i)
    _check_zero_origin(z.values)
    quad = _kernel_quad(alpha, z.h, _table_length(len(z)))
    return _series(quad, z.values[:i + 1]).item(i)


def apply_operator(z: SampleSeries, mu) -> SampleSeries:
    """Apply the operator of signed order mu to a whole series.

    mu < 0 integrates with order |mu|, mu = 0 returns the input
    unchanged, 0 < mu < 1 uses the difference quadrature, mu >= 1 the
    binomial weights (which require z_0 = 0).  The output is causal node
    by node.  For 0 < mu < 1 and z_0 != 0 the first output sample is nan,
    since the derivative is singular at t = 0; all later nodes are fine.
    mu is a plain number; a non-finite one, or one of magnitude
    DEFAULT_ORDER_CAP or more, raises ValueError.
    """
    m = _signed_order(mu)
    if m == 0.0:
        return z
    v = z.values
    if m >= 1.0:
        _check_zero_origin(v)
    out = _series(_kernel_quad(m, z.h, _table_length(v.size)), v)
    # The derivative of a non-vanishing series is singular at t = 0;
    # report that sample as nan rather than inventing a number.
    if 0.0 < m < 1.0 and v[0] != 0.0:
        out[0] = np.nan
    return SampleSeries(z.h, out)
