"""Problem description and its reduction to one integer-order equation.

A problem is a sum of fractional derivative terms plus a polynomial
nonlinearity, driven by piecewise-polynomial forcing:

    sum_i  a_i D^(alpha_i) y  +  g(y)  =  f(t),   orders strictly decreasing.

The reduction rewrites the leading term through a temporary series
z1 = I^(m1 - alpha1)[y - ic polynomial], where m1 is the smallest integer
not below alpha1.  z1 and its first m1 - 1 derivatives start at zero, the
original unknown is recovered as y = ic polynomial + D^(nu) z1 with
nu = m1 - alpha1, and every remaining term becomes a derivative of z1 of
order nu + alpha_i, which is always below m1.  What is left is a single
m1-th order equation for z1 driven by those lower-order couplings.

The leading run of r terms whose integer order equals m1 is folded into
one combined series w = z1 + sum_{j=2..r} (a_j/a1) I^(alpha1-alpha_j) z1,
and the ODE advances w instead; the terms after the run couple through
the right-hand side.  With r = 1 nothing folds and w = z1.  Otherwise
each step has to recover z1 from w by inverting that Abel-type
relation; two inverters are provided, a truncated binomial-series
expansion and a direct solve of the discrete triangular system (the
default, exact at the quadrature level), which the stepper carries out
a leaf of nodes at a time through its leaf map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BabenkoTailWarning,
    SingularInversionError,
    UnsupportedProblemError,
)
from .operators import (
    DEFAULT_ORDER_CAP,
    SampleSeries,
    _check_node,
    _integral_pref,
    _kernel_quad,
    _quadrature,
    _scaled_weights,
    _series,
    _table_length,
)

__all__ = [
    "TAIL_TOL",
    "FracTerm",
    "Polynomial",
    "ForcingSegment",
    "PiecewiseForcing",
    "PowerSumForcing",
    "ProblemSpec",
    "RhsLink",
    "WLink",
    "Babenko",
    "DirectVolterra",
    "DecomposedSystem",
    "integer_order",
    "build_system",
    "BabenkoResult",
    "babenko_invert",
    "volterra_direct_invert",
]


# The series inversion warns when its last retained term, or the a-priori
# bound on it, exceeds this.  Callers wanting another threshold read the
# reported sup norm and filter BabenkoTailWarning with the warnings module.
TAIL_TOL = 1e-8


def integer_order(alpha: float) -> int:
    """Smallest integer m with m >= alpha (an integer order is its own m)."""
    return int(math.ceil(alpha))


@dataclass(frozen=True)
class FracTerm:
    """One term a * D^order applied to the unknown."""

    coefficient: float
    order: float

    def __post_init__(self):
        c = float(self.coefficient)
        a = float(self.order)
        if not math.isfinite(c):
            raise ValueError("term coefficient must be finite")
        if not math.isfinite(a) or a < 0.0:
            raise ValueError("term order must be finite and nonnegative")
        if a >= DEFAULT_ORDER_CAP:
            raise ValueError(
                f"term order {a!r} exceeds the supported cap {DEFAULT_ORDER_CAP}"
            )
        object.__setattr__(self, "coefficient", c)
        object.__setattr__(self, "order", a)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with coefficients indexed by power: p(y) = sum c_k y^k."""

    coefficients: tuple = ()

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        # Trailing zero coefficients carry no information; strip them so
        # equal polynomials compare equal.
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    def monomials(self):
        """Nonzero (coefficient, power) pairs, ascending in power."""
        return tuple(
            (c, p) for p, c in enumerate(self.coefficients) if c != 0.0
        )


@dataclass(frozen=True)
class ForcingSegment:
    """Polynomial forcing on the half-open window [t_from, t_to)."""

    t_from: float
    t_to: float
    coefficients: tuple

    def __post_init__(self):
        t0 = float(self.t_from)
        t1 = float(self.t_to)
        coeffs = tuple(float(c) for c in self.coefficients)
        if not math.isfinite(t0) or t0 < 0.0:
            raise ValueError("segment start must be finite and nonnegative")
        if math.isnan(t1) or t1 <= t0:
            raise ValueError("segment end must exceed its start")
        if not coeffs or any(not math.isfinite(c) for c in coeffs):
            raise ValueError("segment needs at least one finite coefficient")
        object.__setattr__(self, "t_from", t0)
        object.__setattr__(self, "t_to", t1)
        object.__setattr__(self, "coefficients", coeffs)


# Nodes this close to a segment boundary (relative to the step) are taken
# to sit on the boundary, so grids whose node times carry float rounding
# still pick the intended segment.
_BOUNDARY_SLACK = 1e-9


@dataclass(frozen=True)
class PiecewiseForcing:
    """Forcing assembled from contiguous polynomial segments starting at 0.

    The forcing is evaluated on the grid only, through sample(h, n).
    Each node t is evaluated on the segment with t_from <= t < t_to; a
    node exactly on a boundary, or less than 1e-9*h below it, belongs
    to the segment that starts there (with h = 0.03, node 11 is
    t = 0.32999999999999996 and takes a segment starting at 0.33).
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("forcing needs at least one segment")
        if segs[0].t_from != 0.0:
            raise ValueError("forcing must start at t = 0")
        for a, b in zip(segs, segs[1:]):
            if b.t_from != a.t_to:
                raise ValueError(
                    "forcing segments must be contiguous and ordered"
                )
        object.__setattr__(self, "segments", segs)

    @classmethod
    def zero(cls) -> "PiecewiseForcing":
        return cls((ForcingSegment(0.0, math.inf, (0.0,)),))

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_to

    def sample(self, h: float, n: int) -> np.ndarray:
        """Evaluate at t_i = i*h for i = 0..n-1."""
        t = np.arange(n) * float(h)
        end = self.t_end
        if not math.isinf(end) and t[-1] > end + _BOUNDARY_SLACK * h:
            raise ValueError(
                f"grid extends to t = {t[-1]:g} beyond the forcing coverage"
                f" ending at {end:g}"
            )
        froms = np.array([s.t_from for s in self.segments])
        idx = np.searchsorted(froms, t + _BOUNDARY_SLACK * h, side="right") - 1
        out = np.empty(n, dtype=np.float64)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if mask.any():
                out[mask] = npoly.polyval(t[mask], seg.coefficients)
        return out


@dataclass(frozen=True)
class PowerSumForcing:
    """Forcing of the form sum_k c_k t^(e_k) with real exponents e_k >= 0.

    Fractional powers of t fall outside polynomial segments, so forcing
    synthesized for manufactured solutions is carried in this exact
    closed form and evaluated directly at whatever grid is requested.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(c), float(e)) for c, e in self.terms)
        for c, e in terms:
            if not math.isfinite(c) or not math.isfinite(e) or e < 0.0:
                raise ValueError("power-sum terms need finite c and e >= 0")
        object.__setattr__(self, "terms", terms)

    def sample(self, h: float, n: int) -> np.ndarray:
        t = np.arange(n) * float(h)
        out = np.zeros(n, dtype=np.float64)
        for c, e in self.terms:
            out += c * t ** e if e != 0.0 else c
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """Full initial-value problem statement.

    The lower terminal of every fractional operator is t = 0.  The
    initial conditions are the integer derivatives y^(k)(0) for
    k = 0..m1-1 where m1 is the integer order of the leading term.
    """

    terms: tuple
    nonlinearity: Polynomial = Polynomial()
    forcing: object = field(default_factory=PiecewiseForcing.zero)
    initial_conditions: tuple = ()

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("problem needs at least one term")
        if any(not isinstance(tm, FracTerm) for tm in terms):
            terms = tuple(
                tm if isinstance(tm, FracTerm) else FracTerm(*tm)
                for tm in terms
            )
        orders = [tm.order for tm in terms]
        if any(b >= a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly decreasing")
        if terms[0].coefficient == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        ics = tuple(float(v) for v in self.initial_conditions)
        if any(not math.isfinite(v) for v in ics):
            raise ValueError("initial conditions must be finite")
        m1 = integer_order(terms[0].order)
        if len(ics) != m1:
            raise ValueError(
                f"need exactly {m1} initial conditions for leading order"
                f" {terms[0].order:g}, got {len(ics)}"
            )
        if not hasattr(self.forcing, "sample"):
            raise ValueError("forcing must provide sample(h, n)")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "initial_conditions", ics)

    @property
    def leading_order(self) -> float:
        return self.terms[0].order


@dataclass(frozen=True)
class RhsLink:
    """Right-hand-side coupling a * D^order applied to z1."""

    coefficient: float
    order: float


@dataclass(frozen=True)
class WLink:
    """One folded term of the combined series: ratio * I^order applied
    to z1 (order = alpha1 - alpha_j > 0)."""

    ratio: float
    order: float

    def __post_init__(self):
        if not math.isfinite(self.ratio):
            raise ValueError(f"link ratio must be finite, got {self.ratio!r}")
        if not 0.0 < self.order < DEFAULT_ORDER_CAP:
            raise ValueError(f"link order must lie in (0, {DEFAULT_ORDER_CAP}),"
                             f" got {self.order!r}")


@dataclass(frozen=True)
class Babenko:
    """Series inversion truncated after `terms` powers.  The sup norm of
    the last retained term is reported; above TAIL_TOL a
    BabenkoTailWarning is raised because the truncation is then
    meaningful."""

    terms: int = 30

    def __post_init__(self):
        if not float(self.terms).is_integer() or self.terms < 1:
            raise ValueError(f"series inversion needs a whole number of"
                             f" terms, at least 1, got {self.terms!r}")
        object.__setattr__(self, "terms", int(self.terms))


@dataclass(frozen=True)
class DirectVolterra:
    """Direct inversion of the discrete relation, a triangular system
    (exact at the quadrature level); the stepper solves it a leaf of
    nodes at a time."""


@dataclass(frozen=True)
class DecomposedSystem:
    """Everything the stepper needs: the integer order m1 and leading
    coefficient a1 of the evolved equation, the couplings back onto z1,
    the reconstruction order nu, and the inversion strategy."""

    m1: int
    a1: float
    nu: float
    rhs_links: tuple
    w_links: tuple
    initial_conditions: tuple
    inversion: object


def build_system(problem: ProblemSpec, inversion=None) -> DecomposedSystem:
    """Reduce a problem to its integer-order form.

    The leading run of r terms whose integer order equals m1 folds into
    the combined series: terms 2..r become WLinks, and every later term
    couples through the right-hand side as an RhsLink.  In the paper's
    words a single term is one-term, a run of r >= 2 is dependent, and
    several terms with r = 1 are independent; r = 1 folds nothing.

    Raises UnsupportedProblemError for shapes the reduction cannot
    express: a term of order zero (the plain-y contribution belongs in
    the nonlinearity, where it sees the full reconstructed solution),
    or a series inversion request with more than one folded term (the
    expansion implemented covers exactly two shared leading orders; the
    direct inverter has no such limit).
    """
    if inversion is None:
        inversion = DirectVolterra()
    if not isinstance(inversion, (Babenko, DirectVolterra)):
        raise ValueError(
            f"inversion must be Babenko or DirectVolterra, got {inversion!r}")
    if problem.terms[-1].order == 0.0:
        raise UnsupportedProblemError(
            "a term of order zero is outside the reduction; put the"
            " plain-y contribution in the nonlinearity instead"
        )
    lead = problem.terms[0]
    m1 = integer_order(lead.order)
    nu = float(m1) - lead.order
    # Orders strictly decrease, so the terms sharing m1 are a leading run.
    r = sum(integer_order(tm.order) == m1 for tm in problem.terms)
    w_links = tuple(
        WLink(tm.coefficient / lead.coefficient, lead.order - tm.order)
        for tm in problem.terms[1:r]
    )
    rhs_links = tuple(
        RhsLink(tm.coefficient, nu + tm.order) for tm in problem.terms[r:]
    )
    if isinstance(inversion, Babenko) and len(w_links) > 1:
        raise UnsupportedProblemError(
            "series inversion handles exactly two shared leading orders;"
            " use the direct inverter for more"
        )
    return DecomposedSystem(
        m1=m1,
        a1=lead.coefficient,
        nu=nu,
        rhs_links=rhs_links,
        w_links=w_links,
        initial_conditions=problem.initial_conditions,
        inversion=inversion,
    )


@dataclass(frozen=True, eq=False)
class BabenkoResult:
    """Series inversion output plus the sup norm of the last term kept."""

    series: SampleSeries
    tail_norm: float


def _babenko_bound(ratio: float, delta: float, t_end: float,
                   terms: int) -> float:
    """A-priori factor (|ratio| T^delta)^K / Gamma(1 + K delta): the last
    retained series term on [0, T] is at most this times sup |w|."""
    if ratio == 0.0:
        return 0.0
    log_f = (terms * (math.log(abs(ratio)) + delta * math.log(t_end))
             - math.lgamma(1.0 + terms * delta))
    return math.exp(log_f) if log_f < 709.0 else math.inf


# Below ln of half the least subnormal double (-745.1): exp rounds to 0.
_LOG_UNDERFLOW = -750.0
# A subnormal coefficient down to 2^-1030 keeps 44 bits or more: no
# fewer than an entry taken in logs, whose exp argument near -708 costs
# it about 700 eps.
_LEAST_COEFFICIENT = math.ldexp(1.0, -1030)


def _babenko_kernels(ratio: float, delta: float, h: float, terms: int,
                     n: int) -> tuple:
    """Fold the series powers k = 1..terms, which are linear in w, into
    one quadrature in the operators' node form (pref, centre, boundary,
    lag), and return it and the k = terms power alone, the truncation
    diagnostic, for an n-sample grid.  Entries are summed over k in a
    fixed order and do not depend on n: prefixes stay bitwise equal.

    A power's table (j+1)^(k delta) - (j-1)^(k delta) may overflow, and
    its coefficient c = (-ratio)^k h^(k delta) / (2 Gamma(1 + k delta))
    underflow, while their product is still in double range.  Such
    entries are taken as two factors in double range, or from ln|c| in
    logs where c is below _LEAST_COEFFICIENT (see _scaled_weights).  A
    weight on the grid that still exceeds double range raises
    OverflowError.  The fold ends early at the first power whose
    weights, at most |c| m^(k delta) for tables of length m, all
    underflow to 0.  The log of that bound is concave in k (ln Gamma is
    convex), and below -750 it is already falling (its first step is at
    most its first value plus ln(2 + 4 delta)), so no later power adds
    anything.  The diagnostic is then the zero quadrature."""
    m = _table_length(n)
    centre, boundary, lag = 0.0, np.zeros(m), np.zeros(m)
    power = 1.0
    log_ratio = math.log(abs(ratio)) if ratio else -math.inf
    log_h, log_m = math.log(h), math.log(m)
    for k in range(1, terms + 1):
        order = k * delta
        power *= -ratio
        log_c = (k * log_ratio + order * log_h - math.lgamma(1.0 + order)
                 - math.log(2.0))
        if log_c + order * log_m < _LOG_UNDERFLOW:
            last = (0.0, np.zeros(m), np.zeros(m))
            break
        try:
            c = power * _integral_pref(h, order)
        except OverflowError:  # h^order or Gamma(1 + order)
            c = 0.0
        if not _LEAST_COEFFICIENT <= abs(c) < math.inf:
            c = math.copysign(0.0, power)  # the weights come from log_c
        b, wts = _scaled_weights(c, log_c, order, m)
        centre += c
        with np.errstate(over="ignore", invalid="ignore"):
            boundary += b
            lag += wts
        last = (c, b, wts)
    if not (np.isfinite(boundary[:n]).all() and np.isfinite(lag[:n]).all()):
        raise OverflowError("series inversion weights exceed double range"
                            " on this grid")
    return _quadrature(1.0, centre, boundary, lag), _quadrature(1.0, *last)


def babenko_invert(w: SampleSeries, ratio: float, delta: float,
                   terms: int = 30) -> BabenkoResult:
    """Recover z1 from w = (1 + ratio * I^delta) z1 by the operator
    binomial series

        z1 = sum_{k=0..terms} (-ratio)^k I^(k*delta) w,

    each power applied as a single integral of order k*delta, all of them
    folded into one quadrature.  The series converges like
    (|ratio| t^delta)^k / Gamma(k delta + 1), so for a fixed truncation it
    is only trustworthy while |ratio| t^delta stays moderate; the sup norm
    of the k = terms term, nan passed over, is returned as the truncation
    diagnostic and additionally raises BabenkoTailWarning when it exceeds
    TAIL_TOL.  terms is checked as Babenko checks it; weights beyond
    double range on the grid raise OverflowError.
    """
    ratio = float(ratio)
    delta = float(delta)
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio!r}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    bab = Babenko(terms)
    if ratio == 0.0:
        return BabenkoResult(w, 0.0)
    fold, last = _babenko_kernels(ratio, delta, w.h, bab.terms, len(w))
    v = w.values
    z1 = v + _series(fold, v)
    tail_norm = _tail_norm(last, v)
    return BabenkoResult(SampleSeries(w.h, z1), tail_norm)


def _tail_norm(last, values: np.ndarray) -> float:
    """Sup norm of the last retained power over the series values (0 at
    node 0, nan passed over), and a warning to the caller of
    babenko_invert or solve when it exceeds TAIL_TOL."""
    with np.errstate(over="ignore", invalid="ignore"):
        tail = float(np.nanmax(np.abs(_series(last, values))))
    if tail > TAIL_TOL:
        warnings.warn(
            f"series inversion truncated while its last term still has"
            f" sup norm {tail:.3g}; the result is unreliable on this"
            f" horizon",
            BabenkoTailWarning,
            stacklevel=3,
        )
    return tail


def _guard_pivot(pivot: float, scale: float, message: str) -> float:
    """The pivot of a direct inversion, or SingularInversionError with the
    given message when it vanishes against the scale of its parts."""
    if abs(pivot) < 1e-14 * scale:
        raise SingularInversionError(message)
    return pivot


def _direct_inverter(h: float, w_links, n: int):
    """The direct inversion of the discrete relation
    w = z1 + sum_j ratio_j I^(delta_j) z1 on an n-sample grid with step
    h: z1_i = (w_i - sum_j ratio_j link_j(z1, i)) / pivot.

    Each link is the operators' integral quadrature with the unknown
    current sample set to 0, so z1 is read at nodes 0..i-1 only; the
    current sample's weights make the pivot 1 + sum_j ratio_j pref_j
    centre_j.  Without links the pivot is 1 and z1_i = w_i exactly.
    A vanishing pivot raises SingularInversionError here, before any
    node is inverted.  Returns the links as (ratio, quadrature) pairs
    and the pivot, which the stepper's leaf map and
    volterra_direct_invert read.
    """
    m = _table_length(n)
    quads = [(l.ratio, _kernel_quad(-l.order, h, m)) for l in w_links]
    parts = [r * q.pref * q.centre for r, q in quads]
    pivot = _guard_pivot(sum(parts, 1.0), sum(map(abs, parts), 1.0),
                         "inversion pivot vanished for this step and coupling")
    return quads, pivot


def volterra_direct_invert(w: SampleSeries, w_links, i: int,
                           z1_history: SampleSeries) -> float:
    """Recover z1 at node i from w = z1 + sum_j ratio_j I^(delta_j) z1,
    given z1 at nodes 0..i-1 (a longer history is fine: its samples
    from node i on are never read).

    The quadrature puts weight h^delta / (2 Gamma(1+delta)) on the
    current node, so the relation is a triangular system whose pivot is
    1 + sum_j ratio_j h^(delta_j) / (2 Gamma(1+delta_j)); the node value
    follows by one division.  Node 0 is 0 by construction.  A vanishing
    pivot raises SingularInversionError.

    One call is the whole-series pass of each link over nodes 0..i,
    work of order i log^2 i; solve's direct inversion serves every node
    a leaf at a time and transforms each block once.
    """
    i = _check_node(w, i)
    if i == 0:
        return 0.0
    if len(z1_history) < i:
        raise ValueError("z1 history must cover nodes 0..i-1")
    if z1_history.h != w.h:
        raise ValueError("series must share the same step")
    quads, pivot = _direct_inverter(w.h, w_links, len(w))
    # The unknown current sample enters as 0; the pivot carries its
    # weights.
    hist = np.append(z1_history.values[:i], 0.0)
    acc = 0.0
    for r, q in quads:
        acc += r * _series(q, hist).item(i)
    return (w.values.item(i) - acc) / pivot
