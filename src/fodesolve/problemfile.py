"""Problem statements and their plain-text form.

A problem is a sum of fractional derivative terms plus a polynomial
nonlinearity, driven by forcing on the grid:

    sum_i  a_i D^(alpha_i) y  +  g(y)  =  f(t),   orders strictly decreasing,

with the integer derivatives y^(k)(0), k = 0..m1-1, as initial
conditions.  The types here are immutable namedtuples, validated when
built and by _replace; only the forcing's sample methods load numpy,
inside the call, so reading a problem file loads neither numpy nor
dataclasses.  fodesolve.decompose reduces a problem to the equations
the stepper runs.

A problem file holds one directive per line; `#` starts a comment and
blank lines are ignored:

    term <coefficient> <order>          one fractional term (orders must
                                        appear strictly decreasing)
    nonlinear <power> <coefficient>     adds coefficient * y^power,
                                        power at most 1024
    forcing <t_from> <t_to|inf> <c0> [c1 ...]
                                        polynomial forcing on [t_from, t_to)
    init <k> <value>                    y^(k)(0); every k = 0..m1-1 must
                                        appear exactly once

A file with no forcing lines gets zero forcing on [0, inf).  Errors are
reported with 1-based line and column numbers.
"""

import math
import re
from collections import namedtuple

from .errors import DEFAULT_ORDER_CAP, ParseError

__all__ = [
    "FracTerm",
    "Polynomial",
    "ForcingSegment",
    "PiecewiseForcing",
    "PowerSumForcing",
    "ProblemSpec",
    "integer_order",
    "ParseError",
    "parse_problem",
]


# Polynomial holds one coefficient per power, and 2.0**1024 overflows
# a double: a file's nonlinear power stops here.
_MAX_POWER = 1024


def integer_order(alpha: float) -> int:
    """Smallest integer m with m >= alpha (an integer order is its own m)."""
    return int(math.ceil(alpha))


def _record(fields: str):
    """A namedtuple base whose _make, and so _replace, builds through
    the subclass's validating __new__."""
    base = namedtuple("Record", fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class FracTerm(_record("coefficient order")):
    """One term a * D^order applied to the unknown."""

    __slots__ = ()

    def __new__(cls, coefficient, order):
        c = float(coefficient)
        a = float(order)
        if not math.isfinite(c):
            raise ValueError("term coefficient must be finite")
        if not math.isfinite(a) or a < 0.0:
            raise ValueError("term order must be finite and nonnegative")
        if a >= DEFAULT_ORDER_CAP:
            raise ValueError(
                f"term order {a!r} exceeds the supported cap {DEFAULT_ORDER_CAP}"
            )
        return super().__new__(cls, c, a)


class Polynomial(_record("coefficients")):
    """Polynomial with coefficients indexed by power: p(y) = sum c_k y^k."""

    __slots__ = ()

    def __new__(cls, coefficients=()):
        coeffs = tuple(float(c) for c in coefficients)
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        # Trailing zero coefficients carry no information; strip them so
        # equal polynomials compare equal.
        while coeffs and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        return super().__new__(cls, coeffs)

    def monomials(self):
        """Nonzero (coefficient, power) pairs, ascending in power."""
        return tuple(
            (c, p) for p, c in enumerate(self.coefficients) if c != 0.0
        )


class ForcingSegment(_record("t_from t_to coefficients")):
    """Polynomial forcing on the half-open window [t_from, t_to)."""

    __slots__ = ()

    def __new__(cls, t_from, t_to, coefficients):
        t0 = float(t_from)
        t1 = float(t_to)
        coeffs = tuple(float(c) for c in coefficients)
        if not math.isfinite(t0) or t0 < 0.0:
            raise ValueError("segment start must be finite and nonnegative")
        if math.isnan(t1) or t1 <= t0:
            raise ValueError("segment end must exceed its start")
        if not coeffs or any(not math.isfinite(c) for c in coeffs):
            raise ValueError("segment needs at least one finite coefficient")
        return super().__new__(cls, t0, t1, coeffs)


# Nodes this close to a segment boundary (relative to the step) are taken
# to sit on the boundary, so grids whose node times carry float rounding
# still pick the intended segment.
_BOUNDARY_SLACK = 1e-9


def _horner(coefficients: tuple, t):
    """sum_k c_k t^k at the samples t, in the operation order of
    numpy.polynomial.polynomial.polyval, so the bits match it."""
    out = coefficients[-1] + t * 0
    for c in coefficients[-2::-1]:
        out = c + out * t
    return out


class PiecewiseForcing(_record("segments")):
    """Forcing assembled from contiguous polynomial segments starting at 0.

    The forcing is evaluated on the grid only, through sample(h, n).
    Each node t is evaluated on the segment with t_from <= t < t_to; a
    node exactly on a boundary, or less than 1e-9*h below it, belongs
    to the segment that starts there (with h = 0.03, node 11 is
    t = 0.32999999999999996 and takes a segment starting at 0.33).
    """

    __slots__ = ()

    def __new__(cls, segments):
        segs = tuple(segments)
        if not segs:
            raise ValueError("forcing needs at least one segment")
        if segs[0].t_from != 0.0:
            raise ValueError("forcing must start at t = 0")
        for a, b in zip(segs, segs[1:]):
            if b.t_from != a.t_to:
                raise ValueError(
                    "forcing segments must be contiguous and ordered"
                )
        return super().__new__(cls, segs)

    @classmethod
    def zero(cls) -> "PiecewiseForcing":
        return cls((ForcingSegment(0.0, math.inf, (0.0,)),))

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_to

    def sample(self, h: float, n: int):
        """Evaluate at t_i = i*h for i = 0..n-1, as a float64 array."""
        import numpy as np

        t = np.arange(n) * float(h)
        end = self.t_end
        if n and not math.isinf(end) and t[-1] > end + _BOUNDARY_SLACK * h:
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
                out[mask] = _horner(seg.coefficients, t[mask])
        return out


class PowerSumForcing(_record("terms")):
    """Forcing of the form sum_k c_k t^(e_k) with real exponents e_k >= 0.

    Fractional powers of t fall outside polynomial segments, so forcing
    synthesized for manufactured solutions is carried in this exact
    closed form and evaluated directly at whatever grid is requested.
    """

    __slots__ = ()

    def __new__(cls, terms):
        terms = tuple((float(c), float(e)) for c, e in terms)
        for c, e in terms:
            if not math.isfinite(c) or not math.isfinite(e) or e < 0.0:
                raise ValueError("power-sum terms need finite c and e >= 0")
        return super().__new__(cls, terms)

    def sample(self, h: float, n: int):
        import numpy as np

        t = np.arange(n) * float(h)
        out = np.zeros(n, dtype=np.float64)
        for c, e in self.terms:
            out += c * t ** e if e != 0.0 else c
        return out


class ProblemSpec(_record("terms nonlinearity forcing initial_conditions")):
    """Full initial-value problem statement.

    The lower terminal of every fractional operator is t = 0.  The
    initial conditions are the integer derivatives y^(k)(0) for
    k = 0..m1-1 where m1 is the integer order of the leading term.
    With no forcing given, the forcing is zero on [0, inf).
    """

    __slots__ = ()

    def __new__(cls, terms, nonlinearity=Polynomial(), forcing=None,
                initial_conditions=()):
        forcing = PiecewiseForcing.zero() if forcing is None else forcing
        terms = tuple(tm if isinstance(tm, FracTerm) else FracTerm(*tm)
                      for tm in terms)
        if not terms:
            raise ValueError("problem needs at least one term")
        orders = [tm.order for tm in terms]
        if any(b >= a for a, b in zip(orders, orders[1:])):
            raise ValueError("orders must be strictly decreasing")
        if terms[0].coefficient == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        ics = tuple(float(v) for v in initial_conditions)
        if any(not math.isfinite(v) for v in ics):
            raise ValueError("initial conditions must be finite")
        m1 = integer_order(terms[0].order)
        if len(ics) != m1:
            raise ValueError(
                f"need exactly {m1} initial conditions for leading order"
                f" {terms[0].order:g}, got {len(ics)}"
            )
        if not hasattr(forcing, "sample"):
            raise ValueError("forcing must provide sample(h, n)")
        return super().__new__(cls, terms, nonlinearity, forcing, ics)

    @property
    def leading_order(self) -> float:
        return self.terms[0].order


_TOKEN = re.compile(r"\S+")


def _tokens(line: str):
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _number(tokcol, lineno: int, what: str) -> float:
    tok, col = tokcol
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(lineno, col, f"expected a number for {what},"
                                      f" got {tok!r}") from None
    if not math.isfinite(v):
        raise ParseError(lineno, col, f"{what} must be finite, got {tok!r}")
    return v


def _integer(tokcol, lineno: int, what: str) -> int:
    tok, col = tokcol
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError(lineno, col, f"expected an integer for {what},"
                                      f" got {tok!r}") from None


def parse_problem(text: str) -> ProblemSpec:
    """Parse problem-file text into a validated ProblemSpec."""
    terms = []
    term_lines = []
    nonlinear = {}
    segments = []
    segment_lines = []
    inits = {}
    init_lines = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _tokens(line)
        if not toks:
            continue
        word, col = toks[0]
        args = toks[1:]

        if word == "term":
            if len(args) != 2:
                raise ParseError(lineno, col,
                                 "term needs <coefficient> <order>")
            coef = _number(args[0], lineno, "coefficient")
            order = _number(args[1], lineno, "order")
            try:
                terms.append(FracTerm(coef, order))
            except ValueError as exc:
                raise ParseError(lineno, args[1][1], str(exc)) from None
            term_lines.append((lineno, args[1][1]))

        elif word == "nonlinear":
            if len(args) != 2:
                raise ParseError(lineno, col,
                                 "nonlinear needs <power> <coefficient>")
            power = _integer(args[0], lineno, "power")
            if power < 0:
                raise ParseError(lineno, args[0][1],
                                 "power must be nonnegative")
            if power > _MAX_POWER:
                raise ParseError(lineno, args[0][1],
                                 f"power must be at most {_MAX_POWER}")
            coef = _number(args[1], lineno, "coefficient")
            nonlinear[power] = nonlinear.get(power, 0.0) + coef

        elif word == "forcing":
            if len(args) < 3:
                raise ParseError(
                    lineno, col,
                    "forcing needs <t_from> <t_to|inf> <c0> [c1 ...]")
            t_from = _number(args[0], lineno, "t_from")
            tok_to, col_to = args[1]
            t_to = math.inf if tok_to == "inf" else _number(
                args[1], lineno, "t_to")
            coeffs = tuple(
                _number(tc, lineno, "forcing coefficient")
                for tc in args[2:]
            )
            if t_from < 0.0:
                raise ParseError(lineno, args[0][1],
                                 "t_from must be nonnegative")
            if t_to <= t_from:
                raise ParseError(lineno, col_to,
                                 "t_to must exceed t_from")
            segments.append((t_from, t_to, coeffs))
            segment_lines.append((lineno, args[0][1]))

        elif word == "init":
            if len(args) != 2:
                raise ParseError(lineno, col, "init needs <k> <value>")
            k = _integer(args[0], lineno, "derivative index")
            if k < 0:
                raise ParseError(lineno, args[0][1],
                                 "derivative index must be nonnegative")
            value = _number(args[1], lineno, "initial value")
            if k in inits:
                raise ParseError(lineno, args[0][1],
                                 f"duplicate init for derivative {k}")
            inits[k] = value
            init_lines[k] = (lineno, args[0][1])

        else:
            raise ParseError(lineno, col, f"unknown directive {word!r}")

    if not terms:
        raise ParseError(1, 1, "problem defines no terms")

    for idx in range(1, len(terms)):
        if terms[idx].order >= terms[idx - 1].order:
            lineno, col = term_lines[idx]
            raise ParseError(lineno, col,
                             "orders must be strictly decreasing")
    if terms[0].coefficient == 0.0:
        lineno, col = term_lines[0]
        raise ParseError(lineno, col, "leading coefficient must be nonzero")

    if segments:
        if segments[0][0] != 0.0:
            lineno, col = segment_lines[0]
            raise ParseError(lineno, col, "forcing must start at t = 0")
        for idx in range(1, len(segments)):
            if segments[idx][0] != segments[idx - 1][1]:
                lineno, col = segment_lines[idx]
                raise ParseError(
                    lineno, col,
                    "forcing segments must be contiguous and in order")
        forcing = PiecewiseForcing(
            tuple(ForcingSegment(*seg) for seg in segments))
    else:
        forcing = PiecewiseForcing.zero()

    lead = terms[0].order
    m1 = integer_order(lead)
    for k in inits:
        if k >= m1:
            lineno, col = init_lines[k]
            raise ParseError(
                lineno, col,
                f"init {k} is out of range; the leading order"
                f" {lead:g} takes derivatives 0..{m1 - 1}")
    missing = [k for k in range(m1) if k not in inits]
    if missing:
        # The leading order sets how many inits are needed.
        lineno, col = term_lines[0]
        raise ParseError(
            lineno, col,
            f"missing init for derivative(s) {missing};"
            f" the leading order {lead:g} needs all of 0..{m1 - 1}")

    if nonlinear:
        top = max(nonlinear)
        coeffs = tuple(nonlinear.get(k, 0.0) for k in range(top + 1))
    else:
        coeffs = ()

    return ProblemSpec(
        terms=tuple(terms),
        nonlinearity=Polynomial(coeffs),
        forcing=forcing,
        initial_conditions=tuple(inits[k] for k in range(m1)),
    )
