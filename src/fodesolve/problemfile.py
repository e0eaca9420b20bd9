"""Plain-text problem files.

One directive per line, `#` starts a comment, blank lines are ignored:

    term <coefficient> <order>          one fractional term (orders must
                                        appear strictly decreasing)
    nonlinear <power> <coefficient>     adds coefficient * y^power
    forcing <t_from> <t_to|inf> <c0> [c1 ...]
                                        polynomial forcing on [t_from, t_to)
    init <k> <value>                    y^(k)(0); every k = 0..m1-1 must
                                        appear exactly once

A file with no forcing lines gets zero forcing on [0, inf).  Errors are
reported with 1-based line and column numbers.
"""

from __future__ import annotations

import math
import re

from .decompose import (
    ForcingSegment,
    FracTerm,
    PiecewiseForcing,
    Polynomial,
    ProblemSpec,
    integer_order,
)
from .errors import ParseError

__all__ = ["ParseError", "parse_problem", "format_problem"]

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


def _fmt(v: float) -> str:
    """17 significant digits: parsing the text gives back the same float."""
    return format(float(v), ".17g")


def format_problem(problem: ProblemSpec) -> str:
    """Render a ProblemSpec back to file text; parsing the output yields
    an equal ProblemSpec.  Only piecewise-polynomial forcing is
    representable in the file grammar."""
    if not isinstance(problem.forcing, PiecewiseForcing):
        raise ValueError(
            "only piecewise-polynomial forcing can be written to a file")
    lines = []
    for tm in problem.terms:
        lines.append(f"term {_fmt(tm.coefficient)} {_fmt(tm.order)}")
    for c, p in problem.nonlinearity.monomials():
        lines.append(f"nonlinear {p} {_fmt(c)}")
    for seg in problem.forcing.segments:
        coeffs = " ".join(_fmt(c) for c in seg.coefficients)
        lines.append(f"forcing {_fmt(seg.t_from)} {_fmt(seg.t_to)} {coeffs}")
    for k, v in enumerate(problem.initial_conditions):
        lines.append(f"init {k} {_fmt(v)}")
    return "\n".join(lines) + "\n"
