"""Command-line front end.

Subcommands:

    solve        integrate a problem file and emit a t,y[,...] CSV
    convergence  refinement study over several steps, h,sup_error,order CSV
    apply        run one fractional operator over a t,value CSV
    verify       run the built-in property battery

Exit codes: 0 success, 1 usage, 2 unreadable or invalid input or an
unwritable output file, 3 numerical failure.  CSV values are written
with 17 significant digits, so re-reading and re-emitting a CSV
reproduces it byte for byte.  solve and apply format their columns a
chunk of rows at a time and write each chunk as it is made.

Each subcommand imports the modules it runs inside its own function, so
`apply` never loads the solver and `solve` never loads the cross-check
solver or the verification battery.  solve and convergence check their
flags and read the problem file before they import the solver, and only
the apply helpers import numpy here, so a bad flag or a malformed
problem file is reported without loading numpy.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

from .errors import (
    NonzeroOriginError,
    ParseError,
    SingularInversionError,
    UnsupportedProblemError,
)

__all__ = ["main"]

# Rows formatted per written chunk: neither the full row list nor the
# whole text is ever held.
_CHUNK = 4096


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token as a value rather than a flag only when
        # it looks like -5 or -.5; -inf, -nan, -1e-1 and a list such as
        # -0.1,0.05 must reach the flags' own checks too, as --step=-inf
        # and --steps=-0.1,0.05 do.
        number = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)"
        self._negative_number_matcher = re.compile(
            rf"-{number}(,([-+]?{number})?)*$", re.I)

    # argparse exits with status 2 on bad flags; route everything through
    # one exception so usage problems map to exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _write(path: str | None, chunks) -> None:
    """Write the text chunks to the file at path, or to stdout when path
    is None or "-"; a failed open or write raises _OutputError."""
    try:
        if path is None or path == "-":
            sys.stdout.writelines(chunks)
        else:
            with open(path, "w", newline="") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        raise _OutputError(exc) from None


def _csv_chunks(header: str, cols):
    """The header line, then the rows of the float columns in chunks of
    _CHUNK rows, every value as %.17g."""
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    yield header + "\n"
    for s in range(0, len(cols[0]), _CHUNK):
        yield "".join(map(row.__mod__, zip(
            *[c[s:s + _CHUNK].tolist() for c in cols])))


def _read_problem(path: str):
    from .problemfile import parse_problem

    with open(path) as fh:
        return parse_problem(fh.read())


def _build_parser() -> _Parser:
    parser = _Parser(prog="fodesolve",
                     description="fractional-order ODE solver")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_solve = sub.add_parser("solve", help="integrate a problem file")
    p_solve.add_argument("--problem", required=True, metavar="FILE")
    p_solve.add_argument("--step", type=float, required=True)
    p_solve.add_argument("--t-end", type=float, required=True)
    p_solve.add_argument("--inversion", choices=["babenko", "direct"],
                         default="direct")
    p_solve.add_argument("--babenko-terms", type=int, default=30,
                         metavar="K")
    p_solve.add_argument("--derivatives", action="store_true",
                         help="also emit z1 and derivative columns")
    p_solve.add_argument("--out", metavar="CSV", default=None)

    p_conv = sub.add_parser("convergence", help="refinement study")
    p_conv.add_argument("--problem", required=True, metavar="FILE")
    p_conv.add_argument("--steps", required=True,
                        help="comma-separated list, e.g. 0.01,0.005,0.0025")
    p_conv.add_argument("--t-end", type=float, required=True)
    p_conv.add_argument("--oracle", choices=["gl", "self"], default="self")
    p_conv.add_argument("--inversion", choices=["babenko", "direct"],
                        default="direct")
    p_conv.add_argument("--babenko-terms", type=int, default=30, metavar="K")
    p_conv.add_argument("--out", metavar="CSV", default=None)

    p_apply = sub.add_parser("apply",
                             help="apply one operator to a sampled CSV")
    p_apply.add_argument("--in", dest="infile", required=True, metavar="CSV")
    p_apply.add_argument("--order", type=float, required=True,
                         help="signed order: negative integrates")
    p_apply.add_argument("--out", metavar="CSV", default=None)

    p_verify = sub.add_parser("verify", help="run the property battery")
    p_verify.add_argument("--json", action="store_true")

    return parser


def _check_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"{flag} must be positive and finite")


def _check_inversion(args) -> None:
    if args.inversion == "babenko" and args.babenko_terms < 1:
        raise _UsageError("--babenko-terms must be at least 1")


def _inversion_from(args):
    from .decompose import Babenko, DirectVolterra

    if args.inversion == "babenko":
        return Babenko(terms=args.babenko_terms)
    return DirectVolterra()


def _cmd_solve(args) -> int:
    _check_positive("--step", args.step)
    _check_positive("--t-end", args.t_end)
    _check_inversion(args)
    problem = _read_problem(args.problem)

    import numpy as np

    from .stepper import SolverConfig, solve

    cfg = SolverConfig(h=args.step, t_end=args.t_end,
                       inversion=_inversion_from(args),
                       output_derivatives=args.derivatives)
    # A stopped run is reported once, by the exit-3 line below; other
    # warnings pass, and library callers still get this one.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "run stopped", RuntimeWarning)
        traj = solve(problem, cfg)
    names, cols = ["t", "y"], [traj.y.times, traj.y.values]
    if args.derivatives:
        names.append("z1")
        cols.append(traj.z1.values)
        for k, dser in enumerate(traj.y_derivs or (), start=1):
            names.append(f"dy{k}")
            cols.append(dser.values)
    # A derivative row may overflow before the run stops: the rows
    # before the first non-finite value are written, and its node is
    # reported as the run's stop is.
    bad = ~np.isfinite(cols).all(axis=0)
    stop = int(bad.argmax()) if bad.any() else len(traj.y)
    _write(args.out, _csv_chunks(",".join(names), [c[:stop] for c in cols]))
    node = stop if stop < len(traj.y) else traj.diagnostics.nan_node
    if node is not None:
        sys.stderr.write(
            f"numerical failure at node {node} (t = {node * traj.h:g});"
            " wrote the nodes before it\n"
        )
        return 3
    return 0


def _cmd_convergence(args) -> int:
    try:
        steps = [float(tok) for tok in args.steps.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--steps must be numbers, got {args.steps!r}")
    if len(set(steps)) < 2:
        raise _UsageError("--steps needs at least two distinct values")
    for s in steps:
        _check_positive("--steps", s)
    _check_positive("--t-end", args.t_end)
    _check_inversion(args)
    problem = _read_problem(args.problem)

    from .oracle import convergence_study
    from .problemfile import _fmt

    rows = convergence_study(problem, steps, args.t_end, oracle=args.oracle,
                             inversion=_inversion_from(args))
    lines = ["h,sup_error,observed_order\n"]
    for row in rows:
        order = "" if row.observed_order is None else _fmt(row.observed_order)
        lines.append(f"{_fmt(row.h)},{_fmt(row.sup_error)},{order}\n")
    _write(args.out, lines)
    return 0


def _is_header(line: str) -> bool:
    """True when line's first field is not a number, which makes a
    CSV's first non-blank line a header."""
    try:
        float(line.strip().split(",")[0])
    except ValueError:
        return True
    return False


def _read_csv_pairs(path: str):
    """The first two columns of a CSV file, after any header, as float
    arrays of at least two finite samples each.

    np.loadtxt parses the lines.  When it raises, or finds fewer than
    two rows, the row loop (_read_csv_rows) reads the file again, so a
    rejected input gets the loop's message.  Whitespace-only lines,
    empty fields, '_' in a number and non-ASCII digits take that
    route; empty lines do not."""
    import numpy as np

    rows = None
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
        # A blank first line counts as a header here; a real header
        # after it then fails loadtxt and the loop reads the file.
        body = lines[1:] if _is_header(lines[0]) else lines
        # loadtxt warns on an input with no rows; the loop reports it.
        if any(body):
            rows = np.loadtxt(body, delimiter=",", usecols=(0, 1),
                              comments=None, ndmin=2)
    except ValueError:
        pass  # a decode or parse error: the loop raises its own message
    if rows is None or len(rows) < 2:
        return _read_csv_rows(path)
    return _finite(rows[:, 0].copy(), rows[:, 1].copy())


def _read_csv_rows(path: str):
    """_read_csv_pairs line by line in Python, with its messages."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError("input CSV is empty")
    start = 1 if _is_header(raw[0]) else 0
    t, v = [], []
    for ln in raw[start:]:
        parts = ln.split(",")
        if len(parts) < 2:
            raise ValueError(f"expected two CSV columns, got {ln!r}")
        t.append(float(parts[0]))
        v.append(float(parts[1]))
    if len(t) < 2:
        raise ValueError("need at least two samples")
    return _finite(t, v)


def _finite(t, v):
    """t and v as arrays, once every sample is checked finite."""
    import numpy as np

    t, v = np.asarray(t), np.asarray(v)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("input samples must be finite")
    return t, v


def _cmd_apply(args) -> int:
    import numpy as np

    from .operators import SampleSeries, _signed_order, apply_operator

    try:
        order = _signed_order(args.order)
    except ValueError as exc:
        raise _UsageError(str(exc))
    t, v = _read_csv_pairs(args.infile)
    h = t[1] - t[0]
    if h <= 0:
        raise ValueError("time column must be increasing")
    if abs(t[0]) > 1e-12 * max(1.0, h):
        raise ValueError("time column must start at t = 0")
    gaps = np.diff(t)
    if np.max(np.abs(gaps - h)) > 1e-9 * h:
        raise ValueError("time column must be uniformly spaced")
    # Samples near double range can overflow the sums; the first
    # non-finite node is reported below, not as numpy warnings.  Node 0
    # is 0, or the nan that marks a singular origin, which is kept.
    with np.errstate(over="ignore", invalid="ignore"):
        out = apply_operator(SampleSeries(float(h), v), order).values
    bad = ~np.isfinite(out[1:])
    stop = 1 + int(bad.argmax()) if bad.any() else out.size
    _write(args.out, _csv_chunks("t,value", [t[:stop], out[:stop]]))
    if stop < out.size:
        sys.stderr.write(
            f"numerical failure at node {stop} (t = {t[stop]:g});"
            " wrote the nodes before it\n"
        )
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "verify":
            from .verify import run_verify

            return run_verify(json_output=args.json)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ParseError as exc:
        sys.stderr.write(f"problem file: {exc}\n")
        return 2
    except _OutputError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return 2
    except (UnsupportedProblemError, NonzeroOriginError) as exc:
        sys.stderr.write(f"unsupported input: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except MemoryError as exc:
        # A grid too large to allocate, such as a step of 1e-17 on [0, 1].
        sys.stderr.write(f"invalid input: grid too large: {exc}\n")
        return 2
    except (SingularInversionError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
