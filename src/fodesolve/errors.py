"""Exception and warning types shared across the package, and the
order cap.

They live apart from the modules that raise them so that a caller can
catch any of them, as the command line does, without importing the
numerical code behind it.  That includes ParseError, the problem-file
syntax error, which fodesolve.problemfile raises and re-exports.
DEFAULT_ORDER_CAP lives here for the same reason: the problem types
and the operators both check orders against it, and neither module
loads the other.
"""

# Orders beyond this are almost certainly misparsed input, not physics.
# Terms, links and operators all share it.
DEFAULT_ORDER_CAP = 10.0


class SingularOriginError(ValueError):
    """Fractional derivative requested at the first node of a series that
    does not vanish there, where the quadrature's boundary term diverges."""


class NonzeroOriginError(ValueError):
    """A binomial-weight derivative was applied to a series whose first
    sample is nonzero.  The scheme is only equivalent to the integral
    definition when the series starts at zero."""


class SingularInversionError(ArithmeticError):
    """The pivot of the direct Abel inversion vanished, so no node value
    can be recovered."""


class UnsupportedProblemError(ValueError):
    """The problem falls outside what the requested routine can handle."""


class BabenkoTailWarning(RuntimeWarning):
    """The last retained term of the truncated inversion series is still
    large, so the returned series is likely inaccurate."""


class ParseError(ValueError):
    """Problem-file error carrying its 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, col {column}: {message}")
