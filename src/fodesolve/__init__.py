"""Solver for initial-value problems of fractional-order ODEs.

The package decomposes a multi-term fractional equation into one
integer-order ODE coupled to inverse Abel-integral relations, steps the
integer part with a semi-implicit Euler scheme (explicit Euler when that
part is first order), and resolves the coupling either by a direct
Volterra update or by a Babenko series.
Discrete Riemann-Liouville quadratures for sampled series live in
:mod:`fodesolve.operators`.
"""

import importlib

# Home module of each public name.  A name is imported from its home on
# first access, so a program (the command line included) loads only the
# modules it uses.
_HOMES = {
    name: module
    for module, names in (
        ("decompose", ("Babenko", "BabenkoResult", "DecomposedSystem",
                       "DirectVolterra", "ForcingSegment", "FracTerm",
                       "PiecewiseForcing", "Polynomial", "PowerSumForcing",
                       "ProblemSpec", "RhsLink", "WLink", "babenko_invert",
                       "build_system", "integer_order",
                       "volterra_direct_invert")),
        ("errors", ("BabenkoTailWarning", "NonzeroOriginError", "ParseError",
                    "SingularInversionError", "SingularOriginError",
                    "UnsupportedProblemError")),
        ("gammafn", ("GAMMA_MAX", "gamma")),
        ("operators", ("SampleSeries", "apply_operator", "frac_derivative01",
                       "frac_derivative_general", "frac_integral",
                       "weight_table")),
        ("oracle", ("ConvergenceRow", "ManufacturedCase", "convergence_study",
                    "gl_direct_solve", "manufacture", "power_rule")),
        ("problemfile", ("format_problem", "parse_problem")),
        ("stepper", ("Diagnostics", "SolverConfig", "Trajectory",
                     "reconstruct_derivatives", "solve")),
        ("verify", ("CheckResult", "run_checks", "run_verify")),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted([*_HOMES, "__version__"])


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
