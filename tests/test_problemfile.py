import copy
import math
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from fodesolve.decompose import (
    ForcingSegment,
    FracTerm,
    PiecewiseForcing,
    Polynomial,
    PowerSumForcing,
    ProblemSpec,
)
from fodesolve.problemfile import (
    ParseError,
    _horner,
    parse_problem,
)

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "problems")
                 .glob("*.fode"))

BENCHMARK_TEXT = """\
# damped plate, half-order damping
term 1 2
term 0.5 1.5
nonlinear 1 0.5
forcing 0 1 8
forcing 1 inf 0
init 0 0
init 1 0
"""


class TestParsing:
    def test_benchmark_file_exact(self):
        p = parse_problem(BENCHMARK_TEXT)
        assert p.terms == (FracTerm(1.0, 2.0), FracTerm(0.5, 1.5))
        assert p.nonlinearity == Polynomial((0.0, 0.5))
        assert p.forcing.segments == (
            ForcingSegment(0.0, 1.0, (8.0,)),
            ForcingSegment(1.0, math.inf, (0.0,)),
        )
        assert p.initial_conditions == (0.0, 0.0)

    def test_comments_blanks_and_inline_comments(self):
        text = """
        # full-line comment

        term 1 0.5   # trailing comment
        init 0 0
        """
        p = parse_problem(text)
        assert p.terms == (FracTerm(1.0, 0.5),)

    def test_no_forcing_lines_means_zero_forcing(self):
        p = parse_problem("term 1 0.5\ninit 0 0\n")
        assert np.array_equal(p.forcing.sample(0.5, 4), np.zeros(4))

    def test_scientific_notation_and_negatives(self):
        p = parse_problem(
            "term -2.5e-1 1.5\nterm 1e0 0.5\ninit 0 -1\ninit 1 3.5\n")
        assert p.terms[0] == FracTerm(-0.25, 1.5)
        assert p.initial_conditions == (-1.0, 3.5)

    def test_polynomial_forcing_segment(self):
        p = parse_problem(
            "term 1 0.5\nforcing 0 inf 1 0 2\ninit 0 0\n")
        # segment coefficients ascend in power: 1 + 2 t^2
        assert p.forcing.sample(2.0, 2)[1] == 1.0 + 2.0 * 4.0

    def test_nonlinear_lines_accumulate_per_power(self):
        p = parse_problem(
            "term 1 0.5\nnonlinear 2 1.5\nnonlinear 2 0.5\ninit 0 0\n")
        assert p.nonlinearity == Polynomial((0.0, 0.0, 2.0))

    def test_inf_only_valid_for_t_to(self):
        with pytest.raises(ParseError):
            parse_problem("term 1 0.5\nforcing inf inf 1\ninit 0 0\n")
        with pytest.raises(ParseError):
            parse_problem("term inf 0.5\ninit 0 0\n")


def _err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    return info.value


class TestDiagnostics:
    def test_unknown_directive_position(self):
        err = _err("term 1 0.5\nbogus 1 2\ninit 0 0\n")
        assert err.line == 2 and err.column == 1
        assert "bogus" in str(err)
        assert str(err).startswith("line 2, col 1")

    def test_bad_number(self):
        err = _err("term one 0.5\ninit 0 0\n")
        assert err.line == 1
        assert "coefficient" in str(err)

    def test_missing_fields(self):
        assert "term needs" in str(_err("term 1\n"))
        assert "init needs" in str(_err("term 1 0.5\ninit 0\n"))
        assert "forcing needs" in str(
            _err("term 1 0.5\nforcing 0 1\ninit 0 0\n"))
        assert "nonlinear needs" in str(
            _err("term 1 0.5\nnonlinear 1\ninit 0 0\n"))

    def test_no_terms(self):
        err = _err("init 0 0\n")
        assert err.line == 1 and "no terms" in str(err)

    def test_orders_must_decrease_points_at_offender(self):
        err = _err("term 1 0.5\nterm 1 1.5\ninit 0 0\n")
        assert err.line == 2 and "decreasing" in str(err)

    def test_zero_leading_coefficient(self):
        err = _err("term 0 1.5\ninit 0 0\ninit 1 0\n")
        assert "leading coefficient" in str(err)

    def test_forcing_must_start_at_zero(self):
        err = _err("term 1 0.5\nforcing 1 2 1\ninit 0 0\n")
        assert err.line == 2 and "start at t = 0" in str(err)

    def test_forcing_gaps_rejected(self):
        err = _err(
            "term 1 0.5\nforcing 0 1 1\nforcing 2 3 1\ninit 0 0\n")
        assert err.line == 3 and "contiguous" in str(err)

    def test_forcing_window_must_be_ordered(self):
        err = _err("term 1 0.5\nforcing 0 0 1\ninit 0 0\n")
        assert "t_to must exceed" in str(err)

    def test_duplicate_init(self):
        err = _err("term 1 0.5\ninit 0 0\ninit 0 1\n")
        assert "duplicate" in str(err)

    def test_init_out_of_range(self):
        err = _err("term 1 0.5\ninit 0 0\ninit 1 0\n")
        assert "out of range" in str(err)

    @pytest.mark.parametrize("inits", [12, 1])
    def test_order_past_the_cap_points_at_the_order(self, inits):
        # reported before the inits are counted
        text = "term 1 12\n" + "".join(f"init {k} 0\n" for k in range(inits))
        err = _err(text)
        assert (err.line, err.column) == (1, 8)
        assert "exceeds the supported cap" in str(err)

    def test_init_out_of_range_points_at_its_index(self):
        err = _err("term 1 0.5\n# comment\n\ninit 0 0\ninit 3 0\n")
        assert (err.line, err.column) == (5, 6)
        assert "init 3 is out of range" in str(err)

    def test_missing_init(self):
        err = _err("term 1 1.5\ninit 0 0\n")
        assert "missing init" in str(err)

    def test_missing_init_points_at_the_leading_order(self):
        err = _err("# plate\n\nterm 1 1.5\ninit 0 0\n")
        assert (err.line, err.column) == (3, 8)
        assert "missing init for derivative(s) [1]" in str(err)

    def test_fractional_init_index(self):
        err = _err("term 1 0.5\ninit 0.5 0\n")
        assert "integer" in str(err)

    def test_negative_order(self):
        err = _err("term 1 -0.5\ninit 0 0\n")
        assert "nonnegative" in str(err)

    def test_power_past_the_cap_points_at_the_power(self):
        # Refused at once: the polynomial keeps one coefficient per power,
        # so a power of 1e12 would ask for a tuple of 1e12 floats.
        start = time.perf_counter()
        err = _err("term 1 0.5\nnonlinear 1000000000000 1\ninit 0 0\n")
        assert time.perf_counter() - start < 1.0
        assert (err.line, err.column) == (2, 11)
        assert "power must be at most 1024" in str(err)
        assert "power must be at most" in str(
            _err("term 1 0.5\nnonlinear 1025 1\ninit 0 0\n"))
        top = parse_problem("term 1 0.5\nnonlinear 1024 1\ninit 0 0\n")
        assert top.nonlinearity.monomials() == ((1.0, 1024),)

    @pytest.mark.parametrize("line,reason", [
        ("nonlinear -1 2", "power must be nonnegative"),
        ("forcing -1 1 2", "t_from must be nonnegative"),
        ("init -1 0", "derivative index must be nonnegative")])
    def test_negative_power_start_or_index(self, line, reason):
        err = _err(f"term 1 0.5\n{line}\ninit 0 0\n")
        assert err.line == 2 and err.column == len(line.split()[0]) + 2
        assert reason in str(err)


# Each problem type with the keyword arguments of one instance.
RECORDS = [
    (FracTerm, {"coefficient": 0.5, "order": 1.5}),
    (Polynomial, {"coefficients": (0.0, 0.5)}),
    (ForcingSegment, {"t_from": 0.0, "t_to": 1.0, "coefficients": (8.0,)}),
    (PiecewiseForcing, {"segments": (
        ForcingSegment(0.0, 1.0, (8.0,)),
        ForcingSegment(1.0, math.inf, (0.0,)))}),
    (PowerSumForcing, {"terms": ((2.0, 1.5), (1.0, 0.0))}),
    (ProblemSpec, {"terms": (FracTerm(1.0, 2.0), FracTerm(0.5, 1.5)),
                   "nonlinearity": Polynomial((0.0, 0.5)),
                   "forcing": PiecewiseForcing.zero(),
                   "initial_conditions": (0.0, 0.0)}),
]
EACH_TYPE = pytest.mark.parametrize("cls,kwargs", RECORDS,
                                    ids=[cls.__name__ for cls, _ in RECORDS])


class TestTypes:
    """The six problem types are immutable namedtuples, validated when
    built, by _replace, and when pickled or copied."""

    @EACH_TYPE
    def test_keyword_construction(self, cls, kwargs):
        rec = cls(**kwargs)
        assert rec._fields == tuple(kwargs)
        assert rec == cls(*kwargs.values())
        assert all(getattr(rec, name) == v for name, v in kwargs.items())

    @EACH_TYPE
    def test_assignment_raises(self, cls, kwargs):
        rec = cls(**kwargs)
        for name, value in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
        with pytest.raises(AttributeError):
            rec.extra = 1

    @EACH_TYPE
    def test_pickle_and_deepcopy_round_trip(self, cls, kwargs):
        rec = cls(**kwargs)
        copies = [pickle.loads(pickle.dumps(rec, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies.append(copy.deepcopy(rec))
        for back in copies:
            assert back == rec and type(back) is cls
            assert hash(back) == hash(rec)

    def test_replace_validates(self):
        spec = parse_problem(BENCHMARK_TEXT)
        with pytest.raises(ValueError, match="at least one term"):
            spec._replace(terms=())
        zero = spec._replace(terms=((1.0, 2.0), (0.0, 1.5)))
        assert zero.terms == (FracTerm(1.0, 2.0), FracTerm(0.0, 1.5))
        assert all(type(tm) is FracTerm for tm in zero.terms)
        assert zero.forcing == spec.forcing
        with pytest.raises(ValueError, match="nonnegative"):
            FracTerm(1.0, 2.0)._replace(order=-1.0)
        with pytest.raises(ValueError, match="unexpected field"):
            spec._replace(order=2.0)
        # normalised as on construction: trailing zeros are stripped
        assert (Polynomial((1.0,))._replace(coefficients=(2, 0))
                == Polynomial((2.0,)))

    def test_forcing_defaults_to_zero(self):
        spec = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))
        assert spec.forcing == PiecewiseForcing.zero()
        assert spec.nonlinearity == Polynomial()
        with pytest.raises(ValueError, match="sample"):
            spec._replace(forcing=(1.0,))


def _problem_text(problem):
    """File text for a problem with piecewise-polynomial forcing, every
    number written as its shortest round-trip repr."""
    lines = [f"term {tm.coefficient!r} {tm.order!r}" for tm in problem.terms]
    lines += [f"nonlinear {p} {c!r}"
              for c, p in problem.nonlinearity.monomials()]
    lines += [f"forcing {seg.t_from!r} {seg.t_to!r} "
              + " ".join(map(repr, seg.coefficients))
              for seg in problem.forcing.segments]
    lines += [f"init {k} {v!r}"
              for k, v in enumerate(problem.initial_conditions)]
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    """The parser reads back every number of the text it is given: a
    problem written out with round-trip reprs parses equal."""

    @pytest.mark.parametrize("text", [
        BENCHMARK_TEXT,
        "term 1 0.5\ninit 0 0\n",
        "term -2.5e-1 1.5\nterm 1 0.5\nnonlinear 3 0.125\n"
        "forcing 0 2.5 1 -3 0.0625\nforcing 2.5 inf 0\n"
        "init 0 -1\ninit 1 3.5\n",
    ])
    def test_parse_format_parse_is_identity(self, text):
        p = parse_problem(text)
        assert parse_problem(_problem_text(p)) == p

    def test_seventeen_digit_fidelity(self):
        # a coefficient with no short decimal form survives the trip
        v = math.pi / 7.0
        p = ProblemSpec(terms=((v, 0.5),), initial_conditions=(v,))
        q = parse_problem(_problem_text(p))
        assert q.terms[0].coefficient == v
        assert q.initial_conditions[0] == v


def _polyval_sample(forcing, h, n):
    """PiecewiseForcing.sample with numpy's polyval on each segment."""
    t = np.arange(n) * float(h)
    froms = np.array([s.t_from for s in forcing.segments])
    idx = np.searchsorted(froms, t + 1e-9 * h, side="right") - 1
    out = np.empty(n, dtype=np.float64)
    for k, seg in enumerate(forcing.segments):
        mask = idx == k
        out[mask] = npoly.polyval(t[mask], seg.coefficients)
    return out


class TestForcingSamples:
    """The segments are summed by Horner's rule in polyval's operation
    order, so every sample keeps polyval's bits."""

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    @pytest.mark.parametrize("h", [0.002, 0.01, 0.03, 0.1])
    def test_shipped_problems_keep_polyval_bits(self, path, h):
        forcing = parse_problem(path.read_text()).forcing
        n = int(round(30.0 / h)) + 1
        t = np.arange(n) * h
        for seg in forcing.segments:
            assert (_horner(seg.coefficients, t).tobytes()
                    == npoly.polyval(t, seg.coefficients).tobytes())
        assert (forcing.sample(h, n).tobytes()
                == _polyval_sample(forcing, h, n).tobytes())

    def test_random_coefficients_and_grids_keep_polyval_bits(self):
        rng = np.random.default_rng(20261020)
        for _ in range(300):
            degree = int(rng.integers(0, 9))
            coeffs = tuple(float(c) for c in
                           rng.standard_normal(degree + 1)
                           * 10.0 ** rng.integers(-6, 7, degree + 1))
            n = int(rng.integers(2, 400))
            h = float(10.0 ** rng.uniform(-4, 1))
            t = np.arange(n) * h
            assert (_horner(coeffs, t).tobytes()
                    == npoly.polyval(t, coeffs).tobytes()), (coeffs, h, n)
            cut = float(t[n // 2])
            forcing = PiecewiseForcing((
                ForcingSegment(0.0, cut, coeffs),
                ForcingSegment(cut, math.inf, coeffs[::-1]),
            ))
            assert (forcing.sample(h, n).tobytes()
                    == _polyval_sample(forcing, h, n).tobytes())

    @pytest.mark.parametrize("forcing", [
        PiecewiseForcing((ForcingSegment(0.0, 1.0, (3.0, 2.0)),)),
        PiecewiseForcing.zero(),
        PowerSumForcing(((2.0, 1.5), (1.0, 0.0))),
    ], ids=["finite_piecewise", "zero", "power_sum"])
    def test_empty_grid_gives_an_empty_sample(self, forcing):
        got = forcing.sample(0.5, 0)
        assert got.dtype == np.float64 and got.shape == (0,)
