import math

import numpy as np
import pytest

from fodesolve.decompose import (
    ForcingSegment,
    FracTerm,
    PiecewiseForcing,
    Polynomial,
    PowerSumForcing,
    ProblemSpec,
)
from fodesolve.problemfile import ParseError, format_problem, parse_problem

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

    @pytest.mark.parametrize("line,reason", [
        ("nonlinear -1 2", "power must be nonnegative"),
        ("forcing -1 1 2", "t_from must be nonnegative"),
        ("init -1 0", "derivative index must be nonnegative")])
    def test_negative_power_start_or_index(self, line, reason):
        err = _err(f"term 1 0.5\n{line}\ninit 0 0\n")
        assert err.line == 2 and err.column == len(line.split()[0]) + 2
        assert reason in str(err)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        BENCHMARK_TEXT,
        "term 1 0.5\ninit 0 0\n",
        "term -2.5e-1 1.5\nterm 1 0.5\nnonlinear 3 0.125\n"
        "forcing 0 2.5 1 -3 0.0625\nforcing 2.5 inf 0\n"
        "init 0 -1\ninit 1 3.5\n",
    ])
    def test_parse_format_parse_is_identity(self, text):
        p = parse_problem(text)
        assert parse_problem(format_problem(p)) == p

    def test_seventeen_digit_fidelity(self):
        # a coefficient with no short decimal form survives the trip
        v = math.pi / 7.0
        p = ProblemSpec(terms=((v, 0.5),), initial_conditions=(v,))
        q = parse_problem(format_problem(p))
        assert q.terms[0].coefficient == v
        assert q.initial_conditions[0] == v

    def test_non_polynomial_forcing_not_representable(self):
        p = ProblemSpec(terms=((1.0, 0.5),),
                        forcing=PowerSumForcing(((1.0, 1.5),)),
                        initial_conditions=(0.0,))
        with pytest.raises(ValueError):
            format_problem(p)
