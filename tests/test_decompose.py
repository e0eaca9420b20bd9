import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fodesolve.decompose import (
    Babenko,
    DirectVolterra,
    ForcingSegment,
    FracTerm,
    PiecewiseForcing,
    Polynomial,
    PowerSumForcing,
    ProblemSpec,
    WLink,
    babenko_invert,
    build_system,
    _babenko_kernels,
    integer_order,
    volterra_direct_invert,
)
from fodesolve.errors import (
    BabenkoTailWarning,
    SingularInversionError,
    UnsupportedProblemError,
)
from fodesolve.operators import (
    DEFAULT_ORDER_CAP,
    SampleSeries,
    apply_operator,
    _integral_pref,
    _kernel_quad,
    _series,
    _signed_order,
    _table_length,
    _weights,
)
from node_loop import _running, direct_inverter, series_inverter

# Gamma(3)/Gamma(3.5), frozen: the half-integral of t^2 is this times
# t^2.5.
HALF_INTEGRAL_T2_COEF = 0.6018022224509401


class TestIntegerOrder:
    @pytest.mark.parametrize("alpha,m", [
        (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2), (0.3, 1), (2.1, 3),
    ])
    def test_ceiling(self, alpha, m):
        assert integer_order(alpha) == m


class TestBuildingBlocks:
    def test_frac_term_validation(self):
        with pytest.raises(ValueError):
            FracTerm(math.nan, 0.5)
        with pytest.raises(ValueError):
            FracTerm(1.0, -0.5)
        with pytest.raises(ValueError):
            FracTerm(1.0, 100.0)

    def test_polynomial_strips_trailing_zeros(self):
        p = Polynomial((0.0, 2.0, 0.0, 0.0))
        assert p.coefficients == (0.0, 2.0)
        assert p.monomials() == ((2.0, 1),)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_polynomial_coefficients_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Polynomial((1.0, bad))

    def test_forcing_segment_validation(self):
        with pytest.raises(ValueError):
            ForcingSegment(-1.0, 2.0, (1.0,))
        with pytest.raises(ValueError):
            ForcingSegment(1.0, 1.0, (1.0,))
        with pytest.raises(ValueError):
            ForcingSegment(0.0, 1.0, ())

    def test_piecewise_must_start_at_zero_and_be_contiguous(self):
        with pytest.raises(ValueError):
            PiecewiseForcing((ForcingSegment(1.0, 2.0, (1.0,)),))
        with pytest.raises(ValueError):
            PiecewiseForcing((
                ForcingSegment(0.0, 1.0, (1.0,)),
                ForcingSegment(1.5, 2.0, (1.0,)),
            ))

    def test_piecewise_needs_a_segment(self):
        with pytest.raises(ValueError, match="at least one segment"):
            PiecewiseForcing(())

    def test_piecewise_boundary_belongs_to_next_segment(self):
        f = PiecewiseForcing((
            ForcingSegment(0.0, 1.0, (8.0,)),
            ForcingSegment(1.0, math.inf, (0.0,)),
        ))
        got = f.sample(0.25, 9)  # nodes 0, 0.25, ..., 2.0
        assert np.array_equal(got, [8, 8, 8, 8, 0, 0, 0, 0, 0])
        assert f.sample(1.0, 2)[1] == 0.0 and f.sample(0.999, 2)[1] == 8.0

    def test_piecewise_snaps_a_rounded_node_onto_the_boundary(self):
        # Node 11 at h = 0.03 is 0.32999999999999996, below the boundary
        # 0.33 by far less than 1e-9*h, so it takes the new segment.
        f = PiecewiseForcing((
            ForcingSegment(0.0, 0.33, (1.0,)),
            ForcingSegment(0.33, math.inf, (2.0,)),
        ))
        assert 11 * 0.03 < 0.33
        assert np.array_equal(f.sample(0.03, 12), [1.0] * 11 + [2.0])

    def test_piecewise_coverage_enforced(self):
        f = PiecewiseForcing((ForcingSegment(0.0, 1.0, (3.0,)),))
        with pytest.raises(ValueError):
            f.sample(0.5, 4)  # extends to t = 1.5

    def test_piecewise_polynomial_segments(self):
        f = PiecewiseForcing((
            ForcingSegment(0.0, 2.0, (1.0, 0.0, 1.0)),  # 1 + t^2
            ForcingSegment(2.0, math.inf, (5.0,)),
        ))
        assert f.sample(1.5, 2)[1] == 1.0 + 1.5 ** 2
        assert np.allclose(f.sample(1.0, 4), [1.0, 2.0, 5.0, 5.0])

    def test_power_sum_forcing(self):
        f = PowerSumForcing(((2.0, 1.5), (1.0, 0.0)))
        t = 0.25 * np.arange(5)
        assert np.allclose(f.sample(0.25, 5), 2.0 * t ** 1.5 + 1.0)
        assert f.sample(4.0, 2)[1] == 2.0 * 8.0 + 1.0
        with pytest.raises(ValueError):
            PowerSumForcing(((1.0, -0.5),))


class TestProblemSpec:
    def test_orders_must_strictly_decrease(self):
        with pytest.raises(ValueError):
            ProblemSpec(terms=((1.0, 1.5), (1.0, 1.5)),
                        initial_conditions=(0.0, 0.0))

    def test_leading_coefficient_nonzero(self):
        with pytest.raises(ValueError):
            ProblemSpec(terms=((0.0, 1.5),), initial_conditions=(0.0, 0.0))

    def test_ic_count_matches_leading_integer_order(self):
        with pytest.raises(ValueError):
            ProblemSpec(terms=((1.0, 1.5),), initial_conditions=(0.0,))
        ProblemSpec(terms=((1.0, 1.5),), initial_conditions=(0.0, 1.0))

    @pytest.mark.parametrize("kwargs,reason", [
        ({"terms": ()}, "at least one term"),
        ({"initial_conditions": (math.nan,)}, "finite"),
        ({"initial_conditions": (math.inf,)}, "finite"),
        ({"forcing": math.sin}, "sample")])
    def test_incomplete_or_non_finite_input_rejected(self, kwargs, reason):
        spec = {"terms": ((1.0, 0.5),), "initial_conditions": (0.0,),
                **kwargs}
        with pytest.raises(ValueError, match=reason):
            ProblemSpec(**spec)

    def test_plain_tuples_coerced(self):
        p = ProblemSpec(terms=((2.0, 1.5), (1.0, 0.5)),
                        initial_conditions=(0.0, 0.0))
        assert p.terms[0] == FracTerm(2.0, 1.5)
        assert p.leading_order == 1.5


class TestClassify:
    """The paper's three problem classes, read off the leading run of
    terms sharing ceil(alpha1): those after the first fold as WLinks,
    the rest couple as RhsLinks."""

    def test_one_term(self):
        p = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))
        sys = build_system(p)
        assert sys.m1 == 1 and sys.w_links == () and sys.rhs_links == ()

    def test_dependent(self, plate):
        sys = build_system(plate)
        assert sys.m1 == 2
        assert [lk.order for lk in sys.w_links] == [0.5]
        assert sys.rhs_links == ()

    def test_independent(self):
        p = ProblemSpec(terms=((1.0, 1.7), (1.0, 0.3)),
                        initial_conditions=(0.0, 0.0))
        sys = build_system(p)
        assert sys.m1 == 2 and sys.w_links == ()
        assert [lk.order for lk in sys.rhs_links] == [pytest.approx(0.6)]

    def test_dependent_run_of_three(self):
        p = ProblemSpec(terms=((1.0, 1.9), (1.0, 1.5), (1.0, 1.2), (2.0, 0.4)),
                        initial_conditions=(0.0, 0.0))
        sys = build_system(p)
        assert [lk.order for lk in sys.w_links] == [
            pytest.approx(0.4), pytest.approx(0.7)]
        assert [lk.order for lk in sys.rhs_links] == [pytest.approx(0.5)]


class TestBuildSystem:
    def test_dependent_benchmark_shape(self, plate):
        sys = build_system(plate)
        assert sys.m1 == 2 and sys.a1 == 1.0
        assert sys.nu == 0.0
        assert sys.w_links == (WLink(ratio=0.5, order=0.5),)
        assert sys.rhs_links == ()
        assert isinstance(sys.inversion, DirectVolterra)

    def test_independent_links(self):
        p = ProblemSpec(terms=((2.0, 1.7), (3.0, 0.3)),
                        initial_conditions=(0.0, 0.0))
        sys = build_system(p)
        assert sys.nu == pytest.approx(0.3)
        assert len(sys.rhs_links) == 1
        link = sys.rhs_links[0]
        # coupling keeps the raw coefficient; the 1/a1 division happens
        # in the step update
        assert link.coefficient == 3.0
        assert link.order == pytest.approx(0.6)

    def test_one_term_has_no_links(self):
        p = ProblemSpec(terms=((1.0, 0.5),), initial_conditions=(0.0,))
        sys = build_system(p)
        assert sys.rhs_links == () and sys.w_links == ()
        assert sys.nu == 0.5

    def test_integer_leading_order_nu_zero(self, plate):
        assert build_system(plate).nu == 0.0

    def test_zero_leading_order_unsupported(self):
        p = ProblemSpec(terms=((1.0, 0.0),), initial_conditions=())
        with pytest.raises(UnsupportedProblemError):
            build_system(p)

    def test_zero_order_trailing_term_unsupported(self):
        # the plain-y channel is the nonlinearity, not a zero-order term
        p = ProblemSpec(terms=((1.0, 1.5), (2.0, 0.0)),
                        initial_conditions=(0.0, 0.0))
        with pytest.raises(UnsupportedProblemError, match="nonlinearity"):
            build_system(p)

    def test_babenko_limited_to_one_folded_term(self):
        p = ProblemSpec(terms=((1.0, 1.5), (1.0, 1.2), (1.0, 1.1)),
                        initial_conditions=(0.0, 0.0))
        with pytest.raises(UnsupportedProblemError):
            build_system(p, Babenko())
        sys = build_system(p)  # direct route has no such limit
        assert len(sys.w_links) == 2

    def test_babenko_config_validation(self):
        with pytest.raises(ValueError):
            Babenko(terms=0)

    @pytest.mark.parametrize("kwargs", [{"terms": 2.7},
                                        {"terms": math.nan},
                                        {"terms": math.inf}])
    def test_babenko_rejects_fractional_terms_and_bad_tolerance(self, kwargs):
        # A fractional term count would be cut silently.
        with pytest.raises(ValueError):
            Babenko(**kwargs)

    def test_babenko_accepts_whole_float_terms_and_infinite_tolerance(self):
        bab = Babenko(terms=12.0)
        assert bab.terms == 12 and isinstance(bab.terms, int)

    @pytest.mark.parametrize("inversion", ["babenko", "direct", Babenko])
    def test_unknown_inversion_rejected(self, plate, inversion):
        with pytest.raises(ValueError, match="inversion"):
            build_system(plate, inversion)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(1, 9).map(float),
                              st.floats(0.0, 10.0, exclude_min=True,
                                        exclude_max=True)),
                    min_size=1, max_size=5, unique=True),
           st.sampled_from([Babenko(), DirectVolterra()]))
    def test_coupling_orders_stay_below_the_evolved_order(self, orders,
                                                          inversion):
        # Strictly decreasing term orders under FracTerm's cap keep every
        # coupling order in (0, m1) with m1 <= 10, inside the operators'
        # order cap, so build_system need not check its links again.
        orders = sorted(orders, reverse=True)
        problem = ProblemSpec(
            terms=tuple((1.0 + k, a) for k, a in enumerate(orders)),
            initial_conditions=(0.0,) * integer_order(orders[0]))
        try:
            sys = build_system(problem, inversion)
        except UnsupportedProblemError:
            assert isinstance(inversion, Babenko)
            return
        assert sys.m1 <= DEFAULT_ORDER_CAP
        for link in sys.rhs_links:
            assert 0.0 < link.order < sys.m1
            assert _signed_order(link.order) == link.order
        for link in sys.w_links:
            # Below 1 exactly, but the difference of the orders may round
            # up to 1.
            assert 0.0 < link.order <= 1.0


def _w_from(z1: SampleSeries, links) -> SampleSeries:
    """Forward map w = z1 + sum_j ratio_j I^(delta_j) z1 with the same
    quadratures the inverters assume."""
    acc = z1.values.copy()
    for link in links:
        acc += link.ratio * apply_operator(z1, -link.order).values
    return SampleSeries(z1.h, acc)


class TestVolterraDirect:
    def test_node_zero_is_zero(self):
        w = SampleSeries(0.1, [0.0, 1.0, 2.0])
        assert volterra_direct_invert(
            w, (WLink(0.5, 0.5),), 0, SampleSeries(0.1, [0.0])) == 0.0

    def test_round_trip_is_node_exact(self):
        h, n = 0.02, 51
        t = h * np.arange(n)
        z1 = SampleSeries(h, t ** 2 * np.exp(-t))
        links = (WLink(0.5, 0.5), WLink(0.25, 0.3))
        w = _w_from(z1, links)
        rec = np.zeros(n)
        for i in range(n):
            rec[i] = volterra_direct_invert(
                w, links, i, SampleSeries(h, rec if i else np.zeros(1)))
        assert np.max(np.abs(rec - z1.values)) <= 1e-12

    def test_recovers_analytic_half_integral_relation(self):
        # w built from the closed form of z1 + 0.5 I^0.5 z1 for z1 = t^2;
        # inversion must land within the quadrature's own accuracy.
        h, n = 1e-3, 1001
        t = h * np.arange(n)
        w_exact = t ** 2 + 0.5 * HALF_INTEGRAL_T2_COEF * t ** 2.5
        w = SampleSeries(h, w_exact)
        links = (WLink(0.5, 0.5),)
        rec = np.zeros(n)
        for i in range(n):
            rec[i] = volterra_direct_invert(
                w, links, i, SampleSeries(h, rec if i else np.zeros(1)))
        assert np.max(np.abs(rec - t ** 2)) <= 1e-4

    def test_node_i_of_the_history_is_never_read(self):
        # A history longer than i, with nan from node i on, must give the
        # bits of a history of exactly i samples.
        h, n = 0.02, 51
        t = h * np.arange(n)
        links = (WLink(0.5, 0.5), WLink(0.25, 0.3))
        w = _w_from(SampleSeries(h, t ** 2 * np.exp(-t)), links)
        z1 = np.sin(t)
        z1[0] = 0.0
        for i in (1, 2, 17, n - 1):
            padded = z1.copy()
            padded[i:] = np.nan
            got = volterra_direct_invert(w, links, i, SampleSeries(h, padded))
            want = volterra_direct_invert(w, links, i,
                                          SampleSeries(h, z1[:i]))
            assert math.isfinite(got)
            assert got == want

    def test_node_i_is_never_read_beyond_the_leaf(self):
        # Past node 64 the far field sums blocks of the history; they are
        # sized by the grid and never reach node i.
        h, n = 0.002, 1001
        t = h * np.arange(n)
        links = (WLink(0.5, 0.5), WLink(0.25, 0.3))
        w = _w_from(SampleSeries(h, t ** 2 * np.exp(-t)), links)
        z1 = np.sin(t)
        z1[0] = 0.0
        for i in (64, 65, 129, 700, n - 1):
            padded = z1.copy()
            padded[i:] = np.nan
            got = volterra_direct_invert(w, links, i, SampleSeries(h, padded))
            want = volterra_direct_invert(w, links, i,
                                          SampleSeries(h, z1[:i]))
            assert math.isfinite(got)
            assert got == want

    def test_single_node_equals_the_running_inverter(self):
        # The reference loop's running node map accumulates every far
        # block once; a single-node call sums its own blocks in the same
        # order.
        h, n = 0.002, 1001
        t = h * np.arange(n)
        links = (WLink(0.5, 0.5), WLink(0.25, 0.3))
        w = _w_from(SampleSeries(h, t ** 2 * np.exp(-t)), links)
        invert = direct_inverter(h, links, n)
        z1 = np.zeros(n)
        for i in range(n):
            z1[i] = invert(w.values, z1, i)
        for i in (63, 64, 65, 128, 999, n - 1):
            assert volterra_direct_invert(
                w, links, i, SampleSeries(h, z1[:i])) == z1[i]

    def test_singular_pivot(self):
        h = 0.04
        from fodesolve.gammafn import gamma
        ratio = -2.0 * gamma(1.5) / h ** 0.5
        links = (WLink(ratio, 0.5),)
        w = SampleSeries(h, [0.0, 1.0, 2.0])
        with pytest.raises(SingularInversionError):
            volterra_direct_invert(w, links, 1, SampleSeries(h, [0.0]))

    @pytest.mark.parametrize("ratio,order,field", [
        (0.5, -0.5, "order"), (0.5, 0.0, "order"),
        (0.5, DEFAULT_ORDER_CAP, "order"), (0.5, 50.0, "order"),
        (0.5, math.nan, "order"), (0.5, math.inf, "order"),
        (math.nan, 0.5, "ratio"), (math.inf, 0.5, "ratio"),
        (-math.inf, 0.5, "ratio")])
    def test_link_validation(self, ratio, order, field):
        # Unchecked, each of these inverts to some number (or nan): a
        # derivative kernel, the identity, an order past the cap.
        with pytest.raises(ValueError, match=f"link {field}"):
            WLink(ratio, order)

    @pytest.mark.parametrize("i,error", [
        (-1, IndexError), (3, IndexError), (1.5, ValueError),
        (math.nan, ValueError), (math.inf, ValueError)])
    def test_node_index_checked(self, i, error):
        # int() would have cut 1.5 to node 1.
        w = SampleSeries(0.1, [0.0, 1.0, 2.0])
        with pytest.raises(error):
            volterra_direct_invert(w, (), i, w)

    def test_whole_valued_node_index_accepted(self):
        w = SampleSeries(0.1, [0.0, 1.0, 2.0])
        assert volterra_direct_invert(w, (), 2.0, w) == 2.0
        assert volterra_direct_invert(w, (), np.int64(2), w) == 2.0

    def test_history_validation(self):
        w = SampleSeries(0.1, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            volterra_direct_invert(w, (), 2, SampleSeries(0.1, [0.0]))
        with pytest.raises(ValueError):
            volterra_direct_invert(w, (), 1, SampleSeries(0.2, [0.0]))


class TestBabenkoInvert:
    def test_zero_ratio_returns_input(self):
        w = SampleSeries(0.1, [0.0, 1.0, 4.0])
        res = babenko_invert(w, 0.0, 0.5)
        assert res.series is w and res.tail_norm == 0.0

    def test_zero_series_stays_zero(self):
        w = SampleSeries(0.1, np.zeros(16))
        res = babenko_invert(w, 0.5, 0.5, terms=10)
        assert np.array_equal(res.series.values, np.zeros(16))

    def test_truncation_settles_on_modest_horizon(self):
        # |ratio| t^delta <= 0.5 sqrt(5) ~ 1.12 on [0, 5]: 30 terms are
        # plenty, and doubling them must not move the answer.
        h, n = 0.01, 501
        t = h * np.arange(n)
        z1 = SampleSeries(h, t ** 2 * np.exp(-t))
        w = _w_from(z1, (WLink(0.5, 0.5),))
        r30 = babenko_invert(w, 0.5, 0.5, terms=30)
        r60 = babenko_invert(w, 0.5, 0.5, terms=60)
        assert np.max(np.abs(r30.series.values - r60.series.values)) <= 1e-8
        assert r30.tail_norm <= 1e-8

    def test_agrees_with_direct_inverter(self):
        h, n = 0.01, 501
        t = h * np.arange(n)
        z1 = SampleSeries(h, t ** 2 * np.exp(-t))
        links = (WLink(0.5, 0.5),)
        w = _w_from(z1, links)
        ser = babenko_invert(w, 0.5, 0.5, terms=30).series.values
        rec = np.zeros(n)
        for i in range(n):
            rec[i] = volterra_direct_invert(
                w, links, i, SampleSeries(h, rec if i else np.zeros(1)))
        # The series applies I^(k delta) in one shot while the direct
        # route composes single steps, so agreement is capped by the
        # discrete composition defect, far above rounding.
        assert np.max(np.abs(ser - rec)) <= 1e-3

    def test_tail_warning_on_hopeless_horizon(self):
        h, n = 0.1, 301  # t up to 30: |ratio| t^delta ~ 2.7, needs many terms
        t = h * np.arange(n)
        w = SampleSeries(h, t)
        with pytest.warns(BabenkoTailWarning):
            res = babenko_invert(w, 0.5, 0.5, terms=5)
        assert res.tail_norm > 1e-8

    def test_tail_warning_names_the_caller(self):
        w = SampleSeries(0.1, 0.1 * np.arange(301))
        with pytest.warns(BabenkoTailWarning) as rec:
            babenko_invert(w, 0.5, 0.5, terms=5)
        assert [r.filename for r in rec] == [__file__]

    def test_parameter_validation(self):
        w = SampleSeries(0.1, [0.0, 1.0])
        with pytest.raises(ValueError):
            babenko_invert(w, 0.5, 0.0)
        with pytest.raises(ValueError):
            babenko_invert(w, 0.5, 0.5, terms=0)

    @pytest.mark.parametrize("ratio,delta,field", [
        (math.nan, 0.5, "ratio"), (math.inf, 0.5, "ratio"),
        (-math.inf, 0.5, "ratio"), (0.5, math.nan, "delta"),
        (0.5, math.inf, "delta"), (0.5, -0.5, "delta")])
    def test_non_finite_ratio_or_delta_rejected(self, ratio, delta, field):
        # Not an OverflowError from the weights, nor a Gamma error.
        w = SampleSeries(0.1, [0.0, 1.0])
        with pytest.raises(ValueError, match=field):
            babenko_invert(w, ratio, delta)

    @pytest.mark.parametrize("kwargs", [{"terms": 2.7}])
    def test_series_parameters_checked_like_babenko(self, kwargs):
        w = SampleSeries(0.1, [0.0, 1.0])
        with pytest.raises(ValueError):
            babenko_invert(w, 0.5, 0.5, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BabenkoTailWarning)
            res = babenko_invert(w, 0.5, 0.5, terms=3.0)
        assert np.isfinite(res.tail_norm)

    @pytest.mark.parametrize("terms,t_end", [(30, 5.0), (80, 30.0)])
    def test_matches_explicit_power_sum(self, terms, t_end):
        # The folded kernel must reproduce the series term by term: w
        # plus each power applied as its own whole-series integral.  The
        # nonzero first sample exercises the boundary weights.
        h, ratio, delta = 0.01, 0.5, 0.5
        t = h * np.arange(round(t_end / h) + 1)
        w = SampleSeries(h, np.cos(t) + 0.1 * t)
        res = babenko_invert(w, ratio, delta, terms=terms)
        acc = w.values.copy()
        for k in range(1, terms + 1):
            last = (-ratio) ** k * _series(
                _kernel_quad(-k * delta, h, _table_length(len(w))), w.values)
            acc += last
        scale = np.max(np.abs(w.values))
        assert np.max(np.abs(res.series.values - acc)) <= 1e-12 * scale
        last_norm = np.max(np.abs(last))
        assert abs(res.tail_norm - last_norm) <= 1e-12 * last_norm

    def test_prefix_causal_bitwise(self):
        h = 0.005
        t = h * np.arange(1001)
        w = SampleSeries(h, np.cos(t) + 0.1 * t)
        whole = babenko_invert(w, 0.5, 0.5, terms=30).series.values
        part = babenko_invert(SampleSeries(h, w.values[:400]), 0.5, 0.5,
                              terms=30).series.values
        assert np.array_equal(part, whole[:400])

    def test_prefix_causal_where_the_truncated_fold_grows(self):
        # 30 terms stop converging near t = 20, where the folded weights
        # start to grow and larger far blocks give way to direct sums.
        # Each block's choice depends on its own lags only, so a prefix
        # still reproduces the whole run.
        h = 0.01
        t = h * np.arange(6001)
        w = SampleSeries(h, np.cos(t) + 0.1 * t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BabenkoTailWarning)
            whole = babenko_invert(w, 0.5, 0.5, terms=30).series.values
            for cut in (1000, 3000):
                part = babenko_invert(SampleSeries(h, w.values[:cut]), 0.5,
                                      0.5, terms=30).series.values
                assert np.array_equal(part, whole[:cut])

    @pytest.mark.parametrize("bad", [None, 0, 3000])
    def test_whole_series_equals_the_node_loop(self, bad):
        # babenko_invert evaluates the fold and its last term over the
        # whole series; the reference loop's series node map gives the
        # same bytes node by node, and its tail norm equals a running
        # max of the last term over the nodes, which passes over nan.
        h, n = 0.01, 6001
        t = h * np.arange(n)
        v = np.cos(t) + 0.1 * t
        if bad is not None:
            v[bad] = np.nan
        invert, last = series_inverter(0.5, 0.5, h, 30, n)
        last_node = _running(last, n)
        z1 = np.zeros(n)
        tail = 0.0
        for i in range(n):
            z1[i] = invert(v, z1, i)
            tail = max(tail, abs(last_node(v, i)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BabenkoTailWarning)
            res = babenko_invert(SampleSeries(h, v), 0.5, 0.5, terms=30)
        assert res.series.values.tobytes() == z1.tobytes()
        assert res.tail_norm == tail and math.isfinite(tail)

    @pytest.mark.parametrize("terms", [171, 172])
    def test_power_tables_past_double_range_are_taken_in_logs(self, terms):
        # At h = 1 the last power has order 169.29 and the coefficient
        # -2.6e-306 (171 terms), or order 170.28 and a subnormal 1.6e-308
        # with 52 bits (172 terms), while its table passes double range
        # from lag 66 (64) on.  The products stay below 1e84: the fold
        # is finite, built without numpy overflow warnings, and the last
        # power matches exact arithmetic at every lag; the entries of a
        # normal coefficient that did not overflow keep their bits.
        n, order = 200, terms * 0.99
        w = SampleSeries(1.0, np.cos(0.1 * np.arange(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", BabenkoTailWarning)
            res = babenko_invert(w, 1.0, 0.99, terms=terms)
            _, last = _babenko_kernels(1.0, 0.99, 1.0, terms, n)
        assert np.all(np.isfinite(res.series.values))
        assert 1e83 < res.tail_norm < 1e84
        with mpmath.workdps(40):
            a = mpmath.mpf(order)
            c = (-1) ** terms / (2 * mpmath.gamma(1 + a))
            for j in (1, 2, 63, 64, 65, 66, 100, 199):
                exact = c * ((j + 1) ** a - (j - 1) ** a)
                assert last.lag[j] == pytest.approx(float(exact), rel=1e-12,
                                                    abs=0.0)
        if terms == 171:
            with np.errstate(over="ignore", invalid="ignore"):
                plain = last.centre * _weights.__wrapped__("integral", order,
                                                           n)
            assert last.lag[:66].tobytes() == plain[:66].tobytes()
            assert not np.isfinite(plain[66])

    def test_power_entries_past_double_range_keep_full_precision(self):
        # The 172-term last power at h = 1 (see above) at the lags where
        # its table overflows.  Each entry is taken as two factors in
        # double range, (c x1^(a/2)) x1^(a/2) (1 - (x0/x1)^a), within a
        # few eps of exact arithmetic; as exp(ln|c| + a ln x1) it would
        # lose about 700 eps.
        n, terms = 256, 172
        _, last = _babenko_kernels(1.0, 0.99, 1.0, terms, n)
        with mpmath.workdps(40):
            a = mpmath.mpf(terms * 0.99)
            c = 1 / (2 * mpmath.gamma(1 + a))
            for j in range(64, n):
                exact = float(c * ((j + 1) ** a - (j - 1) ** a))
                assert last.lag[j] == pytest.approx(exact, rel=2e-15,
                                                    abs=0.0), j

    @pytest.mark.parametrize("h,n,ratio,delta,terms", [
        (0.05, 2000, 1.0, 0.99, 200), (0.01, 501, 0.5, 0.5, 250),
    ])
    def test_fold_runs_past_an_underflowed_coefficient(self, h, n, ratio,
                                                       delta, terms):
        # The coefficients underflow from about power 110 (first case)
        # or 160 (second) on.  In the divergent first case those powers'
        # weights and terms are still near 1e42; in the second the last
        # power is 1e-195.  The fold runs to the last power, which on
        # w = 1 is ratio^K t^(K delta) / Gamma(1 + K delta) exactly, and
        # the truncation warning fires where that exceeds TAIL_TOL.
        a = mpmath.mpf(terms * delta)
        exact = float(mpmath.mpf(ratio) ** terms
                      * mpmath.mpf((n - 1) * h) ** a / mpmath.gamma(1 + a))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            res = babenko_invert(SampleSeries(h, np.ones(n)), ratio, delta,
                                 terms=terms)
        assert ([w.category for w in rec]
                == ([BabenkoTailWarning] if exact > 1e-8 else []))
        assert res.tail_norm == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_weights_past_double_range_on_the_grid_raise(self):
        # On 5 000 samples the same power's true weights pass double
        # range near lag 4 150, so no finite fold exists; the fold's
        # build says so, before any series is summed.
        w = SampleSeries(1.0, np.cos(0.1 * np.arange(5000)))
        with pytest.raises(OverflowError, match="series inversion weights"):
            babenko_invert(w, 1.0, 0.99, terms=172)

    def test_fold_is_the_ordered_sum_of_the_scaled_powers(self):
        # The plate's fold (K = 30, h = 0.00125, 4 001 samples), where no
        # entry needs the logs: boundary and lag are the sums over
        # k = 1..K, in that order from 0.0, of c_k times the power
        # tables x1^(k delta) - x0^(k delta), each with its own two
        # powers, and the last power is the k = K term.
        ratio, delta, h, terms, n = 0.5, 0.5, 0.00125, 30, 4001
        fold, last = _babenko_kernels(ratio, delta, h, terms, n)
        j = np.arange(_table_length(n), dtype=np.float64)
        x0 = np.maximum(j - 1.0, 0.0)
        boundary, lag = np.zeros(j.size), np.zeros(j.size)
        centre = 0.0
        for k in range(1, terms + 1):
            a = k * delta
            c = (-ratio) ** k * _integral_pref(h, a)
            b = c * (j ** a - x0 ** a)
            w = c * ((j + 1.0) ** a - x0 ** a)
            w[0] = 0.0
            centre += c
            boundary += b
            lag += w
        assert (fold.centre, last.centre) == (centre, c)
        assert fold.boundary.tobytes() == boundary.tobytes()
        assert fold.lag.tobytes() == lag.tobytes()
        assert last.boundary.tobytes() == b.tobytes()
        assert last.lag.tobytes() == w.tobytes()

    def test_fold_leaves_shared_weight_cache_alone(self):
        # The K order-k*delta tables serve only the fold; caching them
        # would leave K never-reused tables behind.
        w = SampleSeries(0.01, np.cos(0.01 * np.arange(501)))
        before = _weights.cache_info()
        babenko_invert(w, 0.5, 0.5, terms=100)
        assert _weights.cache_info() == before
