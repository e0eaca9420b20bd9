import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fodesolve.decompose import _babenko_kernels
from fodesolve.errors import NonzeroOriginError, SingularOriginError
from fodesolve.operators import (
    DEFAULT_ORDER_CAP,
    SampleSeries,
    apply_operator,
    frac_derivative01,
    frac_derivative_general,
    frac_integral,
    weight_table,
    _LEAF,
    _block_scale,
    _close_blocks,
    _group,
    _integral_tables,
    _kernel_quad,
    _leaf_product,
    _series,
    _signed_order,
    _table_length,
    _weights,
)
from node_loop import _history, _running

# Closed-form values Gamma(p+1)/Gamma(p+1 -+ alpha), frozen from 40-digit
# arithmetic.
HALF_INTEGRAL_OF_T_AT_1 = 0.7522527780636751
HALF_DERIVATIVE_OF_T_AT_1 = 1.1283791670955126
HALF_INTEGRAL_OF_T2_AT_1 = 0.6018022224509401
THREE_HALVES_DERIVATIVE_OF_T2_AT_1 = 2.256758334191025
HALF_DERIVATIVE_OF_ONE_AT_1 = 0.5641895835477563

SQRT2 = 1.4142135623730951
SQRT3_MINUS_1 = 0.7320508075688773
V1 = 0.41421356237309503  # 2^0.5 - 1
V2 = 0.31783724519578227  # 3^0.5 - 2^0.5


def ramp(h=1e-3, t_end=1.0):
    n = round(t_end / h) + 1
    return SampleSeries(h, h * np.arange(n))


def power(p, h=1e-3, t_end=1.0):
    n = round(t_end / h) + 1
    return SampleSeries(h, (h * np.arange(n)) ** p)


class TestSampleSeries:
    def test_values_are_read_only_copies(self):
        src = np.array([0.0, 1.0, 2.0])
        z = SampleSeries(0.5, src)
        src[1] = 99.0
        assert z.values[1] == 1.0
        with pytest.raises(ValueError):
            z.values[0] = 1.0

    def test_times(self):
        z = SampleSeries(0.25, [0.0, 1.0, 4.0])
        assert np.array_equal(z.times, [0.0, 0.25, 0.5])
        assert len(z) == 3

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_bad_step_rejected(self, h):
        with pytest.raises(ValueError):
            SampleSeries(h, [0.0, 1.0])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            SampleSeries(0.1, [])
        with pytest.raises(ValueError):
            SampleSeries(0.1, [[0.0, 1.0]])


class TestOperatorOrder:
    def test_identity(self):
        z = SampleSeries(0.1, np.arange(5.0))
        assert apply_operator(z, 0.0) is z
        assert apply_operator(z, -0.0) is z
        assert apply_operator(z, 0.5) is not z

    @pytest.mark.parametrize("mu", [DEFAULT_ORDER_CAP, -DEFAULT_ORDER_CAP,
                                    math.nan, math.inf])
    def test_cap(self, mu):
        with pytest.raises(ValueError):
            _signed_order(mu)
        with pytest.raises(ValueError):
            apply_operator(SampleSeries(0.1, np.zeros(5)), mu)

    @pytest.mark.parametrize("call,alpha", [
        (frac_integral, 50.0), (frac_integral, 200.0),
        (frac_derivative_general, 12.0)])
    def test_single_node_functions_keep_the_cap(self, call, alpha):
        # The same cap as apply_operator; order 200 used to leak an
        # OverflowError out of gamma.
        z = SampleSeries(0.1, np.zeros(5))
        with pytest.raises(ValueError, match="exceeds the cap 10.0"):
            call(z, alpha, 4)
        with pytest.raises(ValueError, match="exceeds the cap 10.0"):
            apply_operator(z, alpha if call is not frac_integral else -alpha)


class TestWeightTables:
    def test_integral_weights_frozen(self):
        w = weight_table("integral", 0.5, 4)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(SQRT2, rel=1e-15)
        assert w[2] == pytest.approx(SQRT3_MINUS_1, rel=1e-15)

    def test_derivative01_weights_frozen(self):
        w = weight_table("derivative01", 0.5, 3)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(V1, rel=1e-15)
        assert w[2] == pytest.approx(V2, rel=1e-15)

    def test_binomial_weights_frozen(self):
        # w_j = w_{j-1} (1 - (alpha+1)/j) for alpha = 1.5
        w = weight_table("binomial", 1.5, 6)
        assert np.allclose(
            w, [1.0, -1.5, 0.375, 0.0625, 0.0234375, 0.01171875],
            rtol=1e-15, atol=0.0)

    def test_binomial_integer_order_terminates(self):
        w = weight_table("binomial", 2.0, 6)
        assert np.array_equal(w, [1.0, -2.0, 1.0, 0.0, 0.0, 0.0])

    def test_tables_are_cached(self):
        a = weight_table("integral", 0.5, 100)
        b = weight_table("integral", 0.5, 100)
        assert a is b

    def test_kind_and_range_gating(self):
        with pytest.raises(ValueError):
            weight_table("integral", -0.5, 4)
        with pytest.raises(ValueError):
            weight_table("derivative01", 1.0, 4)
        with pytest.raises(ValueError):
            weight_table("binomial", 0.5, 4)
        with pytest.raises(ValueError):
            weight_table("nope", 0.5, 4)
        # A non-finite order is refused before it reaches the cache,
        # where a nan key would never hit again.
        before = _weights.cache_info().currsize
        for kind in ("integral", "derivative01", "binomial"):
            for order in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    weight_table(kind, order, 6)
        # An order at or past the cap is refused too, as apply_operator
        # refuses it: order 200 would leave double range in the table.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, order in (("integral", DEFAULT_ORDER_CAP),
                                ("integral", 200.0),
                                ("binomial", DEFAULT_ORDER_CAP)):
                with pytest.raises(ValueError, match="exceeds the cap"):
                    weight_table(kind, order, 10000)
        assert _weights.cache_info().currsize == before

    @pytest.mark.parametrize("n", [0, 2.5, math.nan, math.inf])
    def test_length_must_be_whole_and_positive(self, n):
        # int() would have cut 2.5, and np.arange(2.5) gives 3 weights.
        with pytest.raises(ValueError, match="table length"):
            weight_table("integral", 0.5, n)

    def test_whole_valued_lengths_accepted(self):
        a = weight_table("integral", 0.5, 4)
        assert weight_table("integral", 0.5, 4.0) is a
        assert weight_table("integral", 0.5, np.int64(4)) is a

    @pytest.mark.parametrize("order", [0.5, 1.0, 0.123, 2.75, 170.28])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_integral_kinds_share_one_power_table(self, order, n):
        # Each entry of the integral kernel's boundary and lag tables is
        # the difference of its own two powers x1^a - x0^a: x1 = j for
        # the boundary weights and j + 1 for the lags, x0 = j - 1
        # clipped at 0, slot 0 zero.  Taken from one table of j^a, they
        # keep those bits, entries past double range included (order
        # 170.28 from j = 65 on), and so does the cached "integral"
        # kind.
        j = np.arange(n, dtype=np.float64)
        x0 = np.maximum(j - 1.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            tables = _integral_tables(order, n)
            quad = _kernel_quad(-order, 1.0, n)
            cached = _weights("integral", order, n)
            powers = [j ** order - x0 ** order,
                      (j + 1.0) ** order - x0 ** order]
        for row, table, expect in zip(tables, (quad.boundary, quad.lag),
                                      powers):
            expect[0] = 0.0
            assert row.tobytes() == table.tobytes() == expect.tobytes()
            assert not table.flags.writeable
        assert cached.tobytes() == quad.lag.tobytes()


NODE_CALLS = [(frac_integral, 0.5), (frac_derivative01, 0.5),
              (frac_derivative_general, 1.5)]


class TestSingleNodeArguments:
    @pytest.mark.parametrize("call,alpha", NODE_CALLS)
    @pytest.mark.parametrize("i", [2.5, 2.9, math.nan, math.inf])
    def test_node_index_must_be_whole(self, call, alpha, i):
        # int() would have cut 2.9 to node 2.
        z = SampleSeries(0.1, np.arange(5.0))
        with pytest.raises(ValueError, match="node index"):
            call(z, alpha, i)

    @pytest.mark.parametrize("call,alpha", NODE_CALLS)
    def test_whole_valued_node_index_accepted(self, call, alpha):
        z = SampleSeries(0.1, np.arange(5.0))
        want = call(z, alpha, 3)
        assert call(z, alpha, 3.0) == want
        assert call(z, alpha, np.int64(3)) == want

    @pytest.mark.parametrize("call,alpha", NODE_CALLS)
    @pytest.mark.parametrize("i", [-1, 5])
    def test_node_index_out_of_range(self, call, alpha, i):
        z = SampleSeries(0.1, np.arange(5.0))
        with pytest.raises(IndexError, match="outside series"):
            call(z, alpha, i)

    @pytest.mark.parametrize("call,alpha", [
        (frac_integral, 0.0), (frac_integral, -0.5),
        (frac_derivative01, -0.1), (frac_derivative01, 1.0),
        (frac_derivative_general, 0.5)])
    def test_order_outside_the_kernel_range(self, call, alpha):
        z = SampleSeries(0.1, np.arange(5.0))
        with pytest.raises(ValueError, match="order"):
            call(z, alpha, 4)


class TestIntegral:
    def test_node_zero_is_zero(self):
        assert frac_integral(ramp(), 0.5, 0) == 0.0

    def test_half_integral_of_ramp(self):
        z = ramp()
        got = frac_integral(z, 0.5, len(z) - 1)
        assert got == pytest.approx(HALF_INTEGRAL_OF_T_AT_1, rel=1e-3)

    def test_half_integral_of_square(self):
        z = power(2)
        got = frac_integral(z, 0.5, len(z) - 1)
        assert got == pytest.approx(HALF_INTEGRAL_OF_T2_AT_1, rel=1e-3)

    def test_reduces_to_trapezoid_at_order_one(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(64)
        z = SampleSeries(0.125, vals)
        out = apply_operator(z, -1.0)
        trap = np.concatenate(
            ([0.0],
             np.cumsum(0.125 * 0.5 * (vals[1:] + vals[:-1]))))
        assert np.allclose(out.values, trap, rtol=1e-12, atol=1e-14)

    def test_refinement_raises_accuracy(self):
        errs = []
        for h in (2e-3, 1e-3):
            z = power(2, h=h)
            got = frac_integral(z, 0.5, len(z) - 1)
            errs.append(abs(got - HALF_INTEGRAL_OF_T2_AT_1))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order >= 1.0


class TestDerivative01:
    def test_zero_order_is_identity_bitwise(self):
        for vals in ([0.0, 0.3, -0.7, 2.0], [1.5, 0.3, -0.7, 2.0]):
            z = SampleSeries(0.1, vals)
            for i in range(4):
                assert frac_derivative01(z, 0.0, i) == z.values[i]

    def test_half_derivative_of_ramp(self):
        z = ramp()
        got = frac_derivative01(z, 0.5, len(z) - 1)
        assert got == pytest.approx(HALF_DERIVATIVE_OF_T_AT_1, rel=1e-12)

    def test_half_derivative_of_constant(self):
        # Matches the singular closed form t^-0.5 / Gamma(0.5) exactly:
        # the quadrature telescopes to the boundary term alone.
        n = 1001
        z = SampleSeries(1e-3, np.ones(n))
        got = frac_derivative01(z, 0.5, n - 1)
        assert got == pytest.approx(HALF_DERIVATIVE_OF_ONE_AT_1, rel=1e-12)

    def test_singular_origin(self):
        z = SampleSeries(0.1, [1.0, 1.0, 1.0])
        with pytest.raises(SingularOriginError):
            frac_derivative01(z, 0.5, 0)
        zok = SampleSeries(0.1, [0.0, 1.0, 1.0])
        assert frac_derivative01(zok, 0.5, 0) == 0.0

    def test_series_marks_singular_origin_with_nan(self):
        z = SampleSeries(0.1, [1.0, 1.1, 1.2, 1.3])
        out = apply_operator(z, 0.5)
        assert math.isnan(out.values[0])
        assert np.all(np.isfinite(out.values[1:]))

    def test_node_equals_series_bitwise(self):
        # The node kernel differences only samples 0..i, so its value
        # must match the whole-series application exactly.
        t = 0.01 * np.arange(400)
        for z in (SampleSeries(0.01, np.sin(3.0 * t) + t),
                  SampleSeries(0.01, 1.0 + np.cos(t))):
            whole = apply_operator(z, 0.35).values
            for i in (1, 2, 17, 200, 399):
                assert frac_derivative01(z, 0.35, i) == whole[i]


    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_matches_difference_form(self, alpha):
        # The node kernel sums samples with differenced weights; the
        # quadrature is defined on sample differences:
        # sum_{j<i} w_j (z_{i-j} - z_{i-j-1}) + (1-alpha) z_0 / i^alpha.
        n, h = 4001, 1.0 / 4000
        w = weight_table("derivative01", alpha, n)
        pref = h ** -alpha / math.gamma(2.0 - alpha)
        t = h * np.arange(n)
        for vals in (t ** 2 + 1.0, t ** 3 - 0.5, np.sin(3.0 * t) + 2.0):
            z = SampleSeries(h, vals)
            bound = 1e-12 * np.max(np.abs(apply_operator(z, alpha).values[1:]))
            for i in (1, 2, 3, 50, 1000, 2999, 4000):
                dz = vals[i:0:-1] - vals[i - 1::-1]
                want = pref * math.fsum(
                    [*(w[:i] * dz), (1.0 - alpha) * vals[0] / i ** alpha])
                assert abs(frac_derivative01(z, alpha, i) - want) <= bound


class TestGeneralDerivative:
    def test_order_one_is_backward_difference(self):
        vals = np.array([0.0, 0.5, 2.0, 1.0])
        z = SampleSeries(0.5, vals)
        out = apply_operator(z, 1.0)
        assert np.allclose(out.values[1:], np.diff(vals) / 0.5,
                           rtol=1e-14, atol=0.0)

    def test_three_halves_derivative_of_square(self):
        z = power(2)
        got = frac_derivative_general(z, 1.5, len(z) - 1)
        assert got == pytest.approx(THREE_HALVES_DERIVATIVE_OF_T2_AT_1,
                                    rel=1e-2)

    def test_nonzero_origin_rejected(self):
        z = SampleSeries(0.1, [1.0, 2.0, 3.0])
        with pytest.raises(NonzeroOriginError):
            frac_derivative_general(z, 1.5, 2)
        with pytest.raises(NonzeroOriginError):
            apply_operator(z, 1.5)


class TestApplyOperator:
    def test_identity_returns_same_object(self):
        z = ramp()
        assert apply_operator(z, 0.0) is z

    def test_series_matches_node_function(self):
        # Same inner kernel both ways, so equality is exact.
        z = power(2, h=0.05, t_end=0.5)
        for mu, node in ((-0.7, frac_integral),
                         (0.35, frac_derivative01)):
            out = apply_operator(z, mu)
            for i in (0, 1, 5, len(z) - 1):
                assert out.values[i] == node(z, abs(mu), i)

    def test_series_matches_node_function_binomial(self):
        z = power(2, h=0.05, t_end=0.5)
        out = apply_operator(z, 1.5)
        for i in (0, 1, 5, len(z) - 1):
            assert out.values[i] == frac_derivative_general(z, 1.5, i)

    def test_output_grid_matches_input(self):
        z = ramp(h=0.01, t_end=0.2)
        out = apply_operator(z, -0.5)
        assert out.h == z.h and len(out) == len(z)


def _node_form(mu, h, n):
    """The operator of order mu as (pref, centre, boundary, lag), with
    tables of the series' own length."""
    if mu >= 1.0:
        w = _weights("binomial", mu, n)
        return h ** -mu, w[0], w, w
    quad = _kernel_quad(mu, h, n)
    pref = (h ** -mu / (2.0 * math.gamma(1.0 - mu)) if mu < 0.0
            else h ** -mu / math.gamma(2.0 - mu))
    return pref, 1.0, quad.boundary, quad.lag


def _direct_sum(form, v, i):
    """Node i of a node form, its lag sum one _history over every lag."""
    pref, centre, boundary, lag = form
    return pref * (centre * v[i] + boundary[i] * v[0]
                   + _history(lag, v, i, 1, i - 1))


class TestFarField:
    """Histories longer than the 64-sample leaf reach the block-FFT far
    field, which the 32-sample hypothesis test below never does."""

    N = 1001
    NODES = (63, 64, 65, 128, 999)

    def signal(self):
        t = 0.001 * np.arange(self.N)
        return SampleSeries(0.001, np.sin(3.0 * t) + t)  # z_0 = 0

    @pytest.mark.parametrize("mu", [-0.5, 0.35, 1.6])
    def test_prefix_reproduces_the_whole_run(self, mu):
        z = self.signal()
        whole = apply_operator(z, mu).values
        for cut in (64, 65, 127, 128, 129, 513, 1000):
            part = apply_operator(SampleSeries(z.h, z.values[:cut]), mu)
            assert np.array_equal(part.values, whole[:cut]), cut

    @pytest.mark.parametrize("mu,node", [(-0.5, frac_integral),
                                         (0.35, frac_derivative01),
                                         (1.6, frac_derivative_general)])
    def test_single_node_equals_the_series(self, mu, node):
        # A single-node call sums its own blocks, the series sums every
        # block once; both add a node's blocks in the same order.
        z = self.signal()
        whole = apply_operator(z, mu).values
        for i in self.NODES:
            assert node(z, abs(mu), i) == whole[i]

    @pytest.mark.parametrize("alpha,node", [(0.5, frac_integral),
                                            (0.35, frac_derivative01),
                                            (1.6, frac_derivative_general)])
    def test_single_node_reads_nothing_past_node_i(self, alpha, node):
        # With nan from node i + 1 on, a call at node i must give the
        # bits of the clean call: its far blocks and near lags end at i.
        z = self.signal()
        for i in (1, 63, 64, 65, 128, 999):
            padded = z.values.copy()
            padded[i + 1:] = np.nan
            got = node(SampleSeries(z.h, padded), alpha, i)
            want = node(z, alpha, i)
            assert math.isfinite(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), i

    def test_sparse_visits_and_a_cold_cache_give_the_series_bits(self):
        # A running evaluator transforms only the blocks its visited nodes
        # need, and any caller may fill the cached block spectra first:
        # neither changes a bit.  The step is one no other test uses, so
        # the single-node calls below start from an empty cache.
        z = SampleSeries(0.0011, self.signal().values)
        backwards = (999, 128, 65)
        singles = [frac_integral(z, 0.5, i) for i in backwards]
        visits = (65, 70, 128, 200, 640, 641, 999)
        node = _running(_kernel_quad(-0.5, z.h, _table_length(self.N)),
                        self.N)
        sparse = [node(z.values, i) for i in visits]
        whole = apply_operator(z, -0.5).values
        assert singles == [whole[i] for i in backwards]
        assert sparse == [whole[i] for i in visits]

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_integer_binomial_sums_only_its_support(self, order):
        # The weights end exactly at lag = order; the lags beyond are
        # exact zeros, so stopping there changes no bit.
        n = 2001
        t = 0.001 * np.arange(n)
        v = np.sin(3.0 * t) + t
        out = apply_operator(SampleSeries(0.001, v), order).values
        form = _node_form(order, 0.001, n)
        for i in range(1, n):
            assert out[i] == _direct_sum(form, v, i)

    def test_block_scale_refusals(self):
        # A block growing like a power is admitted; one with a zero end
        # lag, or one whose scale would pass e^(+-700), is not.
        b = _LEAF
        grows = np.arange(1.0, 2 * b) ** 1.5
        assert _block_scale(grows, b) is not None
        for end in (b - 1, 2 * b - 2):
            block = grows.copy()
            block[end] = 0.0
            assert _block_scale(block, b) is None
        steep = np.ones(2 * b - 1)
        steep[b - 1], steep[2 * b - 2] = 1e-300, 1e300
        assert _block_scale(steep, b) is None

    def test_accuracy_against_an_exact_sum(self):
        # Error of each node against math.fsum of the same terms,
        # relative to sup |out|: the far field must be no worse than one
        # direct sum over every lag.  Orders -1.5, -6 and -20 and the
        # 30-term plate fold's last power (order 15) have growing
        # weights: every block of theirs is scaled.  The fold decays and,
        # at h = 0.01, grows again: its blocks are taken as they are up
        # to its cap, 2048, and summed directly from there on, block by
        # block.  The oscillating signals cancel in the sums, where the
        # order of the direct blocks' additions shows.
        def quads():
            n, h = 16001, 0.00025
            for mu in (-0.5, 0.5, 1.5, -1.5, -6.0, -20.0):
                quad = _kernel_quad(mu, h, _table_length(n))
                if mu < -1.0:
                    assert quad.cap == 0 and list(quad.scales) == _blocks(n)
                yield mu, h, n, quad
            for h, n in ((0.01, 6001), (0.00125, 4001)):
                fold, last = _babenko_kernels(0.5, 0.5, h, 30, n)
                assert last.cap == 0 and list(last.scales) == _blocks(n)
                assert not fold.scales
                yield "fold", h, n, fold
                yield "last power", h, n, last

        for case, h, n, quad in quads():
            t = h * np.arange(n)
            signals = {"t^2 + 0.2 t^3": t ** 2 + 0.2 * t ** 3,
                       "sin(3t) t": np.sin(3.0 * t) * t,
                       "sin(7t)": np.sin(7.0 * t)}
            for signal, v in signals.items():
                out = _series(quad, v)
                scale = np.max(np.abs(out[1:]))
                form = pref, centre, boundary, lag = quad[:4]
                err_far = err_direct = 0.0
                for i in [*range(1, n, 97), n - 1]:
                    direct = _direct_sum(form, v, i)
                    exact = pref * math.fsum([
                        centre * v[i], boundary[i] * v[0],
                        *(lag[1:i] * v[i - 1:0:-1])])
                    err_far = max(err_far, abs(out[i] - exact) / scale)
                    err_direct = max(err_direct, abs(direct - exact) / scale)
                assert err_far <= err_direct, (case, h, signal, err_far,
                                               err_direct)


def _blocks(n):
    """The far block sizes of an n-sample series' tables."""
    return [b for b in (_LEAF << k for k in range(32))
            if 2 * b <= _table_length(n)]


def test_weights_beyond_double_range_raise():
    # The order-80 integral's weights pass double range from lag 7 132
    # on; summed over the whole grid they would give inf or nan there.
    # Its tables are 8 192 long, so 7 000 samples, all of whose weights
    # are finite, still build them past double range: silently, and the
    # far blocks that hold those lags are left to direct sums.
    z = SampleSeries(0.01, np.sin(0.01 * np.arange(8000)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = z.values[:7000]
        assert np.all(np.isfinite(
            _series(_kernel_quad(-80.0, 0.01, _table_length(7000)), short)))
        with pytest.raises(OverflowError):
            _series(_kernel_quad(-80.0, 0.01, _table_length(8000)), z.values)


def test_history_is_a_left_to_right_sum():
    # The whole-series evaluator reproduces _history by multiply-adds in
    # increasing lag from 0.0.  That holds only while `@` on one
    # reversed operand sums left to right; entries spread over 24
    # decades make any other association show in the last bits.
    rng = np.random.default_rng(20)
    for _ in range(200):
        n = int(rng.integers(67, 3000))
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        lo = int(rng.integers(0, 3))
        i = int(rng.integers(lo + 64, n))
        hi = int(rng.integers(lo + 63, i + 1))
        total = 0.0
        for j in range(lo, hi + 1):
            total += float(w[j]) * float(v[i - j])
        got = _history(w, v, i, lo, hi)
        assert np.float64(got).tobytes() == np.float64(total).tobytes()


class TestSeriesEvaluator:
    """The whole-series evaluator against the running one, node by node,
    and against its own run on the prefix that ends at the node, at the
    nodes that end or start a leaf and the leaf starts that close a
    block of 1024 or more, byte for byte (signed zeros count), on every
    plan shape."""

    # At 4 097 and 5 000 samples several far blocks share each size, and
    # the grid cuts the last block of some sizes short: the whole series
    # transforms each size's blocks together, the running evaluator one
    # at a time.
    NS = (1, 2, 63, 64, 65, 128, 129, 1000, 4097, 5000)

    @staticmethod
    def samples(n, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        v[::7] = 0.0
        v[3::11] = -0.0
        v[0] = (0.0, -0.0, 1.7)[seed % 3]
        return v

    def assert_same_bytes(self, quad, v):
        n = v.size
        node = _running(quad, n)
        loop = np.array([node(v, i) for i in range(n)])
        whole = _series(quad, v)
        assert whole.tobytes() == loop.tobytes()
        nodes = {1, 2, 63, 64, 65, 127, 128, 129, *range(1024, n, 1024),
                 n - 1}
        for i in sorted(i for i in nodes if i < n):
            single = _series(quad, v[:i + 1])[i]
            assert single.tobytes() == whole[i].tobytes(), i

    @pytest.mark.parametrize("mu,shape", [(-0.5, "decaying"),
                                          (0.35, "decaying"),
                                          (1.6, "decaying"),
                                          (-1.5, "growing"),
                                          (1.0, "support 1"),
                                          (2.0, "support 2")])
    def test_operator_kernels(self, mu, shape):
        quad = _kernel_quad(mu, 0.01, _table_length(self.NS[-1]))
        if shape == "decaying":
            assert quad.period == _LEAF and quad.cap == 0
        elif shape == "growing":
            assert quad.period == _LEAF and quad.cap == 0
            assert list(quad.scales) == _blocks(self.NS[-1])
        else:
            assert quad.support == int(mu) and quad.period > self.NS[-1]
        for n in self.NS:
            quad = _kernel_quad(mu, 0.01, _table_length(n))
            self.assert_same_bytes(quad, self.samples(n, n))

    def test_capped_fold_and_its_last_term(self):
        # At h = 0.01 the 30-term fold decays until its truncated powers
        # take over: far blocks as they are up to cap, direct sums
        # beyond, for no scaling flattens a block that dips and grows.
        # Its last power grows throughout: every block is scaled.  At
        # 10 241 samples three direct 2048-blocks, closed at nodes 2048,
        # 6144 and 10240, go through one batch; the last holds one node.
        for n in (*self.NS, 6001, 10241):
            fold, last = _babenko_kernels(0.5, 0.5, 0.01, 30, n)
            if n >= 6001:
                assert fold.period == _LEAF and fold.cap == 2048
                assert not fold.scales
                assert last.period == _LEAF and last.cap == 0
                assert list(last.scales) == _blocks(n)
            v = self.samples(n, n + 1)
            self.assert_same_bytes(fold, v)
            self.assert_same_bytes(last, v)


def row_major_series(quad, values):
    """_series with its near field laid out row-major, one leaf a row,
    each lag a strided multiply-add over every row: the reference for
    _series' lag-major layout."""
    pref, centre, boundary, lag, support, period, _, _, _ = quad
    n = values.size
    acc = np.zeros((1, n))
    _close_blocks(_group((quad,)), values, acc, range(period, n, period))
    p = min(period, n)
    v = np.zeros((-(-n // p), p))
    v.reshape(-1)[1:n] = values[1:]
    near = np.zeros(v.shape)
    for j in range(1, min(p, support + 1)):
        near[:, j:] += lag[j] * v[:, :p - j]
    lags = acc[0] + near.ravel()[:n]
    out = pref * (centre * values + boundary[:n] * values[0] + lags)
    out[0] = 0.0
    return out


class TestNearFieldLayout:
    """_series sums its near lags lag-major, over contiguous memory, and
    gives the row-major loop's bytes: every node sums from 0.0, lag
    rising, each product rounded before it is added, in both layouts.

    Where two nans of different sign meet in one add (a nan sample's
    product and an inf - inf), numpy returns one of them by the place of
    the element in its vector loop, which depends on the layout and on
    the host's vector width, so there a nan only has to stay a nan."""

    NS = (1, 2, 63, 64, 65, 129, 16001)
    # Supports 1, 2 and 3 (a table without far field, one leaf as long
    # as the series), then full tables: decaying, order (0, 1), and one
    # whose far blocks are scaled.
    ORDERS = (1.0, 2.0, 3.0, -0.5, 0.5, 1.5, -1.5)

    @staticmethod
    def series_pair(mu, n, special):
        quad = _kernel_quad(mu, 0.01, _table_length(n))
        whole = mu in (1.0, 2.0, 3.0)
        assert quad.support == min(int(mu) if whole else math.inf,
                                   _table_length(n) - 1)
        v = TestSeriesEvaluator.samples(n, n)
        for start, step, x in zip((5, 9, 2), (13, 17, 19), special):
            v[start::step] = x
        with np.errstate(over="ignore", invalid="ignore"):
            return _series(quad, v), row_major_series(quad, v)

    @pytest.mark.parametrize("special", [(0.0, -0.0), (np.nan,),
                                         (np.inf, -np.inf)],
                             ids=["signed zeros", "nan", "+-inf"])
    @pytest.mark.parametrize("mu", ORDERS)
    def test_same_bytes_as_the_row_major_loop(self, mu, special):
        for n in self.NS:
            out, ref = self.series_pair(mu, n, special)
            assert out.tobytes() == ref.tobytes(), n

    @pytest.mark.parametrize("mu", ORDERS)
    def test_nan_and_inf_samples_agree_up_to_the_nan_sign(self, mu):
        for n in self.NS:
            out, ref = self.series_pair(mu, n, (np.nan, np.inf, -np.inf))
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(out), nan), n
            assert out[~nan].tobytes() == ref[~nan].tobytes(), n


class TestFarFieldGroup:
    """Quadratures that read one series close their far blocks together,
    sharing the cut, the zeroed sample 0 and every transform: one rfft,
    one broadcast multiply by their stacked spectra and one irfft; each
    member still gets the bits a group of its own gives it.  A
    quadrature whose plan scales a block or sums it directly closes its
    blocks alone."""

    N = 3001

    def shared(self):
        # d01, binomial and integral members: all decaying, none scaled
        # or capped.
        m = _table_length(self.N)
        quads = tuple(_kernel_quad(mu, 0.01, m) for mu in (0.5, 1.2, -0.5))
        for quad in quads:
            assert quad.cap == 0 and not quad.scales
        return quads

    @pytest.mark.parametrize("closing", [
        (64,), (1984,), (2048,), range(_LEAF, N, _LEAF),
        (2944, 2816, 2560, 2048)],  # 2944 = 2048 + 512 + 256 + 128
        ids=["k=b=64", "one leaf start", "k=b=2048", "whole range",
             "binary prefixes"])
    def test_each_member_keeps_its_own_bits(self, closing):
        rng = np.random.default_rng(24)
        v = rng.standard_normal(self.N) * 10.0 ** rng.integers(-3, 4, self.N)
        v[0] = 1.7  # the boundary term's: 0 in every far block
        group = self.shared()
        accs = np.zeros((len(group), self.N))
        _close_blocks(_group(group), v, accs, closing)
        for quad, acc in zip(group, accs):
            own = np.zeros((1, self.N))
            _close_blocks(_group((quad,)), v, own, closing)
            assert own.any()
            assert acc.tobytes() == own.tobytes()

    @pytest.mark.parametrize("member", ["capped fold", "scaled integral"])
    def test_a_group_refuses_a_member_that_scales_or_caps(self, member):
        # The 30-term plate fold at h = 0.01 on [0, 30] sums its blocks
        # directly from 2048 on; the integral at -1.5 scales every block.
        if member == "capped fold":
            quad, _ = _babenko_kernels(0.5, 0.5, 0.01, 30, self.N)
            assert quad.cap == 2048 and not quad.scales
        else:
            quad = _kernel_quad(-1.5, 0.01, _table_length(self.N))
            assert quad.cap == 0 and list(quad.scales) == _blocks(self.N)
        plain = self.shared()[0]
        _group((quad,))
        for quads in ((plain, quad), (quad, plain)):
            with pytest.raises(ValueError, match="closes them alone"):
                _group(quads)


class TestLeafProduct:
    """_leaf_product, the one product of both leaf-blocked solvers and of
    the stepper's leaf inputs, holds the package's one rule for
    non-finite values there: a product with an exact zero on either side
    counts as 0, every other product is plain IEEE arithmetic."""

    @staticmethod
    def product(g, x):
        g, x = np.asarray(g, dtype=float), np.asarray(x, dtype=float)
        buf = np.empty(np.broadcast_shapes(g.shape, x.shape))
        # The solvers silence the warnings of a run that stops, too.
        with np.errstate(over="ignore", invalid="ignore"):
            return _leaf_product(g, x, buf)

    def test_finite_inputs_give_the_plain_row_sum(self):
        # Signed zeros on both sides included: the bits of the plain
        # product and sum.
        rng = np.random.default_rng(32)
        g = np.tril(rng.standard_normal((64, 64)))
        g[5, :6] = -0.0
        x = rng.standard_normal(64) * 10.0 ** rng.integers(-9, 10, 64)
        x[::7], x[3::11] = -0.0, 0.0
        out = self.product(g, x)
        assert out.tobytes() == np.add.reduce(g * x, axis=1).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_zero_entry_meets_a_non_finite_input_as_zero(self, bad):
        g = [[2.0, 0.0, -1.0], [0.0, 3.0, 0.5], [-0.0, 0.0, 0.0]]
        out = self.product(g, [bad, 4.0, 2.0])
        assert out[1:].tolist() == [13.0, 0.0]
        # The row the non-finite input reaches through 2.0 keeps it.
        assert np.array_equal(out[:1], [bad], equal_nan=True)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_non_finite_entry_meets_a_zero_input_as_zero(self, zero):
        g = [[math.inf, 1.0], [math.nan, 2.0], [-math.inf, 0.0]]
        assert self.product(g, [zero, 3.0]).tolist() == [3.0, 6.0, 0.0]

    def test_an_output_reached_through_a_nonzero_entry_is_not_finite(self):
        g = [[math.inf, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]]
        out = self.product(g, [2.0, 5.0])
        assert out[0] == math.inf and out[1:].tolist() == [7.0, -2.0, 5.0]
        out = self.product(g[1:], [math.inf, -math.inf])
        assert np.isnan(out[0]) and out[1] == -math.inf
        assert out[2] == -math.inf
        assert self.product([[1e308, 1e308]], [10.0, 1.0])[0] == math.inf

    @pytest.mark.parametrize("finite", [True, False])
    def test_the_weight_table_product_is_its_row_by_row_products(self,
                                                                 finite):
        # The stepper's leaf inputs: a (k, rows, 1) weight table times a
        # (rows, 64) leaf of the feed, summed over the rows.  Each
        # weight row gives the bits of its own product with the leaf.
        rng = np.random.default_rng(33)
        table = rng.standard_normal((3, 5, 1))
        table[0, 1], table[2, 3] = 0.0, -0.0
        leaf = rng.standard_normal((5, _LEAF))
        leaf[4, 5], leaf[0, 9] = 0.0, -0.0
        if not finite:
            leaf[1, 10], leaf[3, 20] = math.inf, math.nan
            leaf[2, 30] = -math.inf
        out = self.product(table, leaf)
        assert out.shape == (3, _LEAF)
        assert np.isfinite(out).all() == finite
        for k in range(3):
            row = self.product(leaf.T, table[k, :, 0])
            assert out[k].tobytes() == row.tobytes()
        if not finite:
            # Weight row 0 meets the inf at node 10 through its zero
            # weight; weight row 2 meets the nan at node 20 the same way.
            assert np.isfinite(out[0, 10]) and np.isfinite(out[2, 20])


@settings(max_examples=40, deadline=None)
@given(
    mu=st.sampled_from([-1.3, -0.7, 0.35, 0.8, 1.0, 1.6, 2.0]),
    cut=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_causality(mu, cut, seed):
    # Output at node i never depends on samples after i: applying the
    # operator to a prefix reproduces the full run's prefix bitwise.
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(32)
    vals[0] = 0.0  # keep every operator kind applicable
    z = SampleSeries(0.1, vals)
    zc = SampleSeries(0.1, vals[:cut])
    full = apply_operator(z, mu)
    pre = apply_operator(zc, mu)
    assert np.array_equal(pre.values, full.values[:cut])


@settings(max_examples=40, deadline=None)
@given(
    mu=st.sampled_from([-0.5, 0.35, 1.6]),
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_linearity(mu, a, b, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(24)
    v = rng.standard_normal(24)
    u[0] = v[0] = 0.0
    h = 0.05
    lhs = apply_operator(SampleSeries(h, a * u + b * v), mu).values
    rhs = (a * apply_operator(SampleSeries(h, u), mu).values
           + b * apply_operator(SampleSeries(h, v), mu).values)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
