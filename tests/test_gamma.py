import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from fodesolve.gammafn import GAMMA_MAX, gamma

# Reference values computed with 40-digit arithmetic and frozen.
REFERENCE = {
    0.1: 9.51350769866873,
    0.25: 3.625609908221908,
    0.5: 1.772453850905516,
    0.75: 1.2254167024651776,
    1.5: 0.886226925452758,
    2.5: 1.329340388179137,
    3.5: 3.3233509704478426,
    5.0: 24.0,
    10.0: 362880.0,
    171.0: 7.257415615307999e306,
}


def test_reference_points():
    # The huge-argument point carries the most cancellation; 5e-13 covers
    # the approximation's worst observed relative error with margin.
    for x, want in REFERENCE.items():
        assert gamma(x) == pytest.approx(want, rel=5e-13)


def test_matches_math_gamma_on_a_grid():
    for k in range(1, 400):
        x = 0.05 * k
        if abs(x - round(x)) < 1e-12 and round(x) <= 0:
            continue
        assert gamma(x) == pytest.approx(math.gamma(x), rel=5e-14)


def test_integer_factorials_exact_enough():
    fact = 1.0
    for n in range(2, 30):
        fact *= n - 1
        assert gamma(float(n)) == pytest.approx(fact, rel=1e-13)


def test_reflection_region():
    # gamma(-0.5) = -2 sqrt(pi), gamma(-1.5) = 4 sqrt(pi) / 3
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)
    assert gamma(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0,
                                        rel=1e-13)


@pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
def test_poles_raise(pole):
    with pytest.raises(ValueError):
        gamma(pole)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_raises(bad):
    with pytest.raises(ValueError):
        gamma(bad)


def test_overflow_guard():
    gamma(GAMMA_MAX)  # largest admissible argument still evaluates
    with pytest.raises(OverflowError):
        gamma(GAMMA_MAX + 1e-6)


@pytest.mark.parametrize("x", [-171.5, -180.5])
def test_far_negative_arguments_stay_finite(x):
    # Gamma(-171.5) ~ 1.9e-310 is representable; only x > GAMMA_MAX may
    # overflow.
    assert math.isfinite(gamma(x))


def test_matches_mpmath_at_40_digits():
    xs = [0.05 * k for k in range(1, 801)] + [-0.25, -0.5, -1.5, -2.5, -3.7]
    worst = 0.0
    with mpmath.workdps(40):
        for x in xs:
            want = mpmath.gamma(mpmath.mpf(x))
            worst = max(worst, float(abs((gamma(x) - want) / want)))
    assert worst <= 2e-15


@given(st.floats(min_value=0.1, max_value=80.0))
def test_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)
