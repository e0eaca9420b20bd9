"""Gamma's edge cases as the closed forms meet them.

The package takes Gamma from math.gamma, which returns nan for a nan
argument and inf for +inf.  power_rule therefore checks its order
itself; a pole or a result past double range still raises through
math.gamma.
"""

import math

import pytest

from fodesolve.oracle import power_rule


@pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
def test_poles_raise(pole):
    # D^alpha t at alpha = 2 - pole puts Gamma(2 - alpha) on the pole.
    with pytest.raises(ValueError):
        power_rule(2.0 - pole, 1, 1.0, "derivative")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_raises(bad):
    for kind in ("integral", "derivative"):
        with pytest.raises(ValueError, match="order must be positive"):
            power_rule(bad, 2, 1.0, kind)


def test_overflow_guard():
    # Gamma(171.5) is the last of these within double range.
    assert math.isfinite(power_rule(0.5, 170, 1.0, "integral"))
    with pytest.raises(OverflowError):
        power_rule(0.5, 200, 1.0, "integral")
