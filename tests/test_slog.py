"""Sign-and-log scalar arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from planarz import SignedLog

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-6)


def test_zero_and_one():
    assert SignedLog.zero().to_float() == 0.0
    assert SignedLog.one().to_float() == 1.0
    assert SignedLog.zero().sign == 0
    assert SignedLog.zero().log_magnitude == -math.inf


def test_from_float_round_trip():
    # exp amplifies the representation error of the log, so the huge
    # magnitudes are only good to ~|log x| * eps relative
    for x in (3.5, -2.25, 1e-200, -1e200, 0.0):
        assert SignedLog.from_float(x).to_float() == pytest.approx(x, rel=1e-12)


@given(nonzero, nonzero)
def test_mul_matches_float(x, y):
    got = (SignedLog.from_float(x) * SignedLog.from_float(y)).to_float()
    assert got == pytest.approx(x * y, rel=1e-12)


def test_zero_is_identity_and_absorbing():
    a = SignedLog.from_float(-3.0)
    assert SignedLog.sum([a, SignedLog.zero()]).to_float() == pytest.approx(-3.0, rel=1e-15)
    assert (a * SignedLog.zero()).sign == 0


def test_huge_magnitudes_survive():
    # products far beyond float range keep exact logs
    a = SignedLog(1, 500.0)
    b = SignedLog(-1, 600.0)
    c = a * b
    assert c.sign == -1
    assert c.log_magnitude == pytest.approx(1100.0)
    s = SignedLog.sum([c, SignedLog(1, 1100.0 + math.log(2.0))])
    assert s.sign == 1
    assert s.log_magnitude == pytest.approx(1100.0)


def test_sum_matches_the_exact_sum():
    # one compensated reduction: however far the values cancel, the error
    # is each scaled value's own rounding, a few ulps of its magnitude
    eps = 2.0**-52
    rng = random.Random(3)
    for trial in range(300):
        xs = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 40))]
        if trial % 2:
            # cancel all but about a millionth of the largest value
            xs.append(float(-sum(map(Fraction, xs)) + Fraction(rng.uniform(-2e-6, 2e-6))))
        exact = sum(map(Fraction, xs))
        got = SignedLog.sum([SignedLog.from_float(x) for x in xs])
        assert got.sign == (exact > 0) - (exact < 0)
        assert abs(Fraction(got.to_float()) - exact) <= 8 * eps * sum(map(abs, xs))


def test_sum_of_values_that_cancel_is_exactly_zero():
    rng = random.Random(4)
    for _ in range(50):
        xs = [rng.uniform(-1e6, 1e6) for _ in range(rng.randint(1, 20))]
        values = [SignedLog.from_float(x) for x in xs + [-x for x in xs]] + [SignedLog.zero()]
        rng.shuffle(values)
        assert SignedLog.sum(values) == SignedLog.zero()
    assert SignedLog.sum([]) == SignedLog.zero() == SignedLog.sum([SignedLog.zero()])
