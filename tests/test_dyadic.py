import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from combregret.dyadic import HALF, ONE, ZERO, Dyadic

# a small grid of values, canonical and not, positive and negative
SAMPLES = [
    Dyadic(0),
    Dyadic(1),
    Dyadic(-1),
    Dyadic(7),
    Dyadic(1, 1),
    Dyadic(-3, 2),
    Dyadic(5, 4),
    Dyadic(2341, 8),
    Dyadic(37451, 12),
    Dyadic(1, 60),
    Dyadic(-12345, 17),
]


def test_normalization_cancels_factors_of_two():
    d = Dyadic(6, 3)
    assert (d.num, d.exp) == (3, 2)
    z = Dyadic(0, 7)
    assert (z.num, z.exp) == (0, 0)
    unchanged = Dyadic(2341, 8)
    assert (unchanged.num, unchanged.exp) == (2341, 8)
    # even integers keep exponent zero rather than going negative
    four = Dyadic(4, 0)
    assert (four.num, four.exp) == (4, 0)


def test_scaling_roundtrip():
    for d in SAMPLES:
        for m in range(5):
            assert Dyadic(d.num << m, d.exp + m) == d


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


def test_immutability():
    d = Dyadic(3, 2)
    with pytest.raises(AttributeError):
        d.num = 5


def test_arithmetic_matches_fractions():
    # arithmetic is Fraction's; what is Dyadic's own is the num/exp view and
    # Dyadic(x), which brings a sum back to it
    for a in SAMPLES:
        fa = Fraction(a.num, 2**a.exp)
        assert a == fa and -a == -fa
        for b in SAMPLES:
            fb = Fraction(b.num, 2**b.exp)
            for got, want in ((a + b, fa + fb), (a - b, fa - fb)):
                d = Dyadic(got)
                assert got == want and Fraction(d.num, 2**d.exp) == want


def test_non_dyadic_values_rejected():
    with pytest.raises(ValueError):
        Dyadic(Fraction(1, 3))


def test_copies_keep_value_and_type():
    # Fraction's copy and pickle rebuild type(self)(numerator, denominator),
    # which this constructor would read as numerator / 2**denominator
    for d in SAMPLES:
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(twin) is Dyadic
            assert (twin.num, twin.exp) == (d.num, d.exp)


def test_repr_is_constructor_form():
    assert repr(Dyadic(677, 8)) == "Dyadic(677, 8)"
    assert repr(Dyadic(6, 3)) == "Dyadic(3, 2)"
    assert str(Dyadic(677, 8)) == "2.64453125"


def test_decimal_strings_are_exact():
    assert Dyadic(2341, 8).decimal() == "9.14453125"
    assert Dyadic(37451, 12).decimal() == "9.143310546875"
    assert ZERO.decimal() == "0"
    assert Dyadic(7).decimal() == "7"
    assert Dyadic(-3, 2).decimal() == "-0.75"
    assert Dyadic(3, 2).decimal() == "0.75"
    assert Dyadic(1, 10).decimal() == "0.0009765625"


def test_interchange_form():
    for d in SAMPLES:
        num, exp = d.interchange().split("/2^")
        assert Dyadic(int(num), int(exp)) == d
    assert Dyadic(2341, 8).interchange() == "2341/2^8"
    assert Dyadic(-3, 2).interchange() == "-3/2^2"
    assert Dyadic(7).interchange() == "7/2^0"


def test_int_mixing():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - HALF == HALF
    assert HALF < 1
    assert Dyadic(5, 1) > 2
    # comparisons with floats are numeric, as for any Fraction
    assert HALF == 0.5 and HALF < 0.75 and Dyadic(-3, 2) > -1.0
    assert Dyadic.from_float(0.375) == Dyadic(3, 3)
    assert Dyadic.from_decimal(Decimal("-0.75")) == Dyadic(-3, 2)


def test_hash_and_equality():
    assert Dyadic(2, 1) == ONE
    assert hash(Dyadic(2341, 8)) == hash(Fraction(2341, 256))
    seen = {Dyadic(1, 1): "a", Dyadic(2, 2): "b"}
    assert len(seen) == 1 and seen[HALF] == "b"
    values = sorted([ONE, ZERO, HALF, Dyadic(-1)])
    assert values == [Dyadic(-1), ZERO, HALF, ONE]
