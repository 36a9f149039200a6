"""Exact dyadic rationals (rationals with power-of-two denominators).

Every probability in a balanced-branch game is a power of 1/2 and every daily
increment is an integer, so every game value is dyadic.  Arbitrary-precision
integer numerators keep long-horizon sums exact; at horizon 350 numerators can
run to hundreds of bits.

``Dyadic`` is a ``Fraction`` built as ``num / 2**exp``, with the exact
decimal and ``n/2^e`` formatters the CSV writers and the command line print.
Its arithmetic and comparisons are ``Fraction``'s, so a sum or difference is
a plain ``Fraction``.  The engines compute on scaled Python integers (a
weight after day t is an integer over 2^t, an adaptive value with r days
left an integer over 2^r) and build a ``Dyadic`` only for values handed to
callers.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic(Fraction):
    """An immutable rational ``num / 2**exp`` with ``exp >= 0``.

    ``Dyadic(num, exp)`` builds ``num / 2**exp``; ``Dyadic(x)`` converts a
    ``Fraction`` whose denominator is a power of two and rejects any other.
    The value is held in lowest terms: ``num`` is odd, or ``exp == 0``.
    """

    __slots__ = ()

    def __new__(cls, num, exp: int = 0):
        if exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {exp}")
        self = super().__new__(cls, num, 1 << exp)
        if self.denominator & (self.denominator - 1):
            raise ValueError(f"not a dyadic rational: {num!r}")
        return self

    @property
    def num(self) -> int:
        return self.numerator

    @property
    def exp(self) -> int:
        return self.denominator.bit_length() - 1

    # Fraction's versions build the value as cls(numerator, denominator),
    # which this constructor reads as numerator / 2**denominator.  Fraction
    # compares with a float through from_float.
    @classmethod
    def from_float(cls, f):
        return cls(Fraction.from_float(f))

    @classmethod
    def from_decimal(cls, dec):
        return cls(Fraction.from_decimal(dec))

    def __reduce__(self):
        return (type(self), (self.num, self.exp))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def decimal(self) -> str:
        """Exact terminating decimal expansion, no rounding.

        ``num / 2^e`` equals ``num * 5^e / 10^e``, so the expansion has at
        most ``exp`` fractional digits; an odd numerator means the final
        digit is never a removable zero.
        """
        num, exp = self.num, self.exp
        if exp == 0:
            return str(num)
        digits = str(abs(num) * 5**exp).rjust(exp + 1, "0")
        sign = "-" if num < 0 else ""
        return f"{sign}{digits[:-exp]}.{digits[-exp:]}"

    def interchange(self) -> str:
        """The exact interchange form ``n/2^e``."""
        return f"{self.num}/2^{self.exp}"

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self):
        return self.decimal()


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)
