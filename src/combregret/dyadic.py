"""Exact arithmetic on dyadic rationals (rationals with power-of-two denominators).

Every probability in a balanced-branch game is a power of 1/2 and every daily
increment is an integer, so every game value is dyadic.  Arbitrary-precision
integer numerators keep long-horizon sums exact; at horizon 350 numerators can
run to hundreds of bits.

``Dyadic`` is the edge type: the engines compute on scaled Python integers
(a weight after day t is an integer over 2^t, an adaptive value with r days
left an integer over 2^r) and build a ``Dyadic`` only for values handed to
callers, the CSV writers and the command line.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """An immutable rational ``num / 2**exp`` with ``exp >= 0``.

    Canonical form: the fraction is in lowest terms, i.e. ``num`` is odd, or
    ``exp == 0`` (integers keep exponent zero), and zero is ``0 / 2**0``.
    Construction normalizes, so equal values always compare and hash equal.
    """

    __slots__ = ("num", "exp")

    num: int
    exp: int

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {exp}")
        if num == 0:
            exp = 0
        elif exp > 0:
            # strip shared factors of two, but never push exp below zero
            shift = min((num & -num).bit_length() - 1, exp)
            if shift:
                num >>= shift
                exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _coerce(other) -> "Dyadic | None":
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    # ------------------------------------------------------------------
    # comparison: shift to a common exponent, compare numerators

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Dyadic with {type(other).__name__}")
        if self.exp >= o.exp:
            a, b = self.num, o.num << (self.exp - o.exp)
        else:
            a, b = self.num << (o.exp - self.exp), o.num
        return (a > b) - (a < b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.exp == o.exp

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        # match the hash of the equal Fraction/int so mixed-key dicts behave
        return hash(self.as_fraction())

    def __bool__(self):
        return self.num != 0

    # ------------------------------------------------------------------
    # conversions

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        # int/int true division is correctly rounded even for huge numerators
        return self.num / (1 << self.exp)

    def decimal(self) -> str:
        """Exact terminating decimal expansion, no rounding.

        ``num / 2^e`` equals ``num * 5^e / 10^e``, so the expansion has at
        most ``exp`` fractional digits; an odd numerator means the final
        digit is never a removable zero.
        """
        if self.exp == 0:
            return str(self.num)
        scaled = abs(self.num) * 5**self.exp
        digits = str(scaled).rjust(self.exp + 1, "0")
        sign = "-" if self.num < 0 else ""
        return f"{sign}{digits[:-self.exp]}.{digits[-self.exp:]}"

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
