"""Exact Gaussian rationals: (a + b*i) / den with integer components.

The triple is kept normalized (gcd(a, b, den) = 1, den > 0), so equality is
component-wise and hashing is consistent with it.  A shared denominator
needs one gcd per arithmetic result, roughly halving the normalization work
of a pair of Fractions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd as _int_gcd, lcm
from typing import Optional, Union

from .errors import DomainError

Rationalish = Union[int, Fraction]


class GaussianRational:
    """Immutable element of Q(i)."""

    __slots__ = ("a", "b", "den")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if isinstance(re, int) and isinstance(im, int):
            self.a = re
            self.b = im
            self.den = 1
            return
        fre, fim = Fraction(re), Fraction(im)
        den = lcm(fre.denominator, fim.denominator)
        self.a = fre.numerator * (den // fre.denominator)
        self.b = fim.numerator * (den // fim.denominator)
        self.den = den

    @classmethod
    def _raw(cls, a: int, b: int, den: int) -> "GaussianRational":
        value = object.__new__(cls)
        value.a = a
        value.b = b
        value.den = den
        return value

    @classmethod
    def _make(cls, a: int, b: int, den: int) -> "GaussianRational":
        g = _int_gcd(a, b, den)
        if g > 1:
            a //= g
            b //= g
            den //= g
        return cls._raw(a, b, den)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        result = cls._try_coerce(value)
        if result is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return result

    @classmethod
    def _try_coerce(cls, value) -> Optional["GaussianRational"]:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return cls._raw(value, 0, 1)
        if isinstance(value, Fraction):
            return cls._raw(value.numerator, 0, value.denominator)
        return None

    # -- components -------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.den)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0 and self.den == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(
            self.a * other.den + other.a * self.den,
            self.b * other.den + other.b * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._raw(-self.a, -self.b, self.den)

    def __sub__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(
            self.a * other.den - other.a * self.den,
            self.b * other.den - other.b * self.den,
            self.den * other.den,
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._make(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.a * self.a + self.b * self.b
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational._make(self.den * self.a, -self.den * self.b, n)

    def __truediv__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = GaussianRational._try_coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        return hash((self.a, self.b, self.den))

    # -- formatting ------------------------------------------------------

    def check_printable(self) -> None:
        """Refuse a value whose decimal text passes the interpreter's digit limit."""
        # the limit, and sys.get_int_max_str_digits, came with Python 3.11
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        # 2^(3.32 * limit) < 10^limit, and reduced parts are no larger than a, b, den
        if not limit or max(abs(self.a), abs(self.b), self.den).bit_length() <= 3.32 * limit:
            return
        for part in (self.re, self.im):
            if max(abs(part.numerator), part.denominator) >= 10 ** limit:
                raise DomainError(f"a number has more than {limit} digits, too many to print")

    def __str__(self) -> str:
        self.check_printable()
        if self.is_zero():
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.re))
        if self.b:
            im = self.im
            if im == 1:
                imag = "i"
            elif im == -1:
                imag = "-i"
            else:
                imag = f"{im}*i"
            if parts and self.b > 0:
                parts.append(f"+{imag}")
            else:
                parts.append(imag)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
