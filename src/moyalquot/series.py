"""Truncated formal series in the deformation parameter h.

An HSeries of order N stores exactly N+1 rational-function coefficients over
one shared variable set; h itself is never a chart variable.  Mixed-order
arithmetic truncates to the smaller order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import OrderTooLarge, VariableMismatch
from .gaussian import GaussianRational
from .polynomial import coeff_term_text, join_signed
from .rational import RationalFunction


class HSeries:
    """Immutable h-truncated series with RationalFunction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalFunction]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the h^0 coefficient")
        head = cs[0].vars
        if "h" in head:
            raise VariableMismatch("'h' is the series parameter, never a chart variable")
        for c in cs[1:]:
            if c.vars != head:
                raise VariableMismatch("series coefficients do not share one variable set")
        self.coeffs = cs

    # -- builders -----------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], order: int) -> "HSeries":
        z = RationalFunction.zero(variables)
        return cls((z,) * (order + 1))

    @classmethod
    def constant(cls, value: RationalFunction, order: int = 0) -> "HSeries":
        z = RationalFunction.zero(value.vars)
        return cls((value,) + (z,) * order)

    @classmethod
    def one(cls, variables: Sequence[str], order: int = 0) -> "HSeries":
        return cls.constant(RationalFunction.one(variables), order)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str, order: int = 0) -> "HSeries":
        return cls.constant(RationalFunction.variable(variables, name), order)

    # -- structure ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.coeffs[0].vars

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncated(self, order: int) -> "HSeries":
        if order > self.order:
            raise OrderTooLarge(f"order {order} exceeds series order {self.order}")
        return HSeries(self.coeffs[: order + 1])

    def map_coefficients(self, fn: Callable[[RationalFunction], RationalFunction]) -> "HSeries":
        return HSeries(tuple(fn(c) for c in self.coeffs))

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other) -> "HSeries":
        if isinstance(other, HSeries):
            return other
        return HSeries.constant(self.coeffs[0]._coerce(other), self.order)

    def _align(self, other) -> Tuple["HSeries", "HSeries"]:
        other = self._coerce(other)
        if self.vars != other.vars:
            raise VariableMismatch(f"variable sets differ: {self.vars} vs {other.vars}")
        n = min(self.order, other.order)
        return self.truncated(n), other.truncated(n)

    def __add__(self, other):
        a, b = self._align(other)
        return HSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return HSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._align(other)
        return HSeries(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, RationalFunction)):
            return self.map_coefficients(lambda c: c * other)
        a, b = self._align(other)
        return HSeries(h_product(a.coeffs, b.coeffs, a.order + 1))

    __rmul__ = __mul__

    # -- comparison and formatting ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        pieces = [_series_term_text(c, k) for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return join_signed(pieces) if pieces else "0"

    def __repr__(self) -> str:
        return f"HSeries({self})"


def h_product(left: Sequence[RationalFunction], right: Sequence[RationalFunction],
              length: Optional[int] = None) -> List[RationalFunction]:
    """The product of two polynomials in h given by their coefficient lists:
    exact, or its first `length` coefficients."""
    out = [RationalFunction.zero(left[0].vars)] * (length or len(left) + len(right) - 1)
    for i, a in enumerate(left[: len(out)]):
        if a.is_zero():
            continue
        for j, b in enumerate(right[: len(out) - i]):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return out


def _series_term_text(coeff: RationalFunction, power: int) -> Tuple[str, str]:
    h = "" if power == 0 else ("h" if power == 1 else f"h^{power}")
    if coeff.den.is_one():
        poly = coeff.num
        if not h:
            return "+", str(poly)
        if len(poly.terms) == 1:
            exp, c = next(iter(poly.terms.items()))
            return coeff_term_text(c, "*".join(filter(None, (poly._monomial_text(exp), h))))
        return "+", f"({poly})*{h}"
    num, den = coeff.num, coeff.den
    sign = "+"
    if len(num.terms) == 1:
        c = next(iter(num.terms.values()))
        term_sign, _ = coeff_term_text(c, "")
        if term_sign == "-":
            sign = "-"
            num = -num
    frac = f"({num})/({den})"
    return sign, frac if not h else f"{frac}*{h}"


def hs_equal(a: HSeries, b: HSeries, upto: int) -> bool:
    """Exact coefficient equality through order `upto`."""
    if upto > a.order or upto > b.order:
        raise OrderTooLarge(f"order {upto} exceeds operand orders {a.order}, {b.order}")
    return a.coeffs[: upto + 1] == b.coeffs[: upto + 1]
