"""Rational functions in canonical form: cancelled gcd, monic denominator.

Because the denominator is normalized to leading coefficient 1 under the
graded-lex order and the gcd is always cancelled, equality of values is
equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .errors import SubstitutionPole, VariableMismatch, ZeroDenominator
from .gaussian import GaussianRational
from .polynomial import Polynomial, poly_divexact, poly_gcd


class RationalFunction:
    """Immutable quotient of two polynomials, always canonical."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        normalized = rf_normalize(num, den)
        self.num = normalized.num
        self.den = normalized.den

    @classmethod
    def _trusted(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def _from_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Skip the gcd for inputs already known coprime; re-normalize scale."""
        if den.is_zero():
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero():
            return cls._trusted(num, Polynomial.one(num.vars))
        lc = den.leading_coefficient()
        if not lc.is_one():
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        return cls._trusted(num, den)

    # -- builders -------------------------------------------------------------

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls._trusted(p, Polynomial.one(p.vars))

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.constant(variables, value))

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.zero(variables))

    @classmethod
    def one(cls, variables: Sequence[str]) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.one(variables))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.variable(variables, name))

    # -- predicates -------------------------------------------------------------

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.num.vars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num.constant_value()

    def _check_same_vars(self, other: "RationalFunction"):
        if self.vars != other.vars:
            raise VariableMismatch(f"variable sets differ: {self.vars} vs {other.vars}")

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction.constant(self.vars, other)
        raise TypeError(f"cannot combine rational function with {other!r}")

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same_vars(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return rf_normalize(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_one():
            num = self.num * other.den + other.num * self.den
            return RationalFunction._from_coprime(num, self.den * other.den)
        d1 = poly_divexact(self.den, g)
        d2 = poly_divexact(other.den, g)
        num = self.num * d2 + other.num * d1
        return rf_normalize(num, self.den * d2)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._trusted(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if c.is_zero():
                return RationalFunction.zero(self.vars)
            return RationalFunction._trusted(self.num * c, self.den)
        other = self._coerce(other)
        self._check_same_vars(other)
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero(self.vars)
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        num = poly_divexact(self.num, g1) * poly_divexact(other.num, g2)
        den = poly_divexact(self.den, g2) * poly_divexact(other.den, g1)
        return RationalFunction._from_coprime(num, den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDenominator("reciprocal of zero")
        return RationalFunction._from_coprime(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        result = RationalFunction.one(self.vars)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus -----------------------------------------------------------------

    def derivative(self, name: str) -> "RationalFunction":
        dn = self.num.derivative(name)
        if self.den.is_one():
            return RationalFunction._trusted(dn, self.den)
        dd = self.den.derivative(name)
        num = dn * self.den - self.num * dd
        return rf_normalize(num, self.den * self.den)

    def substitute(self, bindings: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        """Exact composition; every variable must be bound."""
        if set(bindings) != set(self.vars):
            raise VariableMismatch(
                f"bindings {sorted(bindings)} do not cover variables {self.vars}"
            )
        values = {name: bindings[name] for name in self.vars}
        target = None
        for value in values.values():
            if target is None:
                target = value.vars
            elif value.vars != target:
                raise VariableMismatch("binding values do not share one variable set")
        cache: Dict[Tuple[str, int], RationalFunction] = {}
        num_val = _eval_poly(self.num, values, target, cache)
        if self.den.is_one():
            return num_val
        den_val = _eval_poly(self.den, values, target, cache)
        if den_val.is_zero():
            raise SubstitutionPole("denominator is identically zero after composition")
        return num_val / den_val

    # -- comparison and formatting ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _eval_poly(
    p: Polynomial,
    bindings: Mapping[str, RationalFunction],
    target: Tuple[str, ...],
    cache: Dict[Tuple[str, int], RationalFunction],
) -> RationalFunction:
    total = RationalFunction.zero(target)
    for exp, coeff in p.terms.items():
        term = RationalFunction.constant(target, coeff)
        for name, e in zip(p.vars, exp):
            if not e:
                continue
            key = (name, e)
            power = cache.get(key)
            if power is None:
                base = cache.get((name, 1))
                if base is None:
                    base = bindings[name]
                    cache[(name, 1)] = base
                power = cache.get((name, e - 1), None)
                power = (power * base) if power is not None else base ** e
                cache[key] = power
            term = term * power
        total = total + term
    return total


# -- operation-level entry points ----------------------------------------------


def rf_normalize(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Canonical form of num/den: cancelled gcd, monic denominator."""
    num._check_same_vars(den)
    if den.is_zero():
        raise ZeroDenominator("denominator is identically zero")
    if num.is_zero():
        return RationalFunction._trusted(num, Polynomial.one(num.vars))
    g = poly_gcd(num, den)
    if not g.is_one():
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    return RationalFunction._from_coprime(num, den)
