"""Rational functions in canonical form: cancelled gcd, monic denominator.

Because the denominator is normalized to leading coefficient 1 under the
graded-lex order and the gcd is always cancelled, equality of values is
equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import SubstitutionPole, VariableMismatch, ZeroDenominator
from .gaussian import GaussianRational
from .polynomial import Polynomial, _content_in, poly_divexact, poly_gcd


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
        return rf_sum(self.vars, ((self.num, self.den), (other.num, other.den)), reduced=True)

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
        """(N' s - N t)/(D s), with g = gcd(D, D'), s = D/g and t = D'/g.

        A prime p of D that involves x, to the power e, divides D s once more
        than D, but not N t: not N (the input is reduced), not p' (lower degree
        in x), and not t, which is e p' times cofactors of p modulo p.  So only
        the content of D in x can cancel; it is all of D when D' = 0.
        """
        dn = self.num.derivative(name)
        if self.den.is_one():
            return RationalFunction._trusted(dn, self.den)
        dd = self.den.derivative(name)
        if dd.is_zero():
            return rf_normalize(dn, self.den)
        g = poly_gcd(self.den, dd)
        s, t = poly_divexact(self.den, g), poly_divexact(dd, g)
        num, den = dn * s - self.num * t, self.den * s
        content = _content_in(self.den, self.den._index(name))
        if not content.is_constant():
            common = poly_gcd(num, content)
            num, den = poly_divexact(num, common), poly_divexact(den, common)
        return RationalFunction._from_coprime(num, den)

    def substitute(self, bindings: Mapping[str, "RationalFunction"]) -> "RationalFunction":
        """Exact composition; every variable must be bound."""
        if not self.vars or set(bindings) != set(self.vars):
            raise VariableMismatch(
                f"bindings {sorted(bindings)} do not cover variables {self.vars}"
            )
        images = [bindings[name] for name in self.vars]
        if any(image.vars != images[0].vars for image in images):
            raise VariableMismatch("binding values do not share one variable set")
        num_val = self.num.compose(images)
        if self.den.is_one():
            return num_val
        den_val = self.den.compose(images)
        if den_val.is_zero():
            raise SubstitutionPole("denominator is identically zero after composition")
        return num_val / den_val

    def compose_linear(self, forms: Sequence[Polynomial]) -> "RationalFunction":
        """self after x_i -> forms[i], affine forms of an invertible map (see
        `affine_forms`).

        No gcd: a ring automorphism keeps numerator and denominator coprime."""
        if self.is_zero():
            return self
        powers: list = []  # the numerator's powers of the forms serve the denominator
        return RationalFunction._from_coprime(self.num.compose(forms, powers),
                                              self.den.compose(forms, powers))

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


def rf_sum(variables: Sequence[str], fractions: Iterable[Tuple[Polynomial, Polynomial]],
           reduced: bool = False) -> RationalFunction:
    """Canonical sum of the fractions num/den, den monic: one lcm, one normalization.

    With `reduced` the inputs are in lowest terms, so pairwise coprime
    denominators need no gcd: a prime of one divides every other term only.
    """
    num, den, coprime = Polynomial.zero(variables), Polynomial.one(variables), True
    for n, d in fractions:
        if n.is_zero():
            continue
        if num.is_zero():
            num, den = n, d
        elif d == den:
            num, coprime = num + n, coprime and den.is_one()
        elif den.is_one():
            num, den = num * d + n, d
        else:
            g = poly_gcd(den, d)
            coprime = coprime and g.is_one()
            d, cofactor = (d, den) if g.is_one() else (poly_divexact(d, g), poly_divexact(den, g))
            num, den = num * d + n * cofactor, den * d
    if reduced and coprime:
        return RationalFunction._from_coprime(num, den)
    return rf_normalize(num, den)
