"""Deterministic sample streams for the verification suites.

Every generator draws from a `random.Random` seeded with a string, so a
(seed, label) pair fully determines the stream across platforms.  Symplectic
and Mobius samples are products of elementary determinant-1 shears with
parameters from a small exact pool, which guarantees group membership
without any root extraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Tuple

from .gaussian import GaussianRational
from .moyal import LinearSymplectic, SymplecticSpace, mat_mul, mat_identity
from .polynomial import Polynomial
from .rational import RationalFunction
from .series import HSeries

# parameter pool for elementary group generators
SHEAR_POOL: Tuple[GaussianRational, ...] = (
    GaussianRational(0),
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(1, 1),
)

# coefficient pool for random polynomials
COEFF_POOL: Tuple[GaussianRational, ...] = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational(-2),
    GaussianRational(3),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(1, 1),
    GaussianRational(1, -1),
)


class SampleStream:
    """A deterministic stream of exact random algebra values."""

    def __init__(self, seed):
        self.rng = random.Random(str(seed))

    # -- scalars ------------------------------------------------------------

    def coefficient(self) -> GaussianRational:
        return self.rng.choice(COEFF_POOL)

    def shear_parameter(self) -> GaussianRational:
        return self.rng.choice(SHEAR_POOL)

    def gaussian(self, span: int = 3) -> GaussianRational:
        return GaussianRational(
            Fraction(self.rng.randint(-span, span), self.rng.randint(1, 2)),
            Fraction(self.rng.randint(-span, span), self.rng.randint(1, 2)),
        )

    # -- polynomials and rational functions -------------------------------------

    def exponent(self, nvars: int, max_degree: int) -> Tuple[int, ...]:
        total = self.rng.randint(0, max_degree)
        exp = [0] * nvars
        for _ in range(total):
            exp[self.rng.randrange(nvars)] += 1
        return tuple(exp)

    def polynomial(
        self,
        variables: Sequence[str],
        max_degree: int,
        max_terms: int = 4,
        allow_zero: bool = True,
    ) -> Polynomial:
        vs = tuple(variables)
        terms = {}
        for _ in range(self.rng.randint(1, max_terms)):
            terms[self.exponent(len(vs), max_degree)] = self.coefficient()
        p = Polynomial(vs, terms)
        if p.is_zero() and not allow_zero:
            return Polynomial.one(vs) + p
        return p

    def nonzero_polynomial(self, variables, max_degree, max_terms: int = 4) -> Polynomial:
        return self.polynomial(variables, max_degree, max_terms, allow_zero=False)

    def monomial(self, variables: Sequence[str], max_degree: int) -> Polynomial:
        vs = tuple(variables)
        return Polynomial.monomial(vs, self.exponent(len(vs), max_degree))

    def rational_function(
        self,
        variables: Sequence[str],
        num_degree: int = 2,
        den_degree: int = 1,
        monomial_den: bool = False,
    ) -> RationalFunction:
        num = self.polynomial(variables, num_degree)
        if monomial_den:
            den = self.monomial(variables, den_degree)
        else:
            den = self.nonzero_polynomial(variables, den_degree, max_terms=2)
        return RationalFunction(num, den)

    def even_polynomial(self, variables: Sequence[str], max_degree: int, max_terms: int = 4) -> Polynomial:
        """Even-total-degree terms: invariant under negating all variables."""
        vs = tuple(variables)
        terms = {}
        for _ in range(self.rng.randint(1, max_terms)):
            while True:
                exp = self.exponent(len(vs), max_degree)
                if sum(exp) % 2 == 0:
                    terms[exp] = self.coefficient()
                    break
        return Polynomial(vs, terms)

    def series(
        self,
        variables: Sequence[str],
        order: int,
        max_degree: int = 3,
        h_terms: int = 2,
    ) -> HSeries:
        """A series with random polynomial coefficients at a few low h-powers."""
        vs = tuple(variables)
        zero = RationalFunction.zero(vs)
        coeffs = [zero] * (order + 1)
        used = min(h_terms, order + 1)
        for power in range(used):
            coeffs[power] = RationalFunction.from_polynomial(
                self.polynomial(vs, max_degree)
            )
        return HSeries(coeffs)

    # -- group elements -----------------------------------------------------------

    def mobius_det1_matrix(self):
        """Product of elementary shears in SL(2, Q(i))."""
        m = mat_identity(2)
        for _ in range(self.rng.randint(2, 4)):
            t = self.shear_parameter()
            if self.rng.random() < 0.5:
                shear = ((GaussianRational(1), t), (GaussianRational(0), GaussianRational(1)))
            else:
                shear = ((GaussianRational(1), GaussianRational(0)), (t, GaussianRational(1)))
            m = mat_mul(m, shear)
        return m

    def symplectic(self, space: SymplecticSpace) -> LinearSymplectic:
        """A random element of Sp for the 2- or 4-dimensional standard space."""
        if space.dim == 2:
            return LinearSymplectic(self.mobius_det1_matrix(), space)
        if space.dim == 4:
            return LinearSymplectic(self._symplectic4_matrix(), space)
        raise ValueError("samples are implemented for dimensions 2 and 4")

    def _symplectic4_matrix(self):
        # Build in the (x1, x2, y1, y2) basis where the form is [[0, I], [-I, 0]]:
        # [[I, S], [0, I]] and [[I, 0], [S, I]] are symplectic for symmetric S.
        zero, one = GaussianRational(0), GaussianRational(1)
        m = mat_identity(4)
        for _ in range(self.rng.randint(2, 4)):
            s00, s01, s11 = (self.shear_parameter() for _ in range(3))
            if self.rng.random() < 0.5:
                gen = (
                    (one, zero, s00, s01),
                    (zero, one, s01, s11),
                    (zero, zero, one, zero),
                    (zero, zero, zero, one),
                )
            else:
                gen = (
                    (one, zero, zero, zero),
                    (zero, one, zero, zero),
                    (s00, s01, one, zero),
                    (s01, s11, zero, one),
                )
            m = mat_mul(m, gen)
        # reindex from (x1, x2, y1, y2) to the interleaved (x1, y1, x2, y2)
        sigma = (0, 2, 1, 3)
        return tuple(tuple(m[sigma[i]][sigma[j]] for j in range(4)) for i in range(4))

    def permutation(self, d: int) -> Tuple[int, ...]:
        perm = list(range(1, d + 1))
        self.rng.shuffle(perm)
        return tuple(perm)
