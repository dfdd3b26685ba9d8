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

    def rational_function(
        self,
        variables: Sequence[str],
        num_degree: int = 2,
        den_degree: int = 1,
        monomial_den: bool = False,
    ) -> RationalFunction:
        vs = tuple(variables)
        num = self.polynomial(vs, num_degree)
        if monomial_den:
            den = Polynomial.monomial(vs, self.exponent(len(vs), den_degree))
        else:
            den = self.polynomial(vs, den_degree, max_terms=2, allow_zero=False)
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

    def _shears(self, n: int):
        """A product of 2-4 shears [[I, S], [0, I]] or [[I, 0], [S, I]] in Sp(2n, Q(i)),
        each S symmetric with its upper triangle drawn row-major from SHEAR_POOL,
        in the interleaved (q1, p1, q2, p2, ...) basis; n = 1 gives SL(2)."""
        m = mat_identity(2 * n)
        for _ in range(self.rng.randint(2, 4)):
            params = [(a, b, self.shear_parameter()) for a in range(n) for b in range(a, n)]
            lower = self.rng.random() >= 0.5  # S below the diagonal: p_a += S_ab q_b
            shear = [list(row) for row in mat_identity(2 * n)]
            for a, b, t in params:
                shear[2 * a + lower][2 * b + 1 - lower] = t
                shear[2 * b + lower][2 * a + 1 - lower] = t
            m = mat_mul(m, shear)
        return m

    def mobius_det1_matrix(self):
        """Product of elementary shears in SL(2, Q(i))."""
        return self._shears(1)

    def symplectic(self, space: SymplecticSpace) -> LinearSymplectic:
        """A random element of Sp for a standard space."""
        return LinearSymplectic(self._shears(space.dim // 2), space)

    def permutation(self, d: int) -> Tuple[int, ...]:
        perm = list(range(1, d + 1))
        self.rng.shuffle(perm)
        return tuple(perm)
