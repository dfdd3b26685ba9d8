"""Chart-level geometry: the cotangent lift and the quadric cover.

The central coordinate change is the double cover

    sigma : (x, y) |-> (z, p) = (x/y, -y^2/2),

a symplectomorphism from the punctured plane modulo the sign involution onto
the punctured cotangent chart with form dp^dz.  Its inverse on invariant
functions substitutes x = z*y and replaces y^2 by -2p, which is well defined
exactly for functions even under (x, y) |-> (-x, -y).

Both directions are Laurent-monomial maps, so they act on one variable pair
as exponent rewrites of a canonical numerator and denominator:

    pull-back     z^a p^b  |->  (-1/2)^b x^a y^(2b-a),
    push-forward  x^a y^b  |->  z^a y^(a+b),  then y^(2k) |-> (-2)^k p^k.

No gcd is needed afterwards; clearing the power of y common to numerator
and denominator is the only cancellation.  x |-> z*y is unimodular on the
exponent lattice, an automorphism of Q(i)[x, y^+-1], so coprime inputs stay
coprime up to powers of y, and y^2 |-> -2p keeps coprimality because a
common factor in (z, p) would pull back to one in (z, y).  On the pull-back
side the image of Q(i)[z, p^+-1] is the subring of Q(i)[x, y^+-1] invariant
under (x, y) |-> (-x, -y); a common irreducible factor h of two images
would make the invariant norm h * h(-x, -y) a common factor of their
squares in that subring, which is a unit when the inputs are coprime up to
powers of p, so h is a monomial.  Other variables ride along as
coefficients.

M acting linearly on (x, y) covers its Mobius map, (Z, P) its cotangent lift:
sigma o M = (Z, det*P) o sigma.  atlas.transport relies on this identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import DegenerateMatrix, NotEven, VariableMismatch
from .gaussian import GaussianRational
from .polynomial import Polynomial
from .rational import RationalFunction


# -- the cotangent lift ----------------------------------------------------------


def cotangent_lift(
    matrix: Sequence[Sequence[object]], zp: Sequence[str] = ("z", "p")
) -> Tuple[RationalFunction, RationalFunction]:
    """The map of the cotangent chart induced by the Mobius map of `matrix`.

    Returns the pair (Z, P) with Z = (a z + b)/(c z + d) and
    P = p (c z + d)^2 / det, which is independent of the matrix scaling and
    preserves the tautological one-form p*dz.
    """
    (a, b), (c, d) = (map(GaussianRational.coerce, row) for row in matrix)
    det = a * d - b * c
    if det.is_zero():
        raise DegenerateMatrix("matrix determinant is zero")
    z, p = (Polynomial.variable(zp, v) for v in zp)
    den_z = z * c + d  # the constants are coerced onto the pair's variables
    big_z = RationalFunction(z * a + b, den_z)
    big_p = RationalFunction(p * den_z * den_z, Polynomial.constant(zp, det))
    return big_z, big_p


# -- the quadric double cover ------------------------------------------------------


def is_even(value: RationalFunction) -> bool:
    """Invariance under negating every variable at once.

    For a canonical num/den pair this holds iff both have terms of one
    total-degree parity each, with matching product parity even.
    """
    def parity(p: Polynomial) -> Optional[int]:
        parities = {sum(exp) % 2 for exp in p.terms}
        return parities.pop() if len(parities) == 1 else None

    if value.is_zero():
        return True
    pn = parity(value.num)
    return pn is not None and pn == parity(value.den)


def sigma_bindings(
    zp: Sequence[str] = ("z", "p"), xy: Sequence[str] = ("x", "y")
) -> Dict[str, RationalFunction]:
    """Bindings realizing (z, p) = (x/y, -y^2/2) for substitution."""
    x, y = (RationalFunction.variable(xy, v) for v in xy)
    return {zp[0]: x / y, zp[1]: y * y * Fraction(-1, 2)}


def _pair_rewrite(value, old, new, level, finish) -> RationalFunction:
    """Rewrite the exponents of one variable pair of a canonical num/den.

    The pair `old` is renamed to `new`.  A term with pair exponents (a, b)
    keeps a in the first slot; level(a, b) is its second-slot exponent before
    the power common to numerator and denominator is cleared, and
    finish(b, e), with e that exponent after clearing, gives the final
    second-slot exponent and a coefficient factor (None for 1).  The map on
    exponents is injective, so no two terms meet.
    """
    vs = value.vars
    if old[0] not in vs or old[1] not in vs:
        raise VariableMismatch(f"pair {old} is not part of {vs}")
    i, j = vs.index(old[0]), vs.index(old[1])
    renamed = dict(zip(old, new))
    target = tuple(renamed.get(v, v) for v in vs)
    if len(set(target)) != len(target):
        raise VariableMismatch(f"renaming {old} to {new} collides in {vs}")
    polys = (value.num.terms, value.den.terms)
    low = min(level(e[i], e[j]) for terms in polys for e in terms)

    def rewrite(terms) -> Polynomial:
        out = {}
        for exp, coeff in terms.items():
            e, factor = finish(exp[j], level(exp[i], exp[j]) - low)
            key = list(exp)
            key[j] = e
            out[tuple(key)] = coeff if factor is None else coeff * factor
        return Polynomial._raw(target, out)

    return RationalFunction._from_coprime(*(rewrite(terms) for terms in polys))


def sigma_pullback_pair(
    value: RationalFunction, zvar: str, pvar: str, xvar: str, yvar: str
) -> RationalFunction:
    """Pull one (z, p) pair back through the cover inside any variable tuple.

    z^a p^b becomes (-1/2)^b x^a y^(2b-a), with x and y in the slots of z
    and p; the names may coincide, as in z -> z/p, p -> -p^2/2.
    """

    def finish(b: int, e: int):
        return e, (GaussianRational(Fraction(-1, 2) ** b) if b else None)

    return _pair_rewrite(
        value, (zvar, pvar), (xvar, yvar), lambda a, b: 2 * b - a, finish
    )


def pushforward_even_pair(
    value: RationalFunction, xvar: str, yvar: str, zvar: str, pvar: str
) -> RationalFunction:
    """Invert the cover on one (x, y) pair inside any variable tuple.

    Substitutes x = z*y; by evenness in the pair the result is rational in
    y^2, and y^2 is then replaced by -2p.  Raises NotEven when an odd
    exponent survives.
    """

    def finish(b: int, e: int):
        if e % 2:
            raise NotEven(f"odd power of {yvar} after substitution")
        return e // 2, (GaussianRational((-2) ** (e // 2)) if e else None)

    return _pair_rewrite(value, (xvar, yvar), (zvar, pvar), lambda a, b: a + b, finish)
