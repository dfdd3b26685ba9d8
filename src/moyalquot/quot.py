"""The d-fold product star, symmetrization, and the quot cell.

The open cell carries d cotangent-chart pairs (z_i, p_i) plus d(r-1) flat
pairs (u_j, v_j): one symplectic space with two kinds of Darboux pair.  Its
product star is moyal_star on that space, which conjugates by its own copy
of the quadric cover on every chart pair and leaves the flat pairs alone;
for Laurent operands each chart pair is a kind of the Laurent kernel, and
the product never leaves the chart.  The chart star on T*X is its case of
one chart pair.  The symmetric group acts by permuting the chart pairs, and
the cell star is the product star restricted to invariant series, which it
preserves.  Laurent series stay in exponent form throughout: the Reynolds
operator is an orbit sum over exponent blocks (Sturmfels, Algorithms in
Invariant Theory, ch. 2), and invariance is checked term by term.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations as all_permutations
from math import factorial
from typing import Iterator, List, Sequence, Tuple

from .errors import BadPermutation, InvalidPoint, NotInvariant, OrderTooLarge, VariableMismatch
from .gaussian import GaussianRational
from .moyal import MoyalContext, SymplecticSpace, _from_laurent, _laurent_terms, moyal_star
from .polynomial import Polynomial, sum_terms
from .rational import RationalFunction
from .series import HSeries


@dataclass(frozen=True)
class ProductContext:
    """Coordinates and truncation data for the open cell.

    d chart pairs (z_i, p_i) with form dp^dz each, plus d(r-1) flat pairs
    (u_j, v_j) with {u_j, v_j} = 1; the total variable count is 2dr.  The
    pairs, the variables and their space are worked out once.
    """

    d: int
    r: int
    order: int
    chart_pairs: Tuple[Tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    flat_pairs: Tuple[Tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    vars: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    space: SymplecticSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise InvalidPoint(f"need d >= 1 and r >= 1, got d={self.d}, r={self.r}")
        if self.order < 0:
            raise OrderTooLarge("truncation order must be nonnegative")
        chart = tuple((f"z{i}", f"p{i}") for i in range(1, self.d + 1))
        flat = tuple((f"u{j}", f"v{j}") for j in range(1, self.d * (self.r - 1) + 1))
        space = SymplecticSpace.cotangent(chart, flat)
        for name, value in (("chart_pairs", chart), ("flat_pairs", flat),
                            ("vars", space.vars), ("space", space)):
            object.__setattr__(self, name, value)


def product_star(ctx: ProductContext, f: HSeries, g: HSeries) -> HSeries:
    """Star product of the block structure on the open cell."""
    return moyal_star(MoyalContext(ctx.space, ctx.order), f, g)


def permute(ctx: ProductContext, perm: Sequence[int], f: HSeries) -> HSeries:
    """Rename z_i -> z_L(i), p_i -> p_L(i); flat variables stay fixed."""
    p = tuple(perm)
    if sorted(p) != list(range(1, ctx.d + 1)):
        raise BadPermutation(f"{perm!r} is not a permutation of 1..{ctx.d}")
    if f.vars != ctx.vars:
        raise VariableMismatch(f"series must live on {ctx.vars}")
    slots = list(range(len(f.vars)))  # the new exponent of x_t is the old one of x_slots[t]
    for i, image in enumerate(p):
        slots[2 * image - 2:2 * image] = (2 * i, 2 * i + 1)

    def move(q: Polynomial) -> Polynomial:
        return Polynomial._raw(q.vars, {tuple(e[s] for s in slots): v for e, v in q.terms.items()})

    if list(p) == sorted(p):
        return f
    return f.map_coefficients(lambda c: RationalFunction._from_coprime(move(c.num), move(c.den)))


@dataclass(frozen=True)
class SymSeries:
    """A series on the cell, intended to be symmetric in the chart pairs."""

    value: HSeries


def _arrangements(counts: Counter, n: int) -> Iterator[Tuple]:
    """The distinct orderings of a multiset of n items, each once."""
    if not n:
        yield ()
    for item in [item for item, count in counts.items() if count]:
        counts[item] -= 1
        yield from ((item,) + rest for rest in _arrangements(counts, n - 1))
        counts[item] += 1


def symmetrize(ctx: ProductContext, f: HSeries) -> SymSeries:
    """The Reynolds operator: the average of f over the chart-pair permutations.

    A term of a Laurent coefficient goes to the mean of its orbit, the distinct
    rearrangements of its d chart-pair exponent blocks (flat exponents stay);
    the terms of one orbit are summed first, so each orbit is listed once and
    never d! images.  Other coefficients average their d! permuted copies."""
    if f.vars != ctx.vars:
        raise VariableMismatch(f"series must live on {ctx.vars}")
    d = ctx.d

    def average(c: RationalFunction) -> RationalFunction:
        if len(c.den.terms) != 1:
            copies = (permute(ctx, p, HSeries((c,))).coeffs[0]
                      for p in all_permutations(range(1, d + 1)))
            return sum(copies, RationalFunction.zero(c.vars)) * (GaussianRational(1) / factorial(d))
        orbits = sum_terms(
            ((tuple(sorted(zip(exp[0:2 * d:2], exp[1:2 * d:2]))), exp[2 * d:]), value)
            for exp, value in _laurent_terms(c)
        )
        terms = []
        for (blocks, flat), value in orbits.items():
            orbit = list(_arrangements(Counter(blocks), d))
            mean = value / len(orbit)
            terms += [(sum(image, ()) + flat, mean) for image in orbit]
        return _from_laurent(c.vars, terms)

    return SymSeries(f.map_coefficients(lambda c: c if c.is_zero() else average(c)))


def is_invariant(ctx: ProductContext, f: HSeries) -> bool:
    """Invariance under adjacent transpositions (they generate the group).

    Term by term, building no permuted copy: a transposition fixes the
    canonical N/D when it maps the terms of D and of N onto themselves times
    one sign, which is -1 for (z1 - z2)/(p1 - p2)."""
    if f.vars != ctx.vars:
        raise VariableMismatch(f"series must live on {ctx.vars}")

    def fixed(terms, i: int, flip: int) -> bool:
        return all(terms.get(e[:i] + e[i + 2:i + 4] + e[i:i + 2] + e[i + 4:]) == (-v if flip else v)
                   for e, v in terms.items())

    return all(any(fixed(c.den.terms, i, flip) and fixed(c.num.terms, i, flip) for flip in (0, 1))
               for i in range(0, 2 * ctx.d - 2, 2) for c in f.coeffs)


def quot_cell_star(ctx: ProductContext, f: SymSeries, g: SymSeries) -> SymSeries:
    """The assembled star product on invariant series of the open cell."""
    for name, operand in (("left", f), ("right", g)):
        if not is_invariant(ctx, operand.value):
            raise NotInvariant(f"{name} operand is not invariant")
    return SymSeries(product_star(ctx, f.value, g.value))


# -- cell points ---------------------------------------------------------------------


@dataclass(frozen=True)
class QuotCellPoint:
    """Coordinates of a point of the open cell.

    `support` holds the d chart base coordinates, `covectors` the d fiber
    coordinates, and `flat` the d(r-1) pairs (u_j, v_j).
    """

    support: Tuple[GaussianRational, ...]
    covectors: Tuple[GaussianRational, ...]
    flat: Tuple[Tuple[GaussianRational, GaussianRational], ...] = ()

    def __post_init__(self):
        coerce = GaussianRational.coerce
        object.__setattr__(self, "support", tuple(map(coerce, self.support)))
        object.__setattr__(self, "covectors", tuple(map(coerce, self.covectors)))
        object.__setattr__(self, "flat", tuple((coerce(a), coerce(b)) for a, b in self.flat))
        if len(self.support) != len(self.covectors):
            raise InvalidPoint(
                f"{len(self.support)} support entries vs {len(self.covectors)} covectors"
            )
        if not self.support:
            raise InvalidPoint("a cell point needs d >= 1")
        if len(self.flat) % self.d:
            raise InvalidPoint(f"{len(self.flat)} flat pairs is not d(r-1) at d = {self.d}")

    @property
    def d(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class ValidationReport:
    """The issues a validator found in one `subject`, such as an atlas or a point."""

    subject: str
    issues: Tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.issues

    def render_text(self) -> str:
        if self.valid:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: invalid ({len(self.issues)} issues)"]
        lines.extend(f"  {issue}" for issue in self.issues)
        return "\n".join(lines)

    def to_document(self) -> dict:
        return {"valid": self.valid, "issues": list(self.issues)}


def quot_point_validate(pt: QuotCellPoint) -> ValidationReport:
    """Report duplicate support points and vanishing covectors."""
    issues: List[str] = []
    for i in range(pt.d):
        for j in range(i + 1, pt.d):
            if pt.support[i] == pt.support[j]:
                issues.append(f"DuplicateSupport: z{i + 1} = z{j + 1} = {pt.support[i]}")
    for i, covector in enumerate(pt.covectors, start=1):
        if covector.is_zero():
            issues.append(f"ZeroCovector: p{i} = 0")
    return ValidationReport("point", tuple(issues))


def support_divisor(pt: QuotCellPoint) -> Counter:
    """The underlying degree-d divisor, forgetting covector and flat data."""
    report = quot_point_validate(pt)
    if not report.valid:
        raise InvalidPoint("; ".join(report.issues))
    return Counter(pt.support)
