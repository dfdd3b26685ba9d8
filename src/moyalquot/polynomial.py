"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is an ordered tuple of variable names together with a dict
mapping exponent vectors (one int per variable) to nonzero GaussianRational
coefficients; the zero polynomial stores no terms.  The term order used for
printing, leading-term extraction and canonical forms is graded lexicographic
with respect to the declared variable order.

Sums of terms go through one accumulator, `sum_terms`, which drops the
coefficients that sum to zero once, at the end.  Composition with polynomial
images sums in Gaussian integers instead: `integer_terms` puts coefficients
over their lcm, as the Laurent kernel also takes them, and each output term
is summed over one common denominator and normalized once.

The gcd has two fast paths that dominate in practice: extraction of a
common monomial factor, and a direct exact-division test when one argument
may divide the other.  With one variable it runs the Euclidean algorithm on
the sparse terms; otherwise it splits off the content in a main variable and
takes the gcd of the primitive parts by Brown's evaluation/interpolation
algorithm, certified by exact division.  There is no pseudo-remainder (PRS)
fallback: the evaluation loop always ends, since only finitely many points
are unlucky.  A primitive-PRS gcd in place of Brown's algorithm would be
shorter, but it took 2.1 s instead of 0.6 s on the 692 gcds of a seed-1
`flat-rational` benchmark round, and over 2 s on single calls that Brown's
algorithm ends in 9 ms.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import lcm
from operator import add, mul
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import UnknownVariable, VariableMismatch, ZeroDenominator
from .gaussian import GaussianRational, ONE as G_ONE, ZERO as G_ZERO

Exponent = Tuple[int, ...]
Terms = Dict[Exponent, GaussianRational]


def _grlex_key(exp: Exponent):
    return (sum(exp), exp)


def sum_terms(pairs: Iterable[Tuple[Hashable, GaussianRational]]) -> dict:
    """The (key, coefficient) pairs with the coefficients of equal keys summed.

    Sparse term sums go through here, all but exact division's heap walk,
    which must see a cancelled term at once; sums that come to zero are
    dropped once, at the end."""
    out: dict = {}
    for key, coeff in pairs:
        out[key] = out[key] + coeff if key in out else coeff
    return {key: c for key, c in out.items() if not c.is_zero()}


def integer_terms(pairs: Iterable[Tuple[Hashable, GaussianRational]]) -> Tuple[int, list]:
    """(den, [(key, a, b)]): the coefficients of the (key, coefficient) pairs
    as Gaussian integers a + b*i over their lcm den."""
    pairs = list(pairs)
    den = lcm(*(c.den for _, c in pairs))
    return den, [(key, c.a * (den // c.den), c.b * (den // c.den)) for key, c in pairs]


def _add_scaled(acc: dict, terms: list, shift: Exponent, ca: int, cb: int) -> None:
    """Add (ca + cb*i) x^shift times the integer terms (exponent, a, b) into
    acc: exponent -> [a, b]; an empty shift adds them in place."""
    for e, a, b in terms:
        key = tuple(map(add, e, shift)) if shift else e
        if key in acc:
            cell = acc[key]
            cell[0] += a * ca - b * cb
            cell[1] += a * cb + b * ca
        else:
            acc[key] = [a * ca - b * cb, a * cb + b * ca]


def _integer_product(x: Tuple[int, list], y: Tuple[int, list]) -> Tuple[int, list]:
    """The product of two polynomials held as `integer_terms`."""
    acc: Dict[Exponent, List[int]] = {}
    for e, a, b in x[1]:
        _add_scaled(acc, y[1], e, a, b)
    return x[0] * y[0], [(e, a, b) for e, (a, b) in acc.items() if a or b]


class Polynomial:
    """Immutable sparse polynomial over Q(i)."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, object]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise VariableMismatch(f"duplicate variable names in {vs}")
        cleaned: Terms = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != len(vs):
                raise VariableMismatch(
                    f"exponent vector {exp} does not match variables {vs}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = GaussianRational.coerce(coeff)
            if not c.is_zero():
                cleaned[exp] = c
        self.vars = vs
        self.terms = cleaned
        self._hash = None

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: Terms) -> "Polynomial":
        """Trusted constructor: terms already clean and matching."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        p._hash = None
        return p

    # -- builders ----------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls._raw(tuple(variables), {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        vs = tuple(variables)
        c = GaussianRational.coerce(value)
        if c.is_zero():
            return cls._raw(vs, {})
        return cls._raw(vs, {(0,) * len(vs): c})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        vs = tuple(variables)
        if name not in vs:
            raise UnknownVariable(f"{name!r} is not one of {vs}")
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return cls._raw(vs, {tuple(exp): G_ONE})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponents: Exponent, coeff=1) -> "Polynomial":
        return cls(tuple(variables), {tuple(exponents): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        zero_exp = (0,) * len(self.vars)
        return set(self.terms) == {zero_exp} and self.terms[zero_exp].is_one()

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return G_ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    # -- degrees and leading data -------------------------------------------

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self._index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def leading_exponent(self) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> GaussianRational:
        return self.terms[self.leading_exponent()]

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        if lc.is_one():
            return self
        inv = lc.inverse()
        return Polynomial._raw(self.vars, {e: c * inv for e, c in self.terms.items()})

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} is not one of {self.vars}") from None

    def _check_same_vars(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableMismatch(f"variable sets differ: {self.vars} vs {other.vars}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce_operand(other)
        self._check_same_vars(other)
        terms = sum_terms(chain(self.terms.items(), other.terms.items()))
        return Polynomial._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(other)
            if c.is_zero():
                return Polynomial.zero(self.vars)
            return Polynomial._raw(self.vars, {e: v * c for e, v in self.terms.items()})
        other = self._coerce_operand(other)
        self._check_same_vars(other)
        return Polynomial._raw(self.vars, sum_terms(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        result = Polynomial.one(self.vars)
        for _ in range(exponent):
            result = result * self
        return result

    def _coerce_operand(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(self.vars, other)
        raise TypeError(f"cannot combine polynomial with {other!r}")

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        # lowering one exponent maps distinct terms to distinct terms: no sum
        idx = self._index(name)
        return Polynomial._raw(self.vars, {
            exp[:idx] + (exp[idx] - 1,) + exp[idx + 1:]: coeff * exp[idx]
            for exp, coeff in self.terms.items() if exp[idx]
        })

    def compose(self, images: Sequence, powers: Optional[list] = None):
        """Put images[i] for variable i; the result has the images' kind, polynomial or rational.

        `powers` keeps the powers of the images built so far, for later calls
        with the same images.  For polynomial images its rows hold each power
        as Gaussian integers over one denominator (see `integer_terms`), and
        every output term is summed in integers over one common denominator
        and normalized once, with no Gaussian product in the loop."""
        target = images[0].vars
        polynomial = isinstance(images[0], Polynomial)
        if powers is None:
            powers = []
        if not powers:
            powers.extend([None, integer_terms(image.terms.items()) if polynomial else image]
                          for image in images)
        if polynomial:
            unit, times = (1, [((0,) * len(target), 1, 0)]), _integer_product
        else:
            unit, times = type(images[0]).one(target), mul
        monomials = []
        for exp, coeff in self.terms.items():
            mono = unit
            for row, e in zip(powers, exp):
                if e:
                    while len(row) <= e:
                        row.append(times(row[-1], row[1]))
                    mono = row[e] if mono is unit else times(mono, row[e])
            monomials.append((mono, coeff))
        if not polynomial:
            from .rational import rf_sum  # rational functions are built on this module

            return rf_sum(target, ((mono.num * coeff, mono.den) for mono, coeff in monomials),
                          reduced=True)
        common = lcm(*(den * coeff.den for (den, _), coeff in monomials))
        acc: Dict[Exponent, List[int]] = {}
        for (den, terms), coeff in monomials:
            scale = common // (den * coeff.den)
            _add_scaled(acc, terms, (), coeff.a * scale, coeff.b * scale)
        return Polynomial._raw(target, {e: GaussianRational._make(a, b, common)
                                        for e, (a, b) in acc.items() if a or b})

    # -- variable plumbing -----------------------------------------------------

    def with_variables(self, variables: Sequence[str]) -> "Polynomial":
        """Re-express over a superset (or reordering) of the current variables."""
        if not self.vars:
            return Polynomial.constant(variables, self.constant_value())
        return self.compose([Polynomial.variable(variables, name) for name in self.vars])

    # -- comparison and formatting ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:  # the terms are never changed after construction
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def _monomial_text(self, exp: Exponent) -> str:
        factors = []
        for name, e in zip(self.vars, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return join_signed(
            [coeff_term_text(self.terms[exp], self._monomial_text(exp))
             for exp in sorted(self.terms, key=_grlex_key, reverse=True)]
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.vars!r}, {self})"


def _fraction_text(value: Fraction) -> str:
    text = str(value)
    if value.denominator != 1:
        return f"({text})"
    return text


def join_signed(pieces: Sequence[Tuple[str, str]]) -> str:
    """Join (sign, body) terms as `a - b + c`, the first sign written only if negative."""
    (sign, body), rest = pieces[0], pieces[1:]
    return "".join([body if sign == "+" else f"-{body}"] + [f" {s} {b}" for s, b in rest])


def coeff_term_text(coeff: GaussianRational, monomial: str) -> Tuple[str, str]:
    """Render coeff*monomial as (sign, body) with the sign pulled out."""
    coeff.check_printable()
    re, im = coeff.re, coeff.im
    if im == 0:
        sign = "+" if re >= 0 else "-"
        mag = abs(re)
        if monomial:
            body = monomial if mag == 1 else f"{_fraction_text(mag)}*{monomial}"
        else:
            body = str(mag)
        return sign, body
    if re == 0:
        sign = "+" if im >= 0 else "-"
        base = _imag_text(abs(im))
        return sign, f"{base}*{monomial}" if monomial else base
    # mixed a + b*i: extract the sign of the real part
    sign = "+" if re > 0 else "-"
    c = coeff if re > 0 else -coeff
    if c.im > 0:
        inner = f"{c.re} + {_imag_text(c.im)}"
    else:
        inner = f"{c.re} - {_imag_text(-c.im)}"
    body = f"({inner})"
    return sign, f"{body}*{monomial}" if monomial else body


def _imag_text(mag: Fraction) -> str:
    return "i" if mag == 1 else f"{_fraction_text(mag)}*i"


def affine_forms(variables: Sequence[str], rows) -> list:
    """sum_j row[j] x_j + row[n] for each row of n coefficients and then a constant."""
    vs = tuple(variables)
    zero = (0,) * len(vs)
    return [  # x_j on its unit exponent, the constant on zero
        Polynomial._raw(vs, {(zero[:j] + (1,) + zero[j + 1:] if j < len(vs) else zero): c
                             for j, c in enumerate(row) if not c.is_zero()})
        for row in rows
    ]


# -- exact division -----------------------------------------------------------


def poly_try_divexact(p: Polynomial, d: Polynomial) -> Optional[Polynomial]:
    """Quotient p/d when d divides p exactly, else None."""
    p._check_same_vars(d)
    if d.is_zero():
        raise ZeroDenominator("division by the zero polynomial")
    if d.is_constant():  # one multiply per term instead of the heap walk below
        return p * d.constant_value().inverse()
    d_lead = max(d.terms, key=_grlex_key)
    d_coeff = d.terms[d_lead]
    remainder = dict(p.terms)
    # the remainder's exponents, greatest first; an entry whose term has
    # cancelled is skipped when it comes up
    heap = [_heap_key(e) for e in remainder]
    heapify(heap)
    quotient: Terms = {}
    while remainder:
        r_lead = heappop(heap)[-1]
        if r_lead not in remainder:
            continue
        diff = tuple(a - b for a, b in zip(r_lead, d_lead))
        if any(e < 0 for e in diff):
            return None
        c = remainder[r_lead] / d_coeff
        quotient[diff] = c
        for exp, coeff in d.terms.items():
            key = tuple(a + b for a, b in zip(exp, diff))
            old = remainder.get(key)
            v = (G_ZERO if old is None else old) - coeff * c
            if v.is_zero():
                remainder.pop(key, None)
            else:
                if old is None:
                    heappush(heap, _heap_key(key))
                remainder[key] = v
    return Polynomial._raw(p.vars, quotient)


def _heap_key(exp: Exponent):
    """Sorts the graded-lex greatest exponent first, and carries it."""
    return (-sum(exp), tuple(-e for e in exp), exp)


def poly_divexact(p: Polynomial, d: Polynomial) -> Polynomial:
    q = poly_try_divexact(p, d)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


# -- gcd ----------------------------------------------------------------------


def _occurring(p: Polynomial) -> frozenset:
    """The indices of the variables that p uses."""
    return frozenset(idx for exp in p.terms for idx, e in enumerate(exp) if e)


def _min_exponents(p: Polynomial) -> Exponent:
    """The exponents of the greatest monomial that divides p, nonzero."""
    return tuple(map(min, zip(*p.terms)))


def _shift_down(p: Polynomial, shift: Exponent) -> Polynomial:
    if not any(shift):
        return p
    return Polynomial._raw(
        p.vars,
        {tuple(a - b for a, b in zip(exp, shift)): c for exp, c in p.terms.items()},
    )


def _univar_gcd(p: Polynomial, q: Polynomial, idx: int) -> Polynomial:
    """Euclid on the terms of p and q, nonzero and in the variable at idx alone.

    Each divisor is made monic, which keeps coefficient sizes tame; with one
    variable the exponent tuples order as their degrees."""
    a, b = p, q.monic()
    while b.terms:
        rem, top = a.terms, max(b.terms)
        while rem and (lead := max(rem)) >= top:
            # the shifted divisor cancels the leading term of the remainder
            shift = tuple(x - y for x, y in zip(lead, top))
            factor = -rem[lead]
            rem = sum_terms(chain(rem.items(), (
                (tuple(x + y for x, y in zip(e, shift)), factor * c) for e, c in b.terms.items()
            )))
        a, b = b, Polynomial._raw(p.vars, rem).monic()
    return a


def _coefficients_in(p: Polynomial, idx: int) -> Dict[int, Polynomial]:
    buckets: Dict[int, Terms] = {}
    for exp, coeff in p.terms.items():
        e = exp[idx]
        stripped = list(exp)
        stripped[idx] = 0
        buckets.setdefault(e, {})[tuple(stripped)] = coeff
    return {e: Polynomial._raw(p.vars, t) for e, t in buckets.items()}


def _lead_in(p: Polynomial, idx: int) -> Polynomial:
    """Leading coefficient in the variable at idx."""
    coeffs = _coefficients_in(p, idx)
    return coeffs[max(coeffs)]


def _content_in(p: Polynomial, idx: int) -> Polynomial:
    parts = _coefficients_in(p, idx).values()
    if any(part.is_constant() for part in parts):
        return Polynomial.one(p.vars)
    content = Polynomial.zero(p.vars)
    for part in parts:
        content = poly_gcd(content, part)
        if content.is_constant():
            break
    return content


def _primitive_in(p: Polynomial, idx: int) -> Polynomial:
    content = _content_in(p, idx)
    if content.is_one():
        return p
    return poly_divexact(p, content)


def _eval_var(p: Polynomial, idx: int, t: GaussianRational) -> Polynomial:
    """Partial evaluation of one variable; the tuple keeps its slot at 0."""
    powers = [t ** e for e in range(p.degree_in(p.vars[idx]) + 1)]
    return Polynomial._raw(p.vars, sum_terms(
        (exp[:idx] + (0,) + exp[idx + 1:], coeff * powers[exp[idx]])
        for exp, coeff in p.terms.items()
    ))


def _interpolate(images, vidx: int, variables: Tuple[str, ...]) -> Polynomial:
    """Newton interpolation in one variable with polynomial values."""
    coeffs: list = []
    nodes: list = []
    for t, value in images:
        acc = value
        basis_at_t = G_ONE
        for c, tl in zip(coeffs, nodes):
            acc = acc - c * basis_at_t
            basis_at_t = basis_at_t * (t - tl)
        coeffs.append(acc * basis_at_t.inverse())
        nodes.append(t)
    result = Polynomial.zero(variables)
    basis = Polynomial.one(variables)
    v = Polynomial.variable(variables, variables[vidx])
    for c, tl in zip(coeffs, nodes):
        result = result + c * basis
        basis = basis * (v - tl)
    return result


def _modular_ppgcd(P: Polynomial, Q: Polynomial, xidx: int) -> Polynomial:
    """Evaluation/interpolation gcd of inputs primitive in the main variable.

    Brown's modular algorithm over Q(i) (JACM 1971): one evaluation variable
    is specialized at the points 0, 1, -1, 2, -2, ...; images are gcds with
    one variable fewer, rescaled so their main-variable leading coefficient
    matches the leading-coefficient gcd, and interpolated back.  The
    candidate is certified by exact division, so the answer is never wrong.
    The loop ends because only finitely many points are unlucky: those where
    a leading coefficient vanishes, or where the image gcd is more than the
    image of the gcd, are roots of finitely many nonzero polynomials in the
    evaluation variable.  Past them every image is right, and `bound`
    consecutive right images interpolate a candidate that divides both.
    """
    variables = P.vars
    candidates = (_occurring(P) | _occurring(Q)) - {xidx}
    if not candidates:
        return _univar_gcd(P, Q, xidx)
    vidx = min(
        candidates,
        key=lambda i: max(P.degree_in(variables[i]), Q.degree_in(variables[i])),
    )
    vname = variables[vidx]
    lc_p = _lead_in(P, xidx)
    lc_q = _lead_in(Q, xidx)
    gamma = poly_gcd(lc_p, lc_q)
    bound = (
        min(P.degree_in(vname), Q.degree_in(vname)) + max(gamma.degree_in(vname), 0) + 1
    )
    images = []
    best_degree: Optional[int] = None
    t_int = 0
    while True:
        t = GaussianRational(t_int)
        t_int = -t_int + (1 if t_int <= 0 else 0)
        if _eval_var(lc_p, vidx, t).is_zero() or _eval_var(lc_q, vidx, t).is_zero():
            continue
        image = poly_gcd(_eval_var(P, vidx, t), _eval_var(Q, vidx, t))
        dx = image.degree_in(variables[xidx])
        if dx == 0:
            # images can only overshoot the true degree, so 1 is certified
            return Polynomial.one(variables)
        if best_degree is None or dx < best_degree:
            best_degree = dx
            images = []
        if dx > best_degree:
            continue
        lc_image = _lead_in(image, xidx)
        scale = poly_try_divexact(_eval_var(gamma, vidx, t), lc_image)
        if scale is None:
            continue
        images.append((t, image * scale))
        if len(images) == bound:
            candidate = _primitive_in(_interpolate(images, vidx, variables), xidx)
            if (
                poly_try_divexact(P, candidate) is not None
                and poly_try_divexact(Q, candidate) is not None
            ):
                return candidate
            images = []


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic graded-lex gcd over Q(i); gcd(0, 0) = 0."""
    p._check_same_vars(q)
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()

    shift = tuple(min(a, b) for a, b in zip(_min_exponents(p), _min_exponents(q)))
    ph = _shift_down(p, _min_exponents(p))
    qh = _shift_down(q, _min_exponents(q))
    base = Polynomial.monomial(p.vars, shift) if any(shift) else Polynomial.one(p.vars)

    if ph.is_constant() or qh.is_constant():
        return base
    common = _occurring(ph) & _occurring(qh)
    if not common:
        return base

    dp, dq = ph.total_degree(), qh.total_degree()
    if dp >= dq and poly_try_divexact(ph, qh) is not None:
        return (base * qh.monic()).monic()
    if dq >= dp and poly_try_divexact(qh, ph) is not None:
        return (base * ph.monic()).monic()

    occ_union = _occurring(ph) | _occurring(qh)
    if len(occ_union) == 1:
        idx = next(iter(occ_union))
        return (base * _univar_gcd(ph, qh, idx)).monic()

    xidx = min(common, key=lambda i: max(ph.degree_in(p.vars[i]), qh.degree_in(p.vars[i])))
    cp = _content_in(ph, xidx)
    cq = _content_in(qh, xidx)
    cg = poly_gcd(cp, cq)
    big_p = ph if cp.is_one() else poly_divexact(ph, cp)
    big_q = qh if cq.is_one() else poly_divexact(qh, cq)
    return (base * cg * _modular_ppgcd(big_p, big_q, xidx)).monic()
