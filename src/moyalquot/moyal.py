"""Symplectic spaces in Darboux pairs, Poisson brackets, and the Moyal-Weyl product.

A space is a tuple of Darboux pairs (q, p, s): the form has omega(q, p) = s
and vanishes between variables of different pairs, so {q, p} = 1/s.  The
normalization is {x, y} = +1 on the standard plane with form dx^dy.  The
bracket contracts the bivector entries (q, p, 1/s) and (p, q, -1/s),

    {f, g} = sum over pairs of ((d_q f)(d_p g) - (d_p f)(d_q g)) / s,

which on the standard space is f_x g_y - f_y g_x.  The bidifferential
operator D underlying the star product applies the same contraction to the
two tensor slots, and

    f * g = sum_k (i h / 2)^k / k!  D^k(f, g)

extended h-bilinearly to series and truncated at the context order.

When every coefficient of both operands, up to the context order, has a
monomial denominator (a Laurent polynomial, as on the quadric cover), the
product takes a closed form instead of derivatives.  The pair operators
commute, so the star of two monomials is a product over the pairs, and on
one pair (q, p, s), with [a]_n = a (a-1) ... (a-n+1) and any signs of a..d,

    q^a p^b * q^c p^d = sum_k (i h / 2)^k / k!  s^-k  q^(a+c-k) p^(b+d-k)
                        * sum_j C(k, j) (-1)^j [a]_(k-j) [b]_j [c]_j [d]_(k-j).

The inner sums are integers, cached across calls by `_pair_series`.  The
kernel carries Gaussian integers over each coefficient's lcm denominator
through the pair states, so no gcd and no Gaussian product runs per state,
and normalizes each output term once.  Shifting each variable's exponents up
by its most negative one gives the canonical form with no gcd: the
denominator is a monic monomial, and some term attains each minimum, so no
variable divides the numerator.

A pair is flat, with its scale s, or a cotangent-chart pair (z, p), form
dp^dz, whose star is the flat one conjugated by the quadric cover (x/y,
-y^2/2), {x, y} = 1: the cover sends z^a p^b to (-1/2)^b x^a y^(2b-a) and
x^A y^B back to (-2)^m z^A p^m, m = (A+B)/2, so the chart series is the flat
one with b, d replaced by 2b - a, 2d - c and s by -2, and the same output
exponents; Laurent operands never leave the chart.  Other operands are
pulled back on the chart pairs they use, multiplied on the flat cover by the
paths below, and pushed forward on the same pairs.

The product is covariant under affine symplectic changes of coordinates, so
denominators that are products of affine forms in at most two directions
(linear parts) are monomials in a Darboux frame of those directions.  Each
distinct denominator is split once (`_affine_factors`).  Only numerators
move into the frame, by affine composition; a denominator becomes the
monomial of its split, and the kernel's result moves back by composition.
Each operand has one center per frame coordinate, f being a function of
(Q + a, P + b) and g of (Q + c, P + d).  Where a != c or b != d the pair
is doubled: on f(u, p') and g(w, p), with u = Q + a, p' = P + b,
w = Q + c and p = P + d, the operator is (d_u (x) d_p - d_p' (x) d_w)/s,
the one of the pairs (u, p) and (w, p') of scale s, and the kernel's class
multinomial C(k, j) splits the sum above by pair.  An invertible frame
keeps numerator and denominator coprime, so no gcd runs; a doubled one
does not, and exact division strips the forms.  Forms are sparse linear
polynomials, and their bracket reads their unit terms.  Denominators that
do not split, such as those of a star of a star over x + y and x - y, a
third direction, two centers in one direction of one operand, and frames
that make the numerators much denser take the general path.

Other operands take derivatives over the bracket entries of the variables
they use, each over its known denominator; the terms of one h-power are
summed per denominator pair, put over the lcm, normalized once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from functools import lru_cache, reduce
from math import comb, factorial, prod
from operator import add, mul, sub
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from .errors import NameCollision, NotSymplectic, OrderTooLarge, VariableMismatch
from .gaussian import GaussianRational, ONE as G_ONE, ZERO as G_ZERO
from .geometry import pushforward_even_pair, sigma_pullback_pair
from .polynomial import (Polynomial, _lead_in, _occurring, affine_forms, integer_terms,
                         poly_try_divexact, sum_terms)
from .rational import RationalFunction, rf_sum
from .series import HSeries

Matrix = Tuple[Tuple[GaussianRational, ...], ...]


def as_matrix(rows: Sequence[Sequence[object]]) -> Matrix:
    return tuple(tuple(GaussianRational.coerce(v) for v in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] for t in range(k)), G_ZERO)
            for j in range(m)
        )
        for i in range(n)
    )


def det2(m: Matrix) -> GaussianRational:
    (a, b), (c, d) = m
    return a * d - b * c


def proj_eq(a: Matrix, b: Matrix) -> bool:
    """Projective equality: the matrices are proportional."""
    fa = [v for row in a for v in row]
    fb = [v for row in b for v in row]
    return all(fa[i] * fb[j] == fa[j] * fb[i] for i in range(len(fa)) for j in range(i))


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(G_ONE if i == j else G_ZERO for j in range(n)) for i in range(n)
    )


class SymplecticSpace:
    """Variables in Darboux pairs (q1, p1, q2, p2, ...) with omega(q_k, p_k) = s_k.

    The pairs with index in `chart` are cotangent-chart pairs (z, p), whose
    star is taken through the quadric cover; their form is dp^dz, s = -1."""

    __slots__ = ("vars", "scales", "brackets", "chart")

    def __init__(self, variables: Sequence[str], scales: Sequence[object],
                 chart: Collection[int] = ()):
        vs = tuple(variables)
        if not vs or len(vs) != 2 * len(scales):
            raise NotSymplectic(f"need an even positive number of variables, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise NameCollision(f"duplicate variable names in {vs}")
        self.vars = vs
        self.scales = tuple(GaussianRational.coerce(s) for s in scales)
        if any(s.is_zero() for s in self.scales):
            raise NotSymplectic("a Darboux pair has omega(q, p) = 0")
        self.chart = frozenset(chart)
        if any(k not in range(len(scales)) or self.scales[k] != -1 for k in self.chart):
            raise NotSymplectic("a chart pair is a Darboux pair with form dp^dz, scale -1")
        # the nonzero bivector entries (a, b, {x_a, x_b}), two per pair
        brackets = []
        for k, s in enumerate(self.scales):
            inv = s.inverse()
            brackets += [(2 * k, 2 * k + 1, inv), (2 * k + 1, 2 * k, -inv)]
        self.brackets = tuple(brackets)

    @classmethod
    def block(cls, pairs: Sequence[Tuple[str, str, object]]) -> "SymplecticSpace":
        """The space of Darboux pairs (q, p, omega(q, p))."""
        return cls([v for q, p, _ in pairs for v in (q, p)], [s for _, _, s in pairs])

    @classmethod
    def standard(cls, variables: Sequence[str]) -> "SymplecticSpace":
        """Interleaved (q1, p1, q2, p2, ...) with omega(q_k, p_k) = 1."""
        return cls(variables, [1] * (len(variables) // 2))

    @classmethod
    def cotangent(cls, chart_pairs: Sequence[Tuple[str, str]],
                  flat_pairs: Sequence[Tuple[str, str]] = ()) -> "SymplecticSpace":
        """Chart pairs (z, p) with form dp^dz = d(p dz), then flat pairs (u, v) with du^dv."""
        pairs = list(chart_pairs) + list(flat_pairs)
        return cls([v for pair in pairs for v in pair],
                   [-1] * len(chart_pairs) + [1] * len(flat_pairs), range(len(chart_pairs)))

    @property
    def dim(self) -> int:
        return len(self.vars)

    def bracket(self, u: Polynomial, v: Polynomial) -> GaussianRational:
        """{u, v} for affine forms u, v over the space's variables: their unit
        terms against the bivector entries; the constants do not enter."""
        lu, lv = ({e.index(1): c for e, c in w.terms.items() if any(e)} for w in (u, v))
        return sum((c * lv[a ^ 1] * self.brackets[a][2] for a, c in lu.items() if a ^ 1 in lv),
                   G_ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticSpace):
            return NotImplemented
        return (self.vars, self.scales, self.chart) == (other.vars, other.scales, other.chart)

    def __hash__(self):
        return hash((self.vars, self.scales, self.chart))

    def __repr__(self) -> str:
        return f"SymplecticSpace({self.vars!r})"


class MoyalContext:
    """A symplectic space together with a truncation order."""

    __slots__ = ("space", "order")

    def __init__(self, space: SymplecticSpace, order: int):
        if order < 0:
            raise OrderTooLarge("truncation order must be nonnegative")
        self.space = space
        self.order = order

    def __repr__(self) -> str:
        return f"MoyalContext({self.space!r}, order={self.order})"


class LinearSymplectic:
    """A matrix acting on the variables, checked to preserve the form.

    Row i gives the new x_i as a combination of the old variables, kept also
    as the linear form `forms[i]`.  The map is symplectic when the forms keep
    the coordinate brackets: M pi M^T = pi for the bracket matrix pi, which in
    the group Sp is M^T omega M = omega."""

    __slots__ = ("matrix", "forms", "space")

    def __init__(self, matrix: Sequence[Sequence[object]], space: SymplecticSpace):
        m = as_matrix(matrix)
        if len(m) != space.dim or any(len(row) != space.dim for row in m):
            raise NotSymplectic("matrix shape does not match the space")
        forms = affine_forms(space.vars, [row + (G_ZERO,) for row in m])
        if any(space.bracket(forms[i], forms[j]) != (space.brackets[i][2] if j == i ^ 1 else 0)
               for i in range(space.dim) for j in range(i)):
            raise NotSymplectic("matrix does not preserve the symplectic form")
        self.matrix = m
        self.forms = forms
        self.space = space

    def __repr__(self) -> str:
        return f"LinearSymplectic({self.matrix!r})"


class _DerivTable:
    """Cache of iterated partial derivatives of one rational function."""

    __slots__ = ("vars", "root", "table", "uses")

    def __init__(self, variables: Tuple[str, ...], root: RationalFunction):
        self.vars = variables
        self.root = root
        # a derivative never adds a variable, so every entry uses only these
        self.uses = _occurring(root.num) | _occurring(root.den)
        self.table: Dict[Tuple[int, ...], RationalFunction] = {(0,) * len(variables): root}

    def get(self, alpha: Tuple[int, ...]) -> RationalFunction:
        cached = self.table.get(alpha)
        if cached is not None:
            return cached
        idx = next(i for i, e in enumerate(alpha) if e)
        parent = list(alpha)
        parent[idx] -= 1
        value = self.get(tuple(parent)).derivative(self.vars[idx])
        self.table[alpha] = value
        return value


def _entries(space: SymplecticSpace, tf: _DerivTable, tg: _DerivTable):
    """The bracket entries (a, b, {x_a, x_b}) with x_a in f and x_b in g."""
    return [entry for entry in space.brackets if entry[0] in tf.uses and entry[1] in tg.uses]


def _bidiff(entries, tf: _DerivTable, tg: _DerivTable, k: int, scale: GaussianRational):
    """The terms of scale * D^k(f, g), each a numerator keyed by its denominator
    pair (of the f factor, of the g factor)."""
    if any(t.root.den.is_one() and t.root.num.total_degree() < k for t in (tf, tg)):
        return  # zero, or a polynomial of degree below k
    n = len(tf.vars)
    for combo in combinations_with_replacement(range(len(entries)), k):
        alpha = [0] * n
        beta = [0] * n
        coeff = scale
        mult = factorial(k)
        for idx, count in Counter(combo).items():
            a, b, value = entries[idx]
            alpha[a] += count
            beta[b] += count
            coeff = coeff * (value ** count)
            mult //= factorial(count)
        fa = tf.get(tuple(alpha))
        if fa.is_zero():
            continue
        gb = tg.get(tuple(beta))
        if gb.is_zero():
            continue
        yield (fa.den, gb.den), (fa.num * (coeff * mult)) * gb.num


def _sum_groups(space: SymplecticSpace, terms) -> RationalFunction:
    """The sum of _bidiff terms: one numerator per denominator pair, then one rf_sum."""
    return rf_sum(space.vars, ((num, df * dg) for (df, dg), num in sum_terms(terms).items()))


def poisson_bracket(ctx: MoyalContext, f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """{f, g} for the context form; {x, y} = 1 on the standard plane."""
    return bidiff_power(ctx, f, g, 1)


def bidiff_power(ctx: MoyalContext, f: RationalFunction, g: RationalFunction, k: int) -> RationalFunction:
    """The k-th power of the bidifferential operator, restricted to the diagonal."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    space = ctx.space
    for h in (f, g):
        if h.vars != space.vars:
            raise VariableMismatch(f"function over {h.vars} does not match space {space.vars}")
    tf, tg = _DerivTable(space.vars, f), _DerivTable(space.vars, g)
    return _sum_groups(space, _bidiff(_entries(space, tf, tg), tf, tg, k, G_ONE))


@lru_cache(maxsize=16)
def _star_scalars(order: int, scale: GaussianRational = G_ONE) -> Tuple[GaussianRational, ...]:
    """(i/2)^k / k! * scale^-k for k = 0..order; a few rows recur, so they are kept."""
    step = GaussianRational(0, Fraction(1, 2)) / scale
    out = [G_ONE]
    for k in range(1, order + 1):
        out.append(out[-1] * step / k)
    return tuple(out)


def _laurent_terms(c: RationalFunction) -> List[Tuple[Tuple[int, ...], GaussianRational]]:
    """The terms of c over its monomial, monic denominator, as Laurent exponents."""
    (shift,) = c.den.terms
    if not any(shift):
        return list(c.num.terms.items())
    return [(tuple(map(sub, exp, shift)), v) for exp, v in c.num.terms.items()]


def _falling(a: int, n: int) -> List[int]:
    """[a]_0, ..., [a]_n with [a]_k = a (a - 1) ... (a - k + 1)."""
    out = [1]
    for t in range(n):
        out.append(out[-1] * (a - t))
    return out


def _from_laurent(variables: Tuple[str, ...], pairs) -> RationalFunction:
    """Canonical form of the sum of (Laurent exponent, coefficient) pairs: shift
    every exponent to >= 0."""
    terms = sum_terms(pairs)
    if not terms:
        return RationalFunction.zero(variables)
    shift = tuple(max(0, -min(column)) for column in zip(*terms))
    num = {tuple(map(add, exp, shift)): c for exp, c in terms.items()} if any(shift) else terms
    den = Polynomial._raw(variables, {shift: G_ONE})
    return RationalFunction._trusted(Polynomial._raw(variables, num), den)


@lru_cache(maxsize=4096)
def _pair_series(order: int, a: int, b: int, c: int, d: int) -> Tuple[Tuple[int, int], ...]:
    """The nonzero (k, sum_j C(k, j) (-1)^j [a]_(k-j) [b]_j [c]_j [d]_(k-j)), k <= order:
    the integer series of q^a p^b * q^c p^d before its scalar row."""
    fa, fb, fc, fd = (_falling(e, order) for e in (a, b, c, d))
    totals = (
        sum((-1) ** j * comb(k, j) * fa[k - j] * fb[j] * fc[j] * fd[k - j] for j in range(k + 1))
        for k in range(order + 1)
    )
    return tuple((k, v) for k, v in enumerate(totals) if v)


@lru_cache(maxsize=64)
def _kernel_plan(space: SymplecticSpace, order: int):
    """The rows of the scale classes (a chart pair's at -2), and per pair (class, chart?)."""
    scales = [GaussianRational(-2) if t in space.chart else s for t, s in enumerate(space.scales)]
    distinct = list(dict.fromkeys(scales))
    return ([_star_scalars(order, s) for s in distinct],
            [(distinct.index(s), t in space.chart) for t, s in enumerate(scales)])


def _laurent_star(ctx: MoyalContext, used: Sequence[RationalFunction]) -> HSeries:
    """The star of Laurent operands as a product of per-pair monomial series.

    `used` holds the coefficients of f, then those of g, up to the order.  A
    pair is flat with its scale, or a chart pair of the space; a pair that
    neither monomial touches is the factor 1 and is skipped.  Each coefficient
    is Gaussian integers over its lcm denominator, and a state carries an
    integer M: in one scale class, pairs whose k_t sum to K share row[K]
    times K!/prod k_t!, which M builds up by C(K + k, k)."""
    space, n = ctx.space, ctx.order
    rows, kinds = _kernel_plan(space, n)
    ints = [integer_terms(_laurent_terms(c)) if c.num.terms else (1, []) for c in used]
    # (f index, g index, k per scale class, exponent) -> [real, imaginary] integers
    acc: Dict[tuple, List[int]] = {}
    for i, (_, fi) in enumerate(ints[: n + 1]):
        for j, (_, gj) in enumerate(ints[n + 1: 2 * n + 2 - i] if fi else ()):
            budget = n - i - j
            for ea, fa, fb in fi:
                for eb, ga, gb in gj:
                    # (h-power, k per scale class, exponent, integer) over the pairs so far;
                    # every series starts with (0, 1), which keeps each state as it is
                    states = [(0, (0,) * len(rows), tuple(map(add, ea, eb)), 1)]
                    for t, (s, is_chart) in enumerate(kinds):
                        a, b, c, d = ea[2 * t], ea[2 * t + 1], eb[2 * t], eb[2 * t + 1]
                        if not (a or b or c or d):
                            continue
                        series = (_pair_series(n, a, 2 * b - a, c, 2 * d - c) if is_chart
                                  else _pair_series(n, a, b, c, d))
                        states += [
                            (h + k, ks[:s] + (ks[s] + k,) + ks[s + 1:],
                             e[:2 * t] + (e[2 * t] - k, e[2 * t + 1] - k) + e[2 * t + 2:],
                             m * v * comb(ks[s] + k, k))
                            for h, ks, e, m in states
                            for k, v in series[1:]
                            if h + k <= budget
                        ]
                    re, im = fa * ga - fb * gb, fa * gb + fb * ga
                    for _, ks, e, m in states:
                        cell = acc.setdefault((i, j, ks, e), [0, 0])
                        cell[0] += re * m
                        cell[1] += im * m
    products: Dict[Tuple[int, ...], GaussianRational] = {}  # the row product of class totals
    out: List[List[Tuple[Tuple[int, ...], GaussianRational]]] = [[] for _ in range(n + 1)]
    for (i, j, ks, e), (re, im) in acc.items():
        if ks not in products:
            products[ks] = prod((r[k] for r, k in zip(rows, ks)), start=G_ONE)
        row, den = products[ks], ints[i][0] * ints[n + 1 + j][0]
        out[i + j + sum(ks)].append((e, GaussianRational._make(  # one normalization per term
            re * row.a - im * row.b, re * row.b + im * row.a, den * row.den)))
    zero = RationalFunction.zero(space.vars)  # one zero for every empty coefficient
    return HSeries(tuple(_from_laurent(space.vars, pairs) if pairs else zero for pairs in out))


# A frame whose forms mix many variables makes sparse numerators dense, and
# the kernel and the way back then cost more than derivatives: past this
# growth in numerator terms the product takes derivatives instead.  Without
# it the dense flat4 product of test_frame_falls_back_to_bidiff takes 110 s
# at order 1, against 0.03 s through derivatives.
FRAME_GROWTH = 4


def _affine_factors(den: Polynomial) -> Optional[Dict[Polynomial, int]]:
    """{monic affine form l: m} with monic den = prod l^m; None if there is none.

    A power l^m leads with x_j^m, and (d/dx_j)^(m-1) den is proportional to
    l.  Otherwise, of a product of forms, the leading coefficient in one
    variable is the product of the forms without it, up to a constant: when
    it is not constant it splits den in two, and each part splits again."""
    if den.total_degree() < 2:  # 1, or a form
        return {den: 1} if den.total_degree() else {}
    (j, m), *rest = [(j, e) for j, e in enumerate(den.leading_exponent()) if e]
    if not rest:
        form = den
        for _ in range(m - 1):
            form = form.derivative(den.vars[j])
        if (form := form.monic()) ** m == den:
            return {form: m}
    for idx in sorted(_occurring(den)):
        if not (lead := _lead_in(den, idx).monic()).is_constant():
            other = poly_try_divexact(den, lead)
            parts = [None] if other is None else [_affine_factors(part) for part in (lead, other)]
            return None if None in parts else {**parts[0], **parts[1]}
    return None


def _affine_frame(space: SymplecticSpace, used: Sequence[RationalFunction]):
    """(frame space, moved operands, forms back, slots to strip) for a Darboux
    frame in which every denominator is a monomial, or None, also when moving
    `used` (f's coefficients, then g's) in grows their numerators past FRAME_GROWTH.

    The forms' linear parts, at most two, become frame coordinates: a pair with
    scale 1/{l, l'}, two q's when they commute, or one q.  Symplectic
    Gram-Schmidt over the Darboux pairs that they touch completes them,
    projecting each candidate against each new pair once.  Frame pair t takes
    the variables of touched pair t; every other pair maps to itself.  Each
    operand takes its own constants, or the other's where it has none; a pair
    where they differ is doubled (see the module docstring), and then every
    slot is one to strip.  An invertible frame has none."""
    splits: Dict[Polynomial, Dict[Polynomial, int]] = {}
    for den in dict.fromkeys(c.den for c in used if c.num.terms):
        if (split := _affine_factors(den)) is None:
            return None
        splits[den] = split
    n, split_of = len(used) // 2 - 1, [splits[c.den] if c.num.terms else {} for c in used]
    vs, bracket, m = space.vars, space.bracket, len(space.vars)
    centers: Tuple[dict, dict] = ({}, {})  # per operand, {linear part: constant}
    for s, form in dict.fromkeys((i > n, form) for i, split in enumerate(split_of) for form in split):
        c = form.terms.get((0,) * m, G_ZERO)
        if centers[s].setdefault(form - c, c) != c:
            return None  # two centers in one direction of one operand
    first, *pending = dict.fromkeys(chain(*centers))
    if len(pending) > 1:
        return None  # more than two directions
    touched = sorted({i // 2 for r in (first, *pending) for i in _occurring(r)})
    slots = [i for k in touched for i in (2 * k, 2 * k + 1)]
    units = [Polynomial.variable(vs, x) for x in vs]
    candidates = [units[i] for i in slots]
    frame: List[Tuple[Polynomial, Polynomial, GaussianRational]] = []

    def add(q: Polynomial, p: Polynomial) -> None:
        c = bracket(q, p)
        frame.append((q, p, c))
        for j, v in enumerate(candidates if len(frame) < len(touched) else ()):  # orthogonalize
            candidates[j] = v - q * (bracket(v, p) / c) + p * (bracket(v, q) / c)

    if not pending:
        pending = [first]
    elif bracket(first, pending[0]):
        add(first, pending.pop())
    else:
        # commuting forms: each u below commutes with the second; pair one with the first
        beta = [bracket(pending[0], x) for x in candidates]
        partners = (x * beta[j] - y * beta[k]
                    for j, y in enumerate(candidates) for k, x in enumerate(candidates))
        add(first, next(u for u in partners if bracket(first, u)))
    while len(frame) < len(touched):
        q = pending.pop() if pending else next(v for v in candidates if not v.is_constant())
        add(q, next(v for v in candidates if bracket(q, v)))
    scales, coords = list(space.scales), list(units)
    for k, (q, p, c) in zip(touched, frame):
        scales[k], coords[2 * k], coords[2 * k + 1] = c.inverse(), q, p
    center = [[own.get(coords[a], other.get(coords[a], G_ZERO)) for a in range(m)]
              for own, other in (centers, centers[::-1])]
    doubled = [k for k in touched if center[0][2 * k:2 * k + 2] != center[1][2 * k:2 * k + 2]]
    # per operand, each frame coordinate's slot: a doubled pair (u, p) adds (w, p')
    slot = [list(range(m)), list(range(m))]
    for t, k in enumerate(doubled):
        slot[0][2 * k + 1], slot[1][2 * k] = m + 2 * t + 1, m + 2 * t
    ext = vs + tuple(max(vs, key=len) + "'" * j for j in range(1, 2 * len(doubled) + 1))
    frame_space = SymplecticSpace(ext, scales + [scales[k] for k in doubled])
    xs, back = [Polynomial.variable(ext, x) for x in ext], units + [None] * 2 * len(doubled)
    # x_i = sum over the frame slots a, b = a ^ 1, of {x_i, X_b} / {X_a, X_b} (X_a - X_a(0))
    weights = {i: [bracket(units[i], coords[a ^ 1]) / frame_space.brackets[a][2] for a in slots]
               for i in slots}
    sides = (0, 1) if doubled else (0, 0)  # one image list, or one per operand
    into, caches, slot_of = {}, {s: [] for s in sides}, {}
    for s in caches:  # operand s moves X_a in as the variable of its slot, less its center
        centered = [xs[slot[s][a]] - center[s][a] for a in slots]
        into[s] = [sum(map(mul, centered, weights[i]), Polynomial.zero(ext)) if i in weights
                   else xs[i] for i in range(m)]
        for a in slots:
            back[slot[s][a]] = coords[a] + center[s][a]
        slot_of[s] = {back[slot[s][a]]: slot[s][a] for a in slots}
    moved = []
    for i, (c, split) in enumerate(zip(used, split_of)):
        exp, side = [0] * len(ext), sides[i > n]
        for form, e in split.items():
            exp[slot_of[side][form]] = e
        den = Polynomial._raw(ext, {tuple(exp): G_ONE})
        moved.append(RationalFunction._trusted(c.num.compose(into[side], caches[side]), den))
    if sum(len(c.num.terms) for c in moved) > FRAME_GROWTH * sum(len(c.num.terms) for c in used):
        return None
    return frame_space, moved, back, tuple(range(len(ext))) if doubled else ()


def _frame_back(c: RationalFunction, back: Sequence[Polynomial], strip: Sequence[int],
                powers: list) -> RationalFunction:
    """c, over the frame with a monomial denominator, after X_a -> back[a].

    An invertible frame keeps numerator and denominator coprime.  Otherwise
    only the forms of the denominator's slots in `strip` can divide the
    numerator, so each is divided out while it divides exactly, with no gcd."""
    if c.is_zero():
        return RationalFunction.zero(back[0].vars)
    num, shift = c.num.compose(back, powers), list(*c.den.terms)
    for slot in strip:
        while shift[slot] and (quotient := poly_try_divexact(num, back[slot])) is not None:
            num, shift[slot] = quotient, shift[slot] - 1
    den = Polynomial._raw(c.vars, {tuple(shift): G_ONE}).compose(back, powers)
    return RationalFunction._from_coprime(num, den)


def moyal_star(ctx: MoyalContext, f: HSeries, g: HSeries) -> HSeries:
    """Moyal-Weyl star product truncated at the context order.

    On a space with chart pairs it is the product conjugated by the quadric
    cover on each chart pair the operands use: Laurent operands take the
    kernel on the chart, and other operands are pulled back (z -> z/p,
    p -> -p^2/2, names kept), multiplied on the cover, where every chart pair
    has bracket 1, and pushed forward again."""
    if f.vars != ctx.space.vars or g.vars != ctx.space.vars:
        raise VariableMismatch("operands do not live on the context space")
    if f.order < ctx.order or g.order < ctx.order:
        raise OrderTooLarge(f"operand orders {f.order}, {g.order} "
                            f"below context order {ctx.order}")
    return _star(ctx, f.coeffs[: ctx.order + 1] + g.coeffs[: ctx.order + 1])


def _star(ctx: MoyalContext, used: Sequence[RationalFunction]) -> HSeries:
    """The star of checked operands: the coefficients of f, then of g, up to the order."""
    space, n = ctx.space, ctx.order
    if not any(c.num.terms for c in used[: n + 1]) or not any(c.num.terms for c in used[n + 1:]):
        return HSeries.zero(space.vars, n)  # a zero operand, before any split
    if all(len(c.den.terms) == 1 for c in used):
        return _laurent_star(ctx, used)
    if space.chart:
        # both pair maps are the identity on a pair that no operand uses
        touched = {i // 2 for c in used for poly in (c.num, c.den) for i in _occurring(poly)}
        pairs = [space.vars[2 * k:2 * k + 2] for k in sorted(space.chart & touched)]

        def on_pairs(rewrite):  # a pair map of the cover on each of those pairs; 0 stays
            return lambda c: c if c.is_zero() else reduce(
                lambda value, zp: rewrite(value, *zp, *zp), pairs, c)

        cover = SymplecticSpace(space.vars, [1 if k in space.chart else s
                                             for k, s in enumerate(space.scales)])
        pulled = [on_pairs(sigma_pullback_pair)(c) for c in used]
        return _star(MoyalContext(cover, n), pulled).map_coefficients(on_pairs(pushforward_even_pair))
    if (frame := _affine_frame(space, used)) is not None:
        frame_space, moved, back, strip = frame
        powers: list = []
        return _laurent_star(MoyalContext(frame_space, n), moved).map_coefficients(
            lambda c: _frame_back(c, back, strip, powers))
    scalars = _star_scalars(n)
    tf = [_DerivTable(space.vars, c) for c in used[: n + 1]]
    tg = [_DerivTable(space.vars, c) for c in used[n + 1:]]
    entries = {(i, j): _entries(space, tf[i], tg[j])
               for i in range(n + 1) for j in range(n + 1 - i)}
    return HSeries(tuple(
        _sum_groups(space, chain.from_iterable(
            _bidiff(entries[i, j], tf[i], tg[j], m - i - j, scalars[m - i - j])
            for i in range(m + 1) for j in range(m - i + 1)
        ))
        for m in range(n + 1)
    ))


def star_commutator(ctx: MoyalContext, f: HSeries, g: HSeries) -> HSeries:
    """f*g - g*f; its h coefficient is i{f0, g0}."""
    return moyal_star(ctx, f, g) - moyal_star(ctx, g, f)


def apply_symplectic(ctx: MoyalContext, G: LinearSymplectic, f: HSeries) -> HSeries:
    """Coefficient-wise pullback of f along the linear map."""
    space = ctx.space
    if G.space != space:
        raise NotSymplectic("map was validated against a different space")
    if f.vars != space.vars:
        raise VariableMismatch("series does not live on the context space")
    return f.map_coefficients(lambda c: c.compose_linear(G.forms))
