"""Independent expected-value computations used by the test suite.

The star oracle expands D^k through the explicit binomial formula on a
two-variable plane, a different route than the library's multiset expansion
over bivector entries, so agreement is meaningful.  The bidiff oracle sums
the library's general derivative path term by term on any space, the route
moyal_star leaves for Laurent operands.  The cover oracles move
one variable pair through the quadric cover by generic substitution, with a
gcd at every step, where the library rewrites exponents.  The derivative
oracle is the plain quotient rule over D^2 with a full gcd, where the library
builds the reduced denominator directly.  The transport and symplectic-map
oracles substitute rational bindings (the cotangent lift of a transition, the
linear forms of a matrix) with a gcd at every step, where the library composes
with linear forms on the quadric cover and runs no gcd.  The form oracle
pulls a dense form matrix back as m^T omega m, where the library compares the
brackets of the coordinates in its Darboux pairs.  The cover oracles with the
bidiff oracle are also the route moyal_star leaves for Laurent operands on
chart pairs, which it multiplies on the chart.  The symmetrization oracles add the d!
permuted copies of a series as rational functions and compare permuted copies
with the series, where the library sums orbits of Laurent exponents and checks
invariance term by term.  The Laurent oracle is the kernel's earlier loop: a
Gaussian-rational coefficient per pair state, each series row scaled per pair,
where the library carries integers and normalizes once per output term.
The compose oracle is `Polynomial.compose`'s earlier loop for polynomial
images: each power of an image and each monomial a polynomial product, and
every term summed in Gaussian rationals with a gcd per step, where the
library keeps the powers as Gaussian integers over one denominator and
normalizes each output term once.  `padded` and `laurent` build test inputs.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from moyalquot.atlas import KChartFunction, ProjectiveAtlas
from moyalquot.errors import NotEven
from moyalquot.gaussian import GaussianRational
from moyalquot.geometry import cotangent_lift
from moyalquot.moyal import (
    LinearSymplectic,
    MoyalContext,
    _falling,
    _from_laurent,
    _laurent_terms,
    _star_scalars,
    bidiff_power,
)
from moyalquot.polynomial import Polynomial, sum_terms
from moyalquot.quot import ProductContext, permute
from moyalquot.rational import RationalFunction, rf_normalize
from moyalquot.series import HSeries

I = GaussianRational(0, 1)


def padded(series: HSeries, order: int) -> HSeries:
    """Extend with zero coefficients up to `order` (never truncates)."""
    zeros = (RationalFunction.zero(series.vars),) * max(0, order - series.order)
    return HSeries(series.coeffs + zeros)


def laurent(vs, terms) -> RationalFunction:
    """sum of c * x^e over `terms`, exponents of any sign."""
    shift = tuple(max([0] + [-e[v] for e in terms]) for v in range(len(vs)))
    num = {tuple(a + s for a, s in zip(e, shift)): c for e, c in terms.items()}
    return RationalFunction(Polynomial(vs, num), Polynomial.monomial(vs, shift))


def derivative_oracle(f: RationalFunction, name: str) -> RationalFunction:
    """d(N/D)/dx as rf_normalize(N' D - N D', D^2)."""
    num = f.num.derivative(name) * f.den - f.num * f.den.derivative(name)
    return rf_normalize(num, f.den * f.den)


def star_2d_oracle(f: RationalFunction, g: RationalFunction, order: int) -> HSeries:
    """f*g on a two-variable plane with {first, second} = 1."""
    first, second = f.vars
    coeffs = []
    for k in range(order + 1):
        term = RationalFunction.zero(f.vars)
        for j in range(k + 1):
            df = f
            for _ in range(k - j):
                df = df.derivative(first)
            for _ in range(j):
                df = df.derivative(second)
            dg = g
            for _ in range(k - j):
                dg = dg.derivative(second)
            for _ in range(j):
                dg = dg.derivative(first)
            sign = -1 if j % 2 else 1
            term = term + (comb(k, j) * sign) * (df * dg)
        scalar = (I * Fraction(1, 2)) ** k * Fraction(1, factorial(k))
        coeffs.append(scalar * term)
    return HSeries(coeffs)


def star_by_bidiff_oracle(ctx: MoyalContext, f: HSeries, g: HSeries) -> HSeries:
    """sum over i + j + k = m of (i/2)^k / k! * D^k(f_i, g_j), always through _bidiff."""
    coeffs = []
    for m in range(ctx.order + 1):
        term = RationalFunction.zero(ctx.space.vars)
        for i in range(m + 1):
            for j in range(m - i + 1):
                k = m - i - j
                scalar = (I * Fraction(1, 2)) ** k * Fraction(1, factorial(k))
                term = term + scalar * bidiff_power(ctx, f.coeffs[i], g.coeffs[j], k)
        coeffs.append(term)
    return HSeries(coeffs)


def laurent_star_oracle(ctx: MoyalContext, f: HSeries, g: HSeries) -> HSeries:
    """f*g for Laurent operands, per-pair series multiplied as Gaussian rationals."""
    space, n = ctx.space, ctx.order
    used = f.coeffs[: n + 1] + g.coeffs[: n + 1]
    laurent_terms = [_laurent_terms(c) for c in used]
    fs, gs = laurent_terms[: n + 1], laurent_terms[n + 1:]
    scales = [GaussianRational(-2) if t in space.chart else s for t, s in enumerate(space.scales)]
    distinct = list(dict.fromkeys(scales))
    rows = [_star_scalars(n, s) for s in distinct]
    kinds = [(distinct.index(s), t in space.chart) for t, s in enumerate(scales)]
    cache = {}

    def pair_series(s, a, b, c, d):
        key = (s, a, b, c, d)
        if key not in cache:
            fa, fb, fc, fd = (_falling(e, n) for e in (a, b, c, d))
            totals = [
                sum((-1) ** j * comb(k, j) * fa[k - j] * fb[j] * fc[j] * fd[k - j]
                    for j in range(k + 1))
                for k in range(n + 1)
            ]
            cache[key] = [(k, rows[s][k] * v) for k, v in enumerate(totals) if v]
        return cache[key]

    out = [[] for _ in range(n + 1)]
    for i, fi in enumerate(fs):
        for j, gj in enumerate(gs[: n + 1 - i]):
            budget = n - i - j
            for ea, ca in fi:
                for eb, cb in gj:
                    states = [(0, (), ca * cb)]
                    for t, (s, is_chart) in enumerate(kinds):
                        a, b, c, d = ea[2 * t], ea[2 * t + 1], eb[2 * t], eb[2 * t + 1]
                        series = (pair_series(s, a, 2 * b - a, c, 2 * d - c) if is_chart
                                  else pair_series(s, a, b, c, d))
                        states = [
                            (h + k, e + (a + c - k, b + d - k), coeff * value)
                            for h, e, coeff in states
                            for k, value in series
                            if h + k <= budget
                        ]
                    for h, e, coeff in states:
                        out[i + j + h].append((e, coeff))
    return HSeries(tuple(_from_laurent(space.vars, pairs) for pairs in out))


def compose_oracle(p: Polynomial, images) -> Polynomial:
    """p after x_i -> images[i], polynomials: powers and monomials as polynomial
    products, summed in Gaussian rationals."""
    one, rows, monomials = Polynomial.one(images[0].vars), [[None, image] for image in images], []
    for exp, coeff in p.terms.items():
        mono = one
        for image, row, e in zip(images, rows, exp):
            if e:
                while len(row) <= e:
                    row.append(row[-1] * image)
                mono = row[e] if mono is one else mono * row[e]
        monomials.append((mono, coeff))
    return Polynomial._raw(images[0].vars, sum_terms(
        (e, c * coeff) for mono, coeff in monomials for e, c in mono.terms.items()))


def pullback_pair_oracle(
    value: RationalFunction, zvar: str, pvar: str, xvar: str, yvar: str
) -> RationalFunction:
    """Substitute z -> x/y, p -> -y^2/2 on one pair (x, y in the slots of z, p)."""
    vs = value.vars
    target = tuple({zvar: xvar, pvar: yvar}.get(v, v) for v in vs)
    bindings = {v: RationalFunction.variable(target, t) for v, t in zip(vs, target)}
    x, y = bindings[zvar], bindings[pvar]
    bindings[zvar] = x / y
    bindings[pvar] = y * y * Fraction(-1, 2)
    return value.substitute(bindings)


def pushforward_pair_oracle(
    value: RationalFunction, xvar: str, yvar: str, zvar: str, pvar: str
) -> RationalFunction:
    """Substitute x = z*y on one pair, then replace y^2 by -2p."""
    vs = value.vars
    mid_vars = tuple(zvar if v == xvar else v for v in vs)
    bindings = {v: RationalFunction.variable(mid_vars, m) for v, m in zip(vs, mid_vars)}
    bindings[xvar] = (
        RationalFunction.variable(mid_vars, zvar) * RationalFunction.variable(mid_vars, yvar)
    )
    mixed = value.substitute(bindings)
    idx = mid_vars.index(yvar)
    target = tuple(pvar if v == yvar else v for v in mid_vars)

    def halve(p: Polynomial) -> Polynomial:
        terms = {}
        for exp, coeff in p.terms.items():
            if exp[idx] % 2:
                raise NotEven(f"odd power of {yvar} after substitution")
            k = exp[idx] // 2
            terms[exp[:idx] + (k,) + exp[idx + 1:]] = coeff * GaussianRational(-2) ** k
        return Polynomial(target, terms)

    return RationalFunction(halve(mixed.num), halve(mixed.den))


def transport_oracle(atlas: ProjectiveAtlas, f: KChartFunction, target: str) -> KChartFunction:
    """Substitute the cotangent lift of the transition into every coefficient."""
    if target == f.chart:
        atlas.chart_vars(target)
        return f
    src_vars = atlas.chart_vars(f.chart)
    dst_vars = atlas.chart_vars(target)
    big_z, big_p = cotangent_lift(atlas.transition(target, f.chart), dst_vars)
    bindings = {src_vars[0]: big_z, src_vars[1]: big_p}
    moved = f.value.map_coefficients(lambda c: c.substitute(bindings))
    return KChartFunction(target, moved)


def apply_symplectic_oracle(ctx: MoyalContext, G: LinearSymplectic, f: HSeries) -> HSeries:
    """Substitute the linear form of each matrix row for its variable."""
    space = ctx.space
    bindings = {}
    for a, name in enumerate(space.vars):
        expr = Polynomial.zero(space.vars)
        for b, target in enumerate(space.vars):
            coeff = G.matrix[a][b]
            if not coeff.is_zero():
                expr = expr + Polynomial.variable(space.vars, target) * coeff
        bindings[name] = RationalFunction.from_polynomial(expr)
    return f.map_coefficients(lambda c: c.substitute(bindings))


def omega_matrix(space) -> tuple:
    """The dense form matrix of a space of Darboux pairs: omega(q_k, p_k) = s_k."""
    n = len(space.vars)
    rows = [[GaussianRational(0)] * n for _ in range(n)]
    for k, s in enumerate(space.scales):
        rows[2 * k][2 * k + 1] = s
        rows[2 * k + 1][2 * k] = -s
    return tuple(map(tuple, rows))


def form_pullback(m, omega) -> tuple:
    """m^T omega m: the constant form omega pulled back along the Jacobian m.

    The entries of m may be numbers, Gaussian rationals or rational functions."""
    n = len(omega)
    cols = len(m[0])
    return tuple(
        tuple(
            sum((m[a][i] * omega[a][b] * m[b][j] for a in range(n) for b in range(n)), start=0)
            for j in range(cols)
        )
        for i in range(cols)
    )


def symmetrize_oracle(ctx: ProductContext, f: HSeries) -> HSeries:
    """The average of the d! permuted copies of f, added as rational functions."""
    total = None
    for perm in permutations(range(1, ctx.d + 1)):
        moved = permute(ctx, perm, f)
        total = moved if total is None else total + moved
    scale = GaussianRational(1) / factorial(ctx.d)
    return total.map_coefficients(lambda c: c * scale)


def is_invariant_oracle(ctx: ProductContext, f: HSeries) -> bool:
    """f equals its permuted copy under every adjacent transposition."""
    for k in range(1, ctx.d):
        perm = list(range(1, ctx.d + 1))
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
        if permute(ctx, perm, f) != f:
            return False
    return True
