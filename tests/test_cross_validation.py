"""Cross-validation against sympy, when available.

A third computation route, fully outside this package: the star product is
expanded symbolically with sympy and compared by exact evaluation at random
rational points.  Skipped when sympy is not installed.
"""

import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

sp = pytest.importorskip("sympy")

from moyalquot.atlas import KChartFunction, star_on_K
from moyalquot.errors import ZeroDenominator
from moyalquot.expr import parse_rational
from moyalquot import moyal
from moyalquot.moyal import MoyalContext, SymplecticSpace, moyal_star, poisson_bracket
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial, poly_gcd
from moyalquot.rational import RationalFunction
from moyalquot.sampling import SampleStream
from moyalquot.series import HSeries

X, Y, H = sp.symbols("x y h")
XY = ("x", "y")


def sympy_star(f, g, order):
    total = 0
    for k in range(order + 1):
        term = 0
        for j in range(k + 1):
            term += (
                sp.binomial(k, j)
                * (-1) ** j
                * sp.diff(f, X, k - j, Y, j)
                * sp.diff(g, Y, k - j, X, j)
            )
        total += (sp.I * H / 2) ** k / sp.factorial(k) * term
    return total


def poly_expr(p):
    expr = 0
    for exp, coeff in p.terms.items():
        mono = sp.Integer(1)
        for name, deg in zip(p.vars, exp):
            mono *= sp.Symbol(name) ** deg
        expr += (
            sp.Rational(coeff.a, coeff.den) + sp.Rational(coeff.b, coeff.den) * sp.I
        ) * mono
    return expr


def to_sympy(series):
    return sum(
        poly_expr(c.num) / poly_expr(c.den) * H ** m
        for m, c in enumerate(series.coeffs)
    )


def agree(a, b, symbols, tries=5):
    rng = random.Random(99)
    diff = a - b
    for _ in range(tries):
        point = {s: sp.Rational(rng.randint(2, 19), rng.randint(1, 7)) for s in symbols}
        if sp.simplify(diff.subs(point)) != 0:
            return False
    return True


def test_plane_star_matches_sympy():
    s = SampleStream("sympy-crosscheck")
    ctx = MoyalContext(SymplecticSpace.standard(XY), 5)
    for _ in range(4):
        fp, gp = s.polynomial(XY, 3), s.polynomial(XY, 3)
        mine = moyal_star(
            ctx,
            HSeries.constant(RationalFunction.from_polynomial(fp), 5),
            HSeries.constant(RationalFunction.from_polynomial(gp), 5),
        )
        reference = sympy_star(
            to_sympy(HSeries.constant(RationalFunction.from_polynomial(fp), 0)),
            to_sympy(HSeries.constant(RationalFunction.from_polynomial(gp), 0)),
            5,
        )
        assert agree(to_sympy(mine), reference, [X, Y, H]), (fp, gp)


def test_rational_star_matches_sympy():
    s = SampleStream("sympy-crosscheck-rational")
    ctx = MoyalContext(SymplecticSpace.standard(XY), 4)
    for _ in range(3):
        fr, gr = s.rational_function(XY, 2, 1), s.rational_function(XY, 2, 1)
        mine = moyal_star(ctx, HSeries.constant(fr, 4), HSeries.constant(gr, 4))
        reference = sympy_star(
            to_sympy(HSeries.constant(fr, 0)), to_sympy(HSeries.constant(gr, 0)), 4
        )
        assert agree(to_sympy(mine), reference, [X, Y, H]), (fr, gr)


def test_chart_star_matches_sympy_through_cover():
    ZP = ("z", "p")
    z2 = KChartFunction(
        "A",
        HSeries.constant(
            RationalFunction.from_polynomial(Polynomial(ZP, {(2, 0): 1})), 4
        ),
    )
    p = KChartFunction("A", HSeries.variable(ZP, "p", 4))
    mine = to_sympy(star_on_K(4, z2, p).value).subs(
        {sp.Symbol("z"): X / Y, sp.Symbol("p"): -(Y ** 2) / 2}
    )
    reference = sympy_star((X / Y) ** 2, -(Y ** 2) / 2, 4)
    assert agree(mine, reference, [X, Y, H])


def sympy_bidiff_at(f, g, pairs, k, point, cache):
    """P^k(f, g) at an exact point, P = sum over pairs of d_q (x) d_p - d_p (x) d_q.

    The pair operators commute, so P^k expands by the multinomial theorem over
    the pairs and by the binomial theorem within each pair; every derivative
    is taken by sympy, one variable at a time, and evaluated at the point.
    """
    symbols = [s for pair in pairs for s in pair]

    def derivative_at(expr, orders):
        key = (expr, orders)
        if key not in cache:
            if not any(orders):
                value = expr
            else:
                idx = next(i for i, e in enumerate(orders) if e)
                parent = orders[:idx] + (orders[idx] - 1,) + orders[idx + 1:]
                value = sp.diff(derivative_at(expr, parent)[0], symbols[idx])
            cache[key] = (value, value.subs(point))
        return cache[key]

    total = 0
    for ks in itertools.product(range(k + 1), repeat=len(pairs)):
        if sum(ks) != k:
            continue
        multinomial = sp.factorial(k) / sp.prod([sp.factorial(kt) for kt in ks])
        for js in itertools.product(*[range(kt + 1) for kt in ks]):
            weight = multinomial
            f_orders, g_orders = [], []
            for kt, jt in zip(ks, js):
                weight *= sp.binomial(kt, jt) * (-1) ** jt
                f_orders += [kt - jt, jt]
                g_orders += [jt, kt - jt]
            total += (
                weight
                * derivative_at(f, tuple(f_orders))[1]
                * derivative_at(g, tuple(g_orders))[1]
            )
    return total


def rational_at(c, point):
    return to_sympy(HSeries.constant(c, 0)).subs(point)


FLAT4 = ("x1", "y1", "x2", "y2")

# (variables, order, f, g): non-Laurent rational operands
RATIONAL_CASES = [
    (XY, 6, "(x^2 + y)/(x^2 + y^2)", "(x + 2*y)/(x - y)"),
    (XY, 5, "1/(x*y + 1)", "(y - i*x)/(2*x + 3)^2"),
    (XY, 6, "x/(x + y^2)", "y/(x + y^2)"),  # one shared denominator
    (XY, 6, "x^2*y + y^3 - i*x", "(x + 1)/(y*(x - y))"),  # a polynomial operand
    (XY, 3, "(x + y)/(y*(x + 2*y))", "x*y/(x - 2)"),
    (FLAT4, 4, "(x1*y2 + 1)/(x1 + y1*x2)", "(y1 + x2)/(y2^2 + 1)"),
    (FLAT4, 4, "x2/(x1 - y2)", "y1^2*x1 + (1+i)*y2"),
]


@pytest.mark.parametrize("variables, order, ftext, gtext", RATIONAL_CASES)
def test_rational_star_and_bracket_match_sympy_at_exact_points(variables, order, ftext, gtext):
    f, g = parse_rational(ftext, variables), parse_rational(gtext, variables)
    ctx = MoyalContext(SymplecticSpace.standard(variables), order)
    star = moyal_star(ctx, HSeries.constant(f, order), HSeries.constant(g, order))
    bracket = poisson_bracket(ctx, f, g)
    symbols = [sp.Symbol(v) for v in variables]
    pairs = [tuple(symbols[k : k + 2]) for k in range(0, len(symbols), 2)]
    fs, gs = rational_at(f, {}), rational_at(g, {})
    rng = random.Random(f"{ftext} * {gtext}")
    checked = 0
    while checked < 2:
        point = {s: sp.Rational(rng.randint(-9, 9), rng.randint(1, 5)) for s in symbols}
        dens = (RationalFunction.from_polynomial(c.den) for c in (f, g))
        if any(rational_at(d, point) == 0 for d in dens):
            continue
        cache = {}
        for m, c in enumerate(star.coeffs):
            bidiff = sympy_bidiff_at(fs, gs, pairs, m, point, cache)
            expected = (sp.I / 2) ** m / sp.factorial(m) * bidiff
            assert sp.expand(rational_at(c, point) - expected) == 0, (m, point)
        bidiff = sympy_bidiff_at(fs, gs, pairs, 1, point, cache)
        assert sp.expand(rational_at(bracket, point) - bidiff) == 0, point
        checked += 1


def grammar_text(rng, depth=5):
    """Random h-free expression text over x and y in the grammar of moyalquot.expr."""
    if depth == 0 or rng.random() < 0.1:
        return rng.choice(["x", "y", "i", "1", "2", "3", "10"])
    below = grammar_text(rng, depth - 1)
    kind = rng.randrange(5)
    if kind < 2:
        return below + rng.choice([" + ", " - ", "*", "/"]) + grammar_text(rng, depth - 1)
    if kind == 2:
        return "-" + below
    base = f"({below})" if rng.random() < 0.6 else rng.choice(["x", "y", "i", "2"])
    return base if kind == 3 else f"{base}^{rng.randint(-2, 3)}"


def test_parser_matches_sympy():
    rng = random.Random(7)
    local = {"x": X, "y": Y, "i": sp.I}
    checked = 0
    for _ in range(60):
        text = grammar_text(rng)
        try:
            mine = parse_rational(text, XY)
        except ZeroDenominator:
            continue
        reference = sp.parse_expr(text.replace("^", "**"), local_dict=local)
        assert agree(to_sympy(HSeries.constant(mine, 0)), reference, [X, Y]), text
        checked += 1
    assert checked >= 50


# -- the polynomial layer against sympy over Q(i) --------------------------------------

XYZ = ("x", "y", "z")
COEFFICIENTS = [GaussianRational(*c) for c in
                ((1,), (-1,), (2,), (Fraction(1, 2),), (0, 1), (1, -1), (-3, 2))]


@st.composite
def layer_polys(draw, nvars, slots=None, min_terms=1, max_terms=3):
    """A nonzero polynomial in the first nvars of x, y, z, with exponents only in `slots`."""
    slots = range(nvars) if slots is None else slots
    exps = st.tuples(*[st.integers(0, 2) if i in slots else st.just(0) for i in range(nvars)])
    terms = draw(st.dictionaries(exps, st.sampled_from(COEFFICIENTS),
                                 min_size=min_terms, max_size=max_terms))
    return Polynomial(XYZ[:nvars], terms)


@st.composite
def planted_gcd_pairs(draw):
    """(p, q) with planted common factors; a factor in one variable alone makes
    that variable's content, so the univariate base case of the modular gcd runs."""
    nvars = draw(st.integers(1, 3))
    factor = st.one_of(layer_polys(nvars, min_terms=2),
                       *[layer_polys(nvars, (i,), min_terms=2) for i in range(nvars)])
    common, left, right = (draw(st.lists(factor, min_size=1, max_size=2)) for _ in range(3))
    return reduce(mul, common + left), reduce(mul, common + right)


def sympy_poly(p):
    return sp.Poly(poly_expr(p), *[sp.Symbol(v) for v in p.vars], domain=sp.QQ_I)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(planted_gcd_pairs())
def test_gcd_matches_sympy(pair):
    p, q = pair
    g = poly_gcd(p, q)
    assert sympy_poly(g).monic() == sp.gcd(sympy_poly(p), sympy_poly(q)).monic(), (p, q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[layer_polys(n, max_terms=4)] * 2)))
def test_ring_operations_match_sympy(polys):
    p, q = polys
    assert sp.expand(poly_expr(p) + poly_expr(q) - poly_expr(p + q)) == 0
    assert sp.expand(poly_expr(p) * poly_expr(q) - poly_expr(p * q)) == 0
    for name in p.vars:
        assert sp.expand(sp.diff(poly_expr(p), name) - poly_expr(p.derivative(name))) == 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    layer_polys(n), st.lists(layer_polys(n, max_terms=2), min_size=3, max_size=3))))
def test_compose_matches_sympy(case):
    p, (q, r, s) = case
    symbols = [sp.Symbol(v) for v in p.vars]
    images = [q, r, s][: len(symbols)]
    composed = poly_expr(p).subs(dict(zip(symbols, map(poly_expr, images))), simultaneous=True)
    assert sp.expand(composed - poly_expr(p.compose(images))) == 0
    # rational images take one canonical sum
    quotients = [RationalFunction(q, r), RationalFunction.from_polynomial(s),
                 RationalFunction(r, q)]
    got = p.compose(quotients[: len(symbols)])
    num, den = sp.fraction(sp.together(poly_expr(p).subs(
        {v: poly_expr(c.num) / poly_expr(c.den) for v, c in zip(symbols, quotients)},
        simultaneous=True)))
    assert sp.expand(num * poly_expr(got.den) - den * poly_expr(got.num)) == 0


# -- the affine factor split against sympy over Q(i) -------------------------------------

CENTERS = COEFFICIENTS + [GaussianRational(0)]


@st.composite
def form_products(draw, nvars, disjoint=False):
    """(den, forms): the expanded product of 1-3 Gaussian-centred affine forms in the
    first nvars of x, y, z, with multiplicities 1-4; with `disjoint` no two forms share
    a variable."""
    if disjoint:
        owner = draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
        groups = [[i for i in range(nvars) if owner[i] == o] for o in sorted(set(owner))]
    else:
        groups = [draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=nvars,
                                unique=True)) for _ in range(draw(st.integers(1, 3)))]
    forms = []
    for group in groups:
        terms = {tuple(int(i == j) for i in range(nvars)): draw(st.sampled_from(COEFFICIENTS))
                 for j in group}
        terms[(0,) * nvars] = draw(st.sampled_from(CENTERS))
        forms.append((Polynomial(XYZ[:nvars], terms), draw(st.integers(1, 4))))
    return reduce(mul, (form ** m for form, m in forms)).monic(), forms


def split_text(split):
    return sorted((str(sympy_poly(form).monic()), m) for form, m in split.items())


# sympy factors over Q(i) slowly past two variables, so its side stays in x, y
@settings(max_examples=40, deadline=None, derandomize=True)
@given(form_products(2))
def test_affine_factors_match_sympy(case):
    den, _ = case
    split = moyal._affine_factors(den)
    if split is not None:
        assert all(form == form.monic() for form in split), split
        _, factors = sp.factor_list(poly_expr(den), X, Y, gaussian=True)
        assert split_text(split) == sorted(
            (str(sp.Poly(f, X, Y, domain=sp.QQ_I).monic()), m) for f, m in factors), den


@settings(max_examples=60, deadline=None, derandomize=True)
@given(form_products(3, disjoint=True))
def test_affine_factors_split_forms_in_disjoint_variables(case):
    den, forms = case
    assert moyal._affine_factors(den) == {form.monic(): m for form, m in forms}, den


def test_affine_factors_refuse_what_does_not_split():
    assert moyal._affine_factors(parse_rational("x^2 + y^2", XY).num) is None
    assert moyal._affine_factors(parse_rational("p^3 - 8*p", ("z", "p")).num) is None
