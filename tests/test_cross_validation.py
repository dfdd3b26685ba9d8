"""Cross-validation against sympy, when available.

A third computation route, fully outside this package: the star product is
expanded symbolically with sympy and compared by exact evaluation at random
rational points.  Skipped when sympy is not installed.
"""

import random

import pytest

sp = pytest.importorskip("sympy")

from moyalquot.atlas import KChartFunction, star_on_K
from moyalquot.errors import ZeroDenominator
from moyalquot.expr import parse_rational
from moyalquot.moyal import MoyalContext, SymplecticSpace, moyal_star
from moyalquot.polynomial import Polynomial
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


def to_sympy(series):
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
