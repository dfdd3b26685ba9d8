from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot import moyal, quot
from moyalquot.errors import (
    BadPermutation,
    InvalidPoint,
    NotInvariant,
    OrderTooLarge,
    VariableMismatch,
)
from moyalquot.geometry import pushforward_even_pair, sigma_pullback_pair
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.quot import (
    ProductContext,
    QuotCellPoint,
    SymSeries,
    is_invariant,
    permute,
    product_star,
    quot_cell_star,
    quot_point_validate,
    support_divisor,
    symmetrize,
)
from moyalquot.moyal import MoyalContext, SymplecticSpace, moyal_star, poisson_bracket
from moyalquot.rational import RationalFunction
from moyalquot.sampling import SampleStream
from moyalquot.series import HSeries
from oracles import (
    is_invariant_oracle,
    laurent,
    pullback_pair_oracle,
    pushforward_pair_oracle,
    star_2d_oracle,
    star_by_bidiff_oracle,
    symmetrize_oracle,
)

I = GaussianRational(0, 1)
ZP = ("z", "p")


def ctx21(order=4):
    return ProductContext(d=2, r=1, order=order)


def ctx22(order=4):
    return ProductContext(d=2, r=2, order=order)


def chart_star(chart_pairs, order, f, g):
    """moyal_star on f's variables, the named pairs as chart pairs and the rest flat."""
    pairs = list(zip(f.vars[::2], f.vars[1::2]))
    chart = [pairs.index(tuple(pair)) for pair in chart_pairs]
    space = SymplecticSpace(f.vars, [-1 if k in chart else 1 for k in range(len(pairs))], chart)
    return moyal_star(MoyalContext(space, order), f, g)


def poly_series(ctx, terms, order=None):
    order = ctx.order if order is None else order
    return HSeries.constant(
        RationalFunction.from_polynomial(Polynomial(ctx.vars, terms)), order
    )


def test_context_shape():
    ctx = ctx22()
    assert ctx.vars == ("z1", "p1", "z2", "p2", "u1", "v1", "u2", "v2")
    assert len(ctx.vars) == 2 * ctx.d * ctx.r
    assert ctx21().flat_pairs == ()
    with pytest.raises(InvalidPoint):
        ProductContext(d=0, r=1, order=2)


def test_context_fields_are_built_once():
    ctx = ctx22()
    for name in ("chart_pairs", "flat_pairs", "vars", "space"):
        assert getattr(ctx, name) is getattr(ctx, name)
    assert ctx.space == SymplecticSpace.cotangent(ctx.chart_pairs, ctx.flat_pairs)
    assert ctx.space.vars is ctx.vars
    # equality, hash and repr see (d, r, order) only
    twin = ctx22()
    assert twin == ctx and hash(twin) == hash(ctx) == hash((2, 2, 4))
    assert ctx != ctx22(order=3) and ctx != ctx21()
    assert repr(ctx) == "ProductContext(d=2, r=2, order=4)"


def test_context_negative_order_is_order_too_large():
    # as for MoyalContext: a domain error, which the suites report as a case
    with pytest.raises(OrderTooLarge):
        ProductContext(d=1, r=1, order=-1)


def test_block_space_brackets():
    ctx = ctx22(order=0)
    space = ctx.space
    mctx = MoyalContext(space, 0)
    vs = ctx.vars
    z1, p1 = (RationalFunction.variable(vs, n) for n in ("z1", "p1"))
    u1, v1 = (RationalFunction.variable(vs, n) for n in ("u1", "v1"))
    z2 = RationalFunction.variable(vs, "z2")
    assert poisson_bracket(mctx, z1, p1) == RationalFunction.constant(vs, -1)
    assert poisson_bracket(mctx, u1, v1) == RationalFunction.one(vs)
    assert poisson_bracket(mctx, z1, z2).is_zero()
    assert poisson_bracket(mctx, z1, u1).is_zero()


def test_product_star_examples():
    ctx = ctx21()
    z1 = HSeries.variable(ctx.vars, "z1", ctx.order)
    z2 = HSeries.variable(ctx.vars, "z2", ctx.order)
    p1 = HSeries.variable(ctx.vars, "p1", ctx.order)
    assert product_star(ctx, z1, z2) == poly_series(ctx, {(1, 0, 1, 0): 1})

    got = product_star(ctx, z1, p1)
    assert got.coeffs[0] == RationalFunction.from_polynomial(
        Polynomial(ctx.vars, {(1, 1, 0, 0): 1})
    )
    assert got.coeffs[1] == RationalFunction.constant(ctx.vars, I * -1 / 2)

    ctx2 = ctx22()
    u1 = HSeries.variable(ctx2.vars, "u1", ctx2.order)
    v1 = HSeries.variable(ctx2.vars, "v1", ctx2.order)
    got = product_star(ctx2, u1, v1)
    assert got.coeffs[1] == RationalFunction.constant(ctx2.vars, I * 1 / 2)


def test_product_star_single_chart_block_matches_chart_star():
    # an independent route: pull back onto a plane with its own names, the
    # binomial oracle there, push forward; chart names may be any pair,
    # including the cover's usual (x, y) in either order
    ctx = ProductContext(d=1, r=1, order=4)
    stars = [(ctx.chart_pairs[0], lambda f, g: product_star(ctx, f, g))]
    for pair in (("z", "p"), ("x", "y"), ("y", "x"), ("x1", "y1")):
        stars.append((pair, lambda f, g, pair=pair: chart_star((pair,), 4, f, g)))
    plane = ("s", "t")
    s = SampleStream("quot-single-block")
    for pair, star in stars:
        for _ in range(3):
            f = s.rational_function(pair, 2)
            g = RationalFunction.from_polynomial(s.polynomial(pair, 2))
            expected = star_2d_oracle(
                sigma_pullback_pair(f, *pair, *plane), sigma_pullback_pair(g, *pair, *plane), 4
            )
            pushed = [pushforward_even_pair(c, *plane, *pair) for c in expected.coeffs]
            assert star(HSeries.constant(f, 4), HSeries.constant(g, 4)) == HSeries(pushed)


_CELL = ProductContext(d=2, r=2, order=3)


@pytest.mark.parametrize(
    "chart_pairs,flat_pairs",
    [((), (("x", "y"),)), ((("z", "p"),), ()), (_CELL.chart_pairs, _CELL.flat_pairs)],
    ids=["flat", "kchart", "product"],
)
def test_cover_star_refuses_a_short_operand(chart_pairs, flat_pairs):
    # as moyal_star does: an operand below the order is not padded with zeros
    vs = tuple(v for pair in chart_pairs + flat_pairs for v in pair)
    short, full = HSeries.variable(vs, vs[0], 1), HSeries.variable(vs, vs[1], 3)
    for f, g in ((short, full), (full, short)):
        with pytest.raises(OrderTooLarge):
            chart_star(chart_pairs, 3, f, g)
        if chart_pairs == _CELL.chart_pairs:
            with pytest.raises(OrderTooLarge):
                product_star(_CELL, f, g)
    assert chart_star(chart_pairs, 1, short, full).order == 1


def test_product_star_single_flat_block_matches_moyal():
    ctx = ProductContext(d=1, r=2, order=3)
    UV = ("u1", "v1")
    s = SampleStream("quot-flat-block")
    plane = MoyalContext(SymplecticSpace.standard(UV), 3)
    for _ in range(5):
        f_small = s.polynomial(UV, 2)
        g_small = s.polynomial(UV, 2)
        via_product = product_star(
            ctx,
            HSeries.constant(RationalFunction.from_polynomial(f_small.with_variables(ctx.vars)), 3),
            HSeries.constant(RationalFunction.from_polynomial(g_small.with_variables(ctx.vars)), 3),
        )
        via_plane = moyal_star(
            plane,
            HSeries.constant(RationalFunction.from_polynomial(f_small), 3),
            HSeries.constant(RationalFunction.from_polynomial(g_small), 3),
        )
        lifted = HSeries(
            [RationalFunction.from_polynomial(c.num.with_variables(ctx.vars)) for c in via_plane.coeffs]
        )
        assert via_product == lifted


def test_permute_examples():
    ctx = ctx21()
    z1 = HSeries.variable(ctx.vars, "z1", 1)
    assert permute(ctx, (1, 2), z1) == z1
    assert permute(ctx, (2, 1), z1) == HSeries.variable(ctx.vars, "z2", 1)
    z1p2 = poly_series(ctx, {(1, 0, 0, 1): 1}, order=1)
    z2p1 = poly_series(ctx, {(0, 1, 1, 0): 1}, order=1)
    assert permute(ctx, (2, 1), z1p2) == z2p1
    with pytest.raises(BadPermutation):
        permute(ctx, (1, 1), z1)
    with pytest.raises(BadPermutation):
        permute(ctx, (1,), z1)


def test_symmetrize_examples():
    ctx = ctx21()
    z1 = HSeries.variable(ctx.vars, "z1", 2)
    z2 = HSeries.variable(ctx.vars, "z2", 2)
    half = GaussianRational(1) / 2
    sym = symmetrize(ctx, z1)
    assert sym.value == (z1 + z2) * half

    z1z2 = poly_series(ctx, {(1, 0, 1, 0): 1}, order=2)
    assert symmetrize(ctx, z1z2).value == z1z2

    z1p1 = poly_series(ctx, {(1, 1, 0, 0): 1}, order=2)
    z2p2 = poly_series(ctx, {(0, 0, 1, 1): 1}, order=2)
    assert symmetrize(ctx, z1p1).value == (z1p1 + z2p2) * half


def test_is_invariant_examples():
    ctx = ctx21()
    z1 = HSeries.variable(ctx.vars, "z1", 1)
    z2 = HSeries.variable(ctx.vars, "z2", 1)
    assert is_invariant(ctx, z1 + z2)
    assert not is_invariant(ctx, z1 - z2)
    ctx3 = ProductContext(d=3, r=1, order=1)
    e2 = poly_series(
        ctx3,
        {(1, 0, 1, 0, 0, 0): 1, (1, 0, 0, 0, 1, 0): 1, (0, 0, 1, 0, 1, 0): 1},
        order=1,
    )
    assert is_invariant(ctx3, e2)


def test_is_invariant_up_to_one_sign():
    # the canonical form of (z1 - z2)/(p1 - p2) changes sign in numerator and
    # denominator under the swap, and the function does not
    ctx = ctx21(order=1)
    z1, p1, z2, p2 = (RationalFunction.variable(ctx.vars, v) for v in ctx.vars)
    alternating = HSeries.constant((z1 - z2) / (p1 - p2), 1)
    den = alternating.coeffs[0].den
    assert _swapped(den, 1) == -den
    assert is_invariant(ctx, alternating) and is_invariant_oracle(ctx, alternating)
    mixed = HSeries.constant((z1 - z2) / (p1 + p2), 1)
    assert not is_invariant(ctx, mixed) and not is_invariant_oracle(ctx, mixed)


def _exponents(n):
    """Exponent tuples that move at most three variables, by -2..3."""
    return st.dictionaries(st.integers(0, n - 1), st.integers(-2, 3), max_size=3).map(
        lambda e: tuple(e.get(i, 0) for i in range(n)))


@st.composite
def cell_series(draw):
    """(context, series) with d <= 5, r <= 2: Laurent coefficients, and at d <= 3
    also coefficients over an affine form in the chart variables."""
    d = draw(st.integers(1, 5))
    ctx = ProductContext(d=d, r=draw(st.integers(1, 2)), order=draw(st.integers(0, 2)))
    vs, n = ctx.vars, 2 * d * ctx.r
    terms = st.dictionaries(_exponents(n), st.sampled_from(COEFFS), max_size=3)

    def coefficient():
        value = laurent(vs, draw(terms))
        if d > 3 or not draw(st.booleans()):
            return value
        # two chart variables only at d <= 2, which keeps the d! oracle quick
        form = draw(st.dictionaries(st.integers(0, 2 * d - 1), st.sampled_from(COEFFS),
                                    min_size=1, max_size=1 if d > 2 else 2))
        units = {tuple(int(i == j) for i in range(n)): c for j, c in form.items()}
        units[(0,) * n] = draw(st.sampled_from(COEFFS))
        return value / RationalFunction.from_polynomial(Polynomial(vs, units))

    return ctx, HSeries([coefficient() for _ in range(ctx.order + 1)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cell_series())
def test_symmetrize_matches_the_permutation_average(case):
    ctx, f = case
    sym = symmetrize(ctx, f).value
    assert sym == symmetrize_oracle(ctx, f)
    assert is_invariant(ctx, sym)


def _swapped(p, t):
    """p with the chart pairs t and t + 1 exchanged."""
    i = 2 * (t - 1)
    return Polynomial(p.vars, {e[:i] + e[i + 2:i + 4] + e[i:i + 2] + e[i + 4:]: v
                               for e, v in p.terms.items()})


def _alternating(ctx, sign):
    """prod_{i<j} (z_i - z_j) / prod_{i<j} (p_i + sign p_j)."""
    z = [RationalFunction.variable(ctx.vars, v) for v, _ in ctx.chart_pairs]
    p = [RationalFunction.variable(ctx.vars, v) for _, v in ctx.chart_pairs]
    out = RationalFunction.one(ctx.vars)
    for i in range(ctx.d):
        for j in range(i + 1, ctx.d):
            out = out * (z[i] - z[j]) / (p[i] + p[j] * sign)
    return out


@st.composite
def invariance_cases(draw):
    """A drawn series, its symmetrization, or a near miss of it: one coefficient
    off by one term or with its denominator swapped, or times an alternating
    factor that is invariant (lambda = -1) or not."""
    ctx, f = draw(cell_series())
    kind = draw(st.sampled_from(["drawn", "symmetric", "extra term", "swapped denominator",
                                 "alternating", "alternating over symmetric"]))
    if kind == "drawn":
        return ctx, f
    sym = symmetrize_oracle(ctx, f)
    k = draw(st.integers(0, ctx.order))
    c = sym.coeffs[k]
    if kind == "extra term":
        c = c + laurent(ctx.vars, {draw(_exponents(len(ctx.vars))): draw(st.sampled_from(COEFFS))})
    elif kind == "swapped denominator" and ctx.d > 1:
        c = RationalFunction(c.num, _swapped(c.den, draw(st.integers(1, ctx.d - 1))))
    elif kind.startswith("alternating") and 1 < ctx.d <= 4:
        c = c * _alternating(ctx, -1 if kind == "alternating" else 1)
    return ctx, HSeries(sym.coeffs[:k] + (c,) + sym.coeffs[k + 1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(invariance_cases())
def test_is_invariant_matches_permuted_copies(case):
    ctx, f = case
    assert is_invariant(ctx, f) == is_invariant_oracle(ctx, f)


def _refuse(*args):
    raise AssertionError("permuted copy built")


def test_symmetrize_lists_each_orbit_once(monkeypatch):
    ctx = ProductContext(d=5, r=2, order=1)
    n = len(ctx.vars)
    z1 = tuple(int(i == 0) for i in range(n))
    z1_over_p2 = tuple({0: 1, 3: -1}.get(i, 0) for i in range(n))
    z2_u1 = tuple({2: 1, 10: 1}.get(i, 0) for i in range(n))
    # orbits of 5, 5 * 4 and 5 (the flat exponent of u1 stays), against 5! = 120
    f = HSeries([laurent(ctx.vars, {z1: 2, z1_over_p2: I}), laurent(ctx.vars, {z2_u1: 3})])
    expected = symmetrize_oracle(ctx, f)
    real, images = quot._arrangements, []

    def counted(counts, size):
        for image in real(counts, size):
            if size == ctx.d:
                images.append(image)
            yield image

    monkeypatch.setattr(quot, "_arrangements", counted)
    monkeypatch.setattr(quot, "all_permutations", _refuse)
    monkeypatch.setattr(quot, "permute", _refuse)
    assert symmetrize(ctx, f).value == expected
    assert len(images) == 5 + 20 + 5


def test_is_invariant_builds_no_permuted_copy(monkeypatch):
    ctx = ProductContext(d=3, r=1, order=1)
    z1, p1 = (RationalFunction.variable(ctx.vars, v) for v in ctx.vars[:2])
    drawn = HSeries([z1 / (p1 + 1), z1 * z1 / p1])
    cases = [drawn, symmetrize_oracle(ctx, drawn), HSeries.constant(_alternating(ctx, -1), 1),
             HSeries.constant(_alternating(ctx, 1), 1)]
    expected = [is_invariant_oracle(ctx, f) for f in cases]
    assert expected == [False, True, True, False]
    monkeypatch.setattr(quot, "permute", _refuse)
    monkeypatch.setattr(Polynomial, "_raw", _refuse)
    assert [is_invariant(ctx, f) for f in cases] == expected


def test_quot_cell_star_examples():
    ctx = ctx21()
    e1 = symmetrize(ctx, HSeries.variable(ctx.vars, "z1", ctx.order) * 2)
    P1 = symmetrize(ctx, HSeries.variable(ctx.vars, "p1", ctx.order) * 2)
    got = quot_cell_star(ctx, e1, P1)
    plain = e1.value.coeffs[0] * P1.value.coeffs[0]
    assert got.value.coeffs[0] == plain
    assert got.value.coeffs[1] == RationalFunction.constant(ctx.vars, -I)

    one = SymSeries(HSeries.one(ctx.vars, ctx.order))
    f = symmetrize(ctx, poly_series(ctx, {(1, 1, 0, 0): 1}))
    assert quot_cell_star(ctx, one, f).value == f.value

    comm = quot_cell_star(ctx, e1, P1).value - quot_cell_star(ctx, P1, e1).value
    assert comm.coeffs[1] == RationalFunction.constant(ctx.vars, -2 * I)
    block = MoyalContext(ctx.space, ctx.order)
    assert comm.coeffs[1] == I * poisson_bracket(
        block, e1.value.coeffs[0], P1.value.coeffs[0]
    )


def test_quot_cell_star_rejects_non_invariant():
    ctx = ctx21()
    z1 = SymSeries(HSeries.variable(ctx.vars, "z1", ctx.order))
    one = SymSeries(HSeries.one(ctx.vars, ctx.order))
    with pytest.raises(NotInvariant):
        quot_cell_star(ctx, z1, one)


def test_invariance_closure_random():
    ctx = ctx22()
    s = SampleStream("quot-closure")
    for _ in range(10):
        f = symmetrize(ctx, poly_series(ctx, {s.exponent(8, 2): s.coefficient()}))
        g = symmetrize(ctx, poly_series(ctx, {s.exponent(8, 2): s.coefficient()}))
        out = quot_cell_star(ctx, f, g)
        assert is_invariant(ctx, out.value)


def test_invariance_closure_three_factors():
    ctx = ProductContext(d=3, r=1, order=3)
    s = SampleStream("quot-closure-d3")
    for _ in range(6):
        f = symmetrize(ctx, poly_series(ctx, {s.exponent(6, 3): s.coefficient()}))
        g = symmetrize(ctx, poly_series(ctx, {s.exponent(6, 3): s.coefficient()}))
        out = quot_cell_star(ctx, f, g)
        assert is_invariant(ctx, out.value)
        assert out.value.coeffs[0] == f.value.coeffs[0] * g.value.coeffs[0]


def test_product_star_variable_mismatch():
    ctx = ctx21()
    with pytest.raises(VariableMismatch):
        product_star(ctx, HSeries.one(("a", "b"), 4), HSeries.one(("a", "b"), 4))


# -- cell points ------------------------------------------------------------------


def test_point_validation_examples():
    g = GaussianRational
    good = QuotCellPoint((g(0), g(1)), (g(1), g(1)), ((g(0), g(0)), (g(1), g(2))))
    assert quot_point_validate(good).valid
    # d(r-1) flat pairs: no r gives one pair at d = 2
    with pytest.raises(InvalidPoint):
        QuotCellPoint((g(0), g(1)), (g(1), g(1)), ((g(0), g(0)),))

    dup = QuotCellPoint((g(0), g(0)), (g(1), g(1)))
    report = quot_point_validate(dup)
    assert not report.valid and any("DuplicateSupport" in s for s in report.issues)

    zero_cov = QuotCellPoint((g(0), g(1)), (g(0), g(1)))
    report = quot_point_validate(zero_cov)
    assert not report.valid and any("ZeroCovector" in s for s in report.issues)

    with pytest.raises(InvalidPoint):
        QuotCellPoint((g(0),), (g(1), g(2)))


def test_support_divisor():
    g = GaussianRational
    pt = QuotCellPoint((g(0), g(1)), (g(1), g(1)))
    divisor = support_divisor(pt)
    assert divisor == {g(0): 1, g(1): 1}

    single = QuotCellPoint((g(5),), (g(2),))
    assert support_divisor(single) == {g(5): 1}

    swapped = QuotCellPoint((g(1), g(0)), (g(1), g(1)))
    assert support_divisor(pt) == support_divisor(swapped)

    bad = QuotCellPoint((g(0), g(1)), (g(0), g(1)))
    with pytest.raises(InvalidPoint):
        support_divisor(bad)


def test_r1_degenerate_flat_block():
    ctx = ProductContext(d=2, r=1, order=2)
    assert ctx.flat_pairs == ()
    assert len(ctx.vars) == 4
    one = SymSeries(HSeries.one(ctx.vars, 2))
    assert quot_cell_star(ctx, one, one).value == HSeries.one(ctx.vars, 2)


# -- chart pairs in the Laurent kernel ---------------------------------------------------

# (variables, chart pairs): kchart, a flat pair ahead of the chart pair, the cells
COVER_LAYOUTS = [(("z", "p"), (("z", "p"),)), (("u", "v", "z", "p"), (("z", "p"),))] + [
    (ctx.vars, ctx.chart_pairs)
    for ctx in (ProductContext(d, r, 0) for d in (1, 2, 3) for r in (1, 2))
]
COEFFS = (1, -1, 3, I, GaussianRational(Fraction(-1, 2), 3))


@st.composite
def cover_cases(draw):
    vs, chart_pairs = draw(st.sampled_from(COVER_LAYOUTS))
    n = len(vs)
    order = draw(st.integers(0, 6 if n <= 4 else 3))  # keeps the oracle quick
    # each term moves at most three variables, by exponents -3..3
    exponent = st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=3).map(
        lambda e: tuple(e.get(i, 0) for i in range(n)))
    coefficient = st.dictionaries(exponent, st.sampled_from(COEFFS), max_size=2)

    def series():  # every h-coefficient drawn on its own
        return HSeries([laurent(vs, draw(coefficient)) for _ in range(order + 1)])

    return chart_pairs, order, series(), series()


def cover_route_oracle(chart_pairs, order, f: HSeries, g: HSeries) -> HSeries:
    """Pull back through the cover, take derivatives, push forward, by substitution."""
    def pull(c):
        for z, p in chart_pairs:
            c = pullback_pair_oracle(c, z, p, z, p)
        return c

    def push(c):
        for z, p in chart_pairs:
            c = pushforward_pair_oracle(c, z, p, z, p)
        return c

    ctx = MoyalContext(SymplecticSpace.standard(f.vars), order)
    product = star_by_bidiff_oracle(ctx, f.map_coefficients(pull), g.map_coefficients(pull))
    return product.map_coefficients(push)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cover_cases())
def test_chart_kind_matches_the_cover_route(case):
    assert chart_star(*case) == cover_route_oracle(*case)


def test_laurent_operands_never_visit_the_cover(monkeypatch):
    def refused(*args):
        raise AssertionError("cover map called")

    ctx = ProductContext(d=2, r=2, order=3)
    z1, p1, z2, p2, u1, v1 = (RationalFunction.variable(ctx.vars, v) for v in ctx.vars[:6])
    z, p = (RationalFunction.variable(ZP, v) for v in ZP)
    cases = [
        (ctx.chart_pairs, HSeries([z1 * p2 / u1, 1 / (p1 * p1), z2 / z1, v1 * p2]),
         HSeries([p1 * p2 / z2, z1 ** 3, u1 * u1 / p2, 1 / v1])),
        ((ZP,), HSeries([z * z / p, z, p, 1 / z]), HSeries([p ** -3, z, p / z, z * p])),
    ]
    expected = [chart_star(pairs, 3, f, g) for pairs, f, g in cases]
    monkeypatch.setattr(moyal, "sigma_pullback_pair", refused)
    monkeypatch.setattr(moyal, "pushforward_even_pair", refused)
    assert [chart_star(pairs, 3, f, g) for pairs, f, g in cases] == expected
    assert product_star(ctx, *cases[0][1:]) == expected[0]
    for pairs, f, g in cases:
        first = RationalFunction.variable(f.vars, pairs[0][0])
        with pytest.raises(AssertionError, match="cover map called"):
            chart_star(pairs, 3, HSeries((1 / (first + 1),) + f.coeffs[1:]), g)


# -- the cover route for operands off the kernel ------------------------------------------


@st.composite
def affine_cover_cases(draw):
    """A product layout with d <= 3 and operands whose coefficients are Laurent
    polynomials, some over an affine form in one chart variable, such as
    1/(z1 + c) or 1/(p2 - c)."""
    ctx = ProductContext(draw(st.integers(1, 3)), draw(st.integers(1, 2)), 0)
    vs, n = ctx.vars, len(ctx.vars)
    order = draw(st.integers(0, 2 if n <= 4 else 1))  # keeps the oracle quick
    terms = st.dictionaries(_exponents(n), st.sampled_from(COEFFS), max_size=2)

    def coefficient(affine):
        value = laurent(vs, draw(terms))
        if affine or draw(st.booleans()):
            x = RationalFunction.variable(vs, vs[draw(st.integers(0, 2 * ctx.d - 1))])
            value = (value + 1) / (x + draw(st.sampled_from(COEFFS)))
        return value

    def series(first_affine):  # the left operand always leaves the kernel
        return HSeries([coefficient(first_affine and k == 0) for k in range(order + 1)])

    return ctx.chart_pairs, order, series(True), series(False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(affine_cover_cases())
def test_cover_route_matches_the_oracle_off_the_kernel(case):
    chart_pairs, order, f, g = case
    got = chart_star(*case)
    assert got == cover_route_oracle(*case)
    d = len(chart_pairs)
    ctx = ProductContext(d, len(f.vars) // (2 * d), order)
    assert product_star(ctx, f, g) == got
