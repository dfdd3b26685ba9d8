"""Star-product tests; expected values come from the binomial-form expansion
of the two-dimensional product (see oracles.py), which is independent of the
implementation's multiset expansion over bivector entries."""

from fractions import Fraction
from itertools import combinations, product
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from moyalquot import cli, moyal, suites
from moyalquot.errors import (
    NameCollision,
    NotSymplectic,
    OrderTooLarge,
    VariableMismatch,
)
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.series import HSeries, hs_equal
from moyalquot.moyal import (
    LinearSymplectic,
    MoyalContext,
    SymplecticSpace,
    apply_symplectic,
    bidiff_power,
    moyal_star,
    poisson_bracket,
    star_commutator,
)
from moyalquot.expr import parse_rational, parse_series
from moyalquot.quot import ProductContext, product_star, quot_cell_star, symmetrize
from moyalquot.sampling import SampleStream

from oracles import (
    apply_symplectic_oracle,
    compose_oracle,
    form_pullback,
    laurent,
    laurent_star_oracle,
    omega_matrix,
    padded,
    star_2d_oracle,
    star_by_bidiff_oracle,
)

XY = ("x", "y")
ZP = ("z", "p")
I = GaussianRational(0, 1)


def plane_ctx(order=4):
    return MoyalContext(SymplecticSpace.standard(XY), order)


def const(p: Polynomial, order: int) -> HSeries:
    return HSeries.constant(RationalFunction.from_polynomial(p), order)


def test_standard_space_form():
    space = SymplecticSpace.standard(XY)
    assert omega_matrix(space) == ((0, 1), (-1, 0))
    assert space.brackets == ((0, 1, 1), (1, 0, -1))
    x, y = (Polynomial.variable(XY, v) for v in XY)
    assert space.bracket(x, y) == 1 and space.bracket(2 * x + 3 * y, 5 * x + 7 * y) == -1
    # a Darboux pair with omega(q, p) = s has bracket 1/s
    UV = ("x", "y", "u", "v")
    scaled = SymplecticSpace.block([("x", "y", 2), ("u", "v", I)])
    assert scaled.scales == (2, I)
    half = GaussianRational(1) / 2
    assert scaled.brackets == ((0, 1, half), (1, 0, -half), (2, 3, -I), (3, 2, I))
    # the constants of affine forms do not enter
    x, y, u, v = (Polynomial.variable(UV, name) for name in UV)
    assert scaled.bracket(x + u + 9, y + v + 9) == half - I
    assert scaled.bracket(x + 9, u + 9) == 0 and scaled.bracket(x, x + 1) == 0


def test_space_rejects_bad_forms():
    with pytest.raises(NotSymplectic):
        SymplecticSpace.block([])  # empty
    with pytest.raises(NotSymplectic):
        SymplecticSpace.standard(("x",))  # odd dimension
    with pytest.raises(NotSymplectic):
        SymplecticSpace.standard(("x", "y", "u"))
    with pytest.raises(NotSymplectic):
        SymplecticSpace.block([("x", "y", 0)])  # degenerate
    with pytest.raises(NameCollision):
        SymplecticSpace.block([("x", "x", 1)])
    # a chart pair carries the form dp^dz, scale -1, and nothing else
    for scale in (1, 2, I, GaussianRational(-1, 1)):
        with pytest.raises(NotSymplectic):
            SymplecticSpace(XY, [scale], chart=[0])
    with pytest.raises(NotSymplectic):
        SymplecticSpace(XY, [-1], chart=[1])  # no second pair


def test_cotangent_space_marks_its_chart_pairs():
    space = SymplecticSpace.cotangent((("z1", "p1"), ("z2", "p2")), (("u1", "v1"),))
    assert space.vars == ("z1", "p1", "z2", "p2", "u1", "v1")
    assert space.scales == (-1, -1, 1) and space.chart == {0, 1}
    # the chart kind is part of the space: same form, different star
    plain = SymplecticSpace.block([("z1", "p1", -1), ("z2", "p2", -1), ("u1", "v1", 1)])
    assert plain.brackets == space.brackets and plain.chart == frozenset()
    assert plain != space and SymplecticSpace(plain.vars, plain.scales, [1, 0]) == space
    assert hash(SymplecticSpace(plain.vars, plain.scales, [1, 0])) == hash(space)
    # z^2 * p^2: the h-terms agree with the flat star of dp^dz, the h^2 terms do not
    zp = SymplecticSpace.cotangent((("z", "p"),))
    z2, p2 = (HSeries.constant(RationalFunction.variable(ZP, v) ** 2, 2) for v in ZP)
    on_chart = moyal_star(MoyalContext(zp, 2), z2, p2)
    flat = moyal_star(MoyalContext(SymplecticSpace.block([("z", "p", -1)]), 2), z2, p2)
    assert on_chart.coeffs[:2] == flat.coeffs[:2]
    assert (on_chart.coeffs[2], flat.coeffs[2]) == (RationalFunction.constant(ZP, Fraction(-3, 4)),
                                                    RationalFunction.constant(ZP, Fraction(-1, 2)))


def test_poisson_examples():
    ctx = plane_ctx()
    x = RationalFunction.variable(XY, "x")
    y = RationalFunction.variable(XY, "y")
    assert poisson_bracket(ctx, x, y) == RationalFunction.one(XY)
    assert poisson_bracket(ctx, x * x, y) == 2 * x
    f = (x + y) / (y + 1)
    assert poisson_bracket(ctx, f, f).is_zero()


def test_bidiff_examples():
    ctx = plane_ctx()
    x = RationalFunction.variable(XY, "x")
    y = RationalFunction.variable(XY, "y")
    assert bidiff_power(ctx, x, y, 0) == x * y
    assert bidiff_power(ctx, x, y, 1) == poisson_bracket(ctx, x, y)
    assert bidiff_power(ctx, x * x, y * y, 2) == RationalFunction.constant(XY, 4)


def test_star_golden_values_against_oracle():
    ctx = plane_ctx(4)
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    for f, g in ((x, y), (x * x, y * y), (x * x * y, x + y)):
        fr = RationalFunction.from_polynomial(f)
        gr = RationalFunction.from_polynomial(g)
        expected = star_2d_oracle(fr, gr, 4)
        assert moyal_star(ctx, const(f, 4), const(g, 4)) == expected


def test_star_unit_and_trivial():
    ctx = plane_ctx(3)
    f = const(Polynomial.variable(XY, "x") * 3, 3)
    one = HSeries.one(XY, 3)
    assert moyal_star(ctx, one, f) == f
    assert moyal_star(ctx, f, one) == f
    zero = HSeries.zero(XY, 3)
    assert moyal_star(ctx, zero, f) == zero


def test_star_requires_enough_order():
    ctx = plane_ctx(4)
    f = HSeries.one(XY, 2)
    with pytest.raises(OrderTooLarge):
        moyal_star(ctx, f, f)


def test_star_scalar_restriction_is_plain_product():
    ctx = plane_ctx(0)
    s = SampleStream("scalar-restriction")
    for _ in range(5):
        f = s.rational_function(XY, 2, 1)
        g = s.rational_function(XY, 2, 1)
        got = moyal_star(ctx, HSeries.constant(f), HSeries.constant(g))
        assert got.coeffs[0] == f * g


def test_commutator_examples():
    ctx = plane_ctx(3)
    x = const(Polynomial.variable(XY, "x"), 3)
    y = const(Polynomial.variable(XY, "y"), 3)
    comm = star_commutator(ctx, x, y)
    assert comm.coeffs[0].is_zero()
    assert comm.coeffs[1] == RationalFunction.constant(XY, I)
    assert star_commutator(ctx, x, x).is_zero()

    x2 = const(Polynomial.variable(XY, "x") ** 2, 3)
    y2 = const(Polynomial.variable(XY, "y") ** 2, 3)
    expected = RationalFunction.from_polynomial(
        Polynomial.variable(XY, "x") * Polynomial.variable(XY, "y") * GaussianRational(0, 4)
    )
    comm2 = star_commutator(ctx, x2, y2)
    assert comm2.coeffs[1] == expected
    assert all(c.is_zero() for i, c in enumerate(comm2.coeffs) if i != 1)


def test_block_sum_brackets():
    # the block sum of the (x, y) and (u, v) planes
    big = SymplecticSpace.block([("x", "y", 1), ("u", "v", 1)])
    ctx = MoyalContext(big, 2)
    vs = big.vars
    x, y, u, v = (RationalFunction.variable(vs, n) for n in vs)
    assert poisson_bracket(ctx, x, y) == RationalFunction.one(vs)
    assert poisson_bracket(ctx, u, v) == RationalFunction.one(vs)
    for f, g in ((x, u), (x, v), (y, u), (y, v)):
        assert poisson_bracket(ctx, f, g).is_zero()
    with pytest.raises(NameCollision):
        SymplecticSpace.block([("x", "y", 1), ("x", "y", 1)])


def test_block_sum_star_factorizes():
    big = SymplecticSpace.block([("x", "y", 1), ("u", "v", 1)])
    ctx = MoyalContext(big, 4)
    vs = big.vars
    x2u = Polynomial.variable(vs, "x") ** 2 * Polynomial.variable(vs, "u")
    yv = Polynomial.variable(vs, "y") * Polynomial.variable(vs, "v")
    got = moyal_star(ctx, const(x2u, 4), const(yv, 4))

    # oracle: star the (x, y) and (u, v) parts separately and combine bilinearly
    sx = star_2d_oracle(
        RationalFunction.from_polynomial(Polynomial.variable(XY, "x") ** 2),
        RationalFunction.from_polynomial(Polynomial.variable(XY, "y")),
        4,
    )
    UV = ("u", "v")
    su = star_2d_oracle(
        RationalFunction.from_polynomial(Polynomial.variable(UV, "u")),
        RationalFunction.from_polynomial(Polynomial.variable(UV, "v")),
        4,
    )

    def lift(series, source):
        return HSeries(
            [
                RationalFunction.from_polynomial(c.num.with_variables(vs))
                for c in series.coeffs
            ]
        )

    expected = lift(sx, XY) * lift(su, UV)
    assert hs_equal(got, padded(expected, 4), 4)


def test_apply_symplectic_examples():
    ctx = plane_ctx(2)
    space = ctx.space
    f = const(Polynomial.variable(XY, "x"), 2)
    ident = LinearSymplectic([[1, 0], [0, 1]], space)
    assert apply_symplectic(ctx, ident, f) == f
    rot = LinearSymplectic([[0, 1], [-1, 0]], space)
    assert apply_symplectic(ctx, rot, f) == const(Polynomial.variable(XY, "y"), 2)
    with pytest.raises(NotSymplectic):
        LinearSymplectic([[2, 0], [0, 2]], space)
    # on the chart form dp^dz the same maps are symplectic, and scaling by 2 is not
    chart = SymplecticSpace.block([("x", "y", -1)])
    assert LinearSymplectic(rot.matrix, chart).matrix == rot.matrix
    with pytest.raises(NotSymplectic):
        LinearSymplectic([[2, 0], [0, 2]], chart)
    omega = omega_matrix(chart)
    assert form_pullback(rot.matrix, omega) == omega
    assert form_pullback(((2, 0), (0, 2)), omega) == ((0, -4), (4, 0))


def _to_scales(matrix, scales):
    """D^-1 M D with D = diag(1, s_1, 1, s_2, ...), which carries Sp of the
    standard form to Sp of the form with omega(q_k, p_k) = s_k."""
    diag = [v for s in scales for v in (GaussianRational(1), s)]
    return tuple(
        tuple(v * diag[j] / diag[i] for j, v in enumerate(row)) for i, row in enumerate(matrix)
    )


def test_linear_symplectic_matches_dense_oracle():
    # LinearSymplectic compares coordinate brackets; the oracle compares m^T omega m
    odd = GaussianRational(Fraction(1, 3), 2)
    X4 = ("x1", "y1", "x2", "y2")
    spaces = [
        SymplecticSpace.standard(XY),
        SymplecticSpace.block([("x", "y", -1)]),
        SymplecticSpace.block([("x", "y", I)]),
        SymplecticSpace.block([("x", "y", odd)]),
        SymplecticSpace.standard(X4),
        SymplecticSpace.block([("x1", "y1", -1), ("x2", "y2", -1)]),
        SymplecticSpace.block([("x1", "y1", -1), ("x2", "y2", I)]),
        SymplecticSpace.block([("x1", "y1", odd), ("x2", "y2", I)]),
    ]
    for space in spaces:
        s = SampleStream(f"symplectic-differential:{space.vars}:{space.scales}")
        standard = SymplecticSpace.standard(space.vars)
        omega = omega_matrix(space)
        n = space.dim
        verdicts = set()
        for _ in range(10):
            base = s.symplectic(standard).matrix
            for matrix in (base, _to_scales(base, space.scales)):
                rows = [list(row) for row in matrix]
                rows[s.rng.randrange(n)][s.rng.randrange(n)] += s.shear_parameter()
                for m in (matrix, rows):
                    try:
                        LinearSymplectic(m, space)
                        accepted = True
                    except NotSymplectic:
                        accepted = False
                    assert accepted == (form_pullback(m, omega) == omega), (space, m)
                    verdicts.add(accepted)
        assert verdicts == {True, False}


def test_equivariance_random_shears():
    ctx = plane_ctx(4)
    s = SampleStream("moyal-equivariance")
    for _ in range(20):
        G = s.symplectic(ctx.space)
        f = const(s.polynomial(XY, 3), 4)
        g = const(s.polynomial(XY, 3), 4)
        lhs = moyal_star(ctx, apply_symplectic(ctx, G, f), apply_symplectic(ctx, G, g))
        rhs = apply_symplectic(ctx, G, moyal_star(ctx, f, g))
        assert lhs == rhs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([XY, ("x1", "y1", "x2", "y2")]), st.integers(0, 10**6))
def test_apply_symplectic_matches_substitution_oracle(vs, seed):
    ctx = MoyalContext(SymplecticSpace.standard(vs), 2)
    s = SampleStream(f"apply-symplectic-{seed}")
    G = s.symplectic(ctx.space)
    r = s.rational_function(vs, 2, 2)
    # a zero coefficient and a squared denominator
    f = HSeries([r, RationalFunction.zero(vs), r * r * s.rational_function(vs, 1, 1)])
    assert apply_symplectic(ctx, G, f) == apply_symplectic_oracle(ctx, G, f)


def test_associativity_polynomials_exact():
    s = SampleStream("moyal-assoc")
    space = SymplecticSpace.standard(XY)
    for _ in range(10):
        f, g, h = (s.polynomial(XY, 3) for _ in range(3))
        order = sum(max(p.total_degree(), 0) for p in (f, g, h))
        ctx = MoyalContext(space, order)
        fs, gs, hs = (const(p, order) for p in (f, g, h))
        assert moyal_star(ctx, moyal_star(ctx, fs, gs), hs) == moyal_star(
            ctx, fs, moyal_star(ctx, gs, hs)
        )


def test_associativity_rationals_truncated():
    s = SampleStream("moyal-assoc-rational")
    ctx = plane_ctx(5)
    for _ in range(4):
        f = HSeries.constant(s.rational_function(XY, 2, 1), 5)
        g = HSeries.constant(s.rational_function(XY, 2, 1), 5)
        h = HSeries.constant(s.rational_function(XY, 2, 1), 5)
        left = moyal_star(ctx, moyal_star(ctx, f, g), h)
        right = moyal_star(ctx, f, moyal_star(ctx, g, h))
        assert hs_equal(left, right, 5)


def test_variable_mismatch_rejected():
    ctx = plane_ctx(2)
    other = HSeries.one(("u", "v"), 2)
    with pytest.raises(VariableMismatch):
        moyal_star(ctx, other, other)


# -- the Laurent-monomial kernel ------------------------------------------------------

SCALES = (1, -1, 2, I, GaussianRational(Fraction(1, 3), 2))
COEFFS = (0, 1, -1, 3, I, GaussianRational(Fraction(-1, 2), 3))


@st.composite
def laurent_star_cases(draw):
    pairs = draw(st.integers(1, 3))
    space = SymplecticSpace.block(
        [(f"q{t}", f"p{t}", draw(st.sampled_from(SCALES))) for t in range(pairs)]
    )
    order = draw(st.integers(0, 6 if pairs < 3 else 4))  # keeps the oracle quick
    vs = space.vars
    exponent = st.tuples(*[st.integers(-2, 3)] * len(vs))
    coefficient = st.dictionaries(exponent, st.sampled_from(COEFFS), max_size=2)

    def series(length):
        return HSeries([laurent(vs, draw(coefficient)) for _ in range(length)])

    # the left operand may carry more orders than the context
    f = series(order + 1 + draw(st.integers(0, 2)))
    return MoyalContext(space, order), f, series(order + 1)


@settings(max_examples=80, deadline=None)
@given(laurent_star_cases())
def test_laurent_kernel_matches_bidiff(case):
    ctx, f, g = case
    assert moyal_star(ctx, f, g) == star_by_bidiff_oracle(ctx, f, g)


# scale classes: chart pairs (at -2) and flat pairs at each scale, -1 among them
KERNEL_KINDS = ("chart",) + SCALES
# denominators whose lcm is large and differs from coefficient to coefficient
KERNEL_COEFFS = COEFFS + (Fraction(1, 3), GaussianRational(Fraction(2, 7), Fraction(1, 5)),
                          1 / GaussianRational(1, 1))


def kernel_space(kinds) -> SymplecticSpace:
    names = [(f"z{t}", f"p{t}") if kind == "chart" else (f"q{t}", f"v{t}")
             for t, kind in enumerate(kinds)]
    return SymplecticSpace([x for pair in names for x in pair],
                           [-1 if kind == "chart" else kind for kind in kinds],
                           [t for t, kind in enumerate(kinds) if kind == "chart"])


@st.composite
def kernel_cases(draw):
    kinds = draw(st.lists(st.sampled_from(KERNEL_KINDS), min_size=1, max_size=3))
    space = kernel_space(kinds)
    order = draw(st.integers(0, 5 if len(kinds) < 3 else 3))
    exponent = st.tuples(*[st.integers(-2, 3)] * space.dim)
    coefficient = st.dictionaries(exponent, st.sampled_from(KERNEL_COEFFS), max_size=3)

    def series(length):
        return HSeries([laurent(space.vars, draw(coefficient)) for _ in range(length)])

    # the left operand carries up to two orders more than the context
    return MoyalContext(space, order), series(order + 1 + draw(st.integers(0, 2))), series(order + 1)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_laurent_kernel_matches_gaussian_oracle(case):
    ctx, f, g = case
    assert moyal_star(ctx, f, g) == laurent_star_oracle(ctx, f, g)


@pytest.mark.parametrize("kinds", [KERNEL_KINDS, ("chart", "chart", 2, 2), ("chart", 1, -1, 1)])
def test_laurent_kernel_scale_classes(kinds):
    # every class alone, then classes of two pairs that lower together
    space = kernel_space(kinds)
    ctx, pairs = MoyalContext(space, 4), len(kinds)
    third, mixed, unit = KERNEL_COEFFS[-3:]
    zero = RationalFunction.zero(space.vars)
    f = HSeries([laurent(space.vars, {(1, 1) * pairs: third, (-1, 2) * pairs: mixed}), zero,
                 laurent(space.vars, {(2, -1) * pairs: Fraction(2, 7)}), zero, zero, zero])
    g = HSeries([laurent(space.vars, {(1, 1) * pairs: unit, (0, -2) * pairs: third}),
                 *[laurent(space.vars, {(1, 0) * pairs: I})] * 4])
    result = moyal_star(ctx, f, g)
    assert result == laurent_star_oracle(ctx, f, g)
    assert all(not c.is_zero() for c in result.coeffs)


def test_laurent_kernel_multiplies_once_per_output_term(monkeypatch):
    # one fixed cell star on Q(2,2) at order 4 with 131 output terms makes 28
    # multiplications: 18 build the two scalar rows, and each of the 5 row
    # products of class totals takes 2.  The Gaussian loop the kernel replaced
    # made 510, one per pair state and series entry.
    ctx = ProductContext(d=2, r=2, order=4)
    s = SampleStream("laurent-kernel-count")
    f, g = (symmetrize(ctx, const(s.polynomial(ctx.vars, 3, max_terms=12), 4)) for _ in range(2))
    moyal._star_scalars.cache_clear()
    real = GaussianRational.__mul__
    calls = []

    def counted(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted)
    result = quot_cell_star(ctx, f, g)
    monkeypatch.undo()
    assert result.value == laurent_star_oracle(MoyalContext(ctx.space, 4), f.value, g.value)
    assert len(calls) <= 32

    # the integer series is cached at a fixed size, and each entry is the sum itself
    series = moyal._pair_series
    assert series.cache_info().maxsize == 4096

    def falling(a, n):
        out = 1
        for t in range(n):
            out *= a - t
        return out

    span = range(-2, 4)
    for order in range(7):
        for a, b, c, d in product(span, repeat=4):
            fresh = [(k, sum((-1) ** j * comb(k, j) * falling(a, k - j) * falling(b, j)
                             * falling(c, j) * falling(d, k - j) for j in range(k + 1)))
                     for k in range(order + 1)]
            expected = tuple((k, v) for k, v in fresh if v)
            assert series(order, a, b, c, d) == expected
            assert series(order, a, b, c, d) == expected  # now from the cache


def test_frame_back_composes_once_per_output_term(monkeypatch):
    # one fixed star over two pairing forms with Gaussian coefficients on flat2 at
    # order 4: moving the kernel's 65 numerator terms back to the 363 terms of the
    # product makes no Gaussian product or sum; the loop it replaced made 5380
    # products and 3875 sums.
    ctx = plane_ctx(4)
    f = parse_series("(x + 2*y)/(x + (1/2 - i/3)*y + 1)^2 + h*i/(x + (1/2 - i/3)*y + 1)", XY, 4)
    g = parse_series("(x*y - 3/4)/(x - (2/5)*y + i/2) + h^2*x", XY, 4)
    used = f.coeffs + g.coeffs
    frame_space, moved, back, strip = moyal._affine_frame(ctx.space, used)
    kernel = moyal._laurent_star(MoyalContext(frame_space, 4), moved)
    assert strip == () and sum(len(c.num.terms) for c in kernel.coeffs) > 40
    calls = []

    def counted(name):
        real = getattr(GaussianRational, name)
        return lambda self, other: calls.append(name) or real(self, other)

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(GaussianRational, name, counted(name))
    powers = []
    product = [moyal._frame_back(c, back, strip, powers) for c in kernel.coeffs]
    nums = [c.num.compose(back) for c in kernel.coeffs]
    monkeypatch.undo()
    assert calls == []
    assert nums == [compose_oracle(c.num, back) for c in kernel.coeffs]
    assert product == [RationalFunction(compose_oracle(c.num, back), compose_oracle(c.den, back))
                       for c in kernel.coeffs]
    assert HSeries(product) == moyal_star(ctx, f, g) == star_by_bidiff_oracle(ctx, f, g)


def test_star_takes_bidiff_for_a_non_laurent_coefficient(monkeypatch):
    space = SymplecticSpace.block([("x", "y", 2), ("u", "v", I)])
    ctx = MoyalContext(space, 3)
    vs = space.vars
    x, y, u, v = (RationalFunction.variable(vs, n) for n in vs)
    zero = RationalFunction.zero(vs)
    f = HSeries([x * u / y, y ** -2, zero, u, 1 / (x + v)])
    g = HSeries([y * v / x, x ** 2, zero, v / u])
    rational = HSeries(f.coeffs[:2] + (1 / (x + v),) + f.coeffs[3:])
    real = RationalFunction.derivative
    taken = []

    def counted(self, name):
        taken.append(name)
        return real(self, name)

    monkeypatch.setattr(RationalFunction, "derivative", counted)
    laurent_product = moyal_star(ctx, f, g)  # 1/(x + v) is past the order
    assert not taken
    rational_product = moyal_star(ctx, rational, g)
    assert taken
    assert laurent_product == star_by_bidiff_oracle(ctx, f, g)
    assert rational_product == star_by_bidiff_oracle(ctx, rational, g)


def test_cell_star_takes_no_derivative(monkeypatch, capsys):
    # a derivative may run only in the suites' reference bracket
    real = RationalFunction.derivative
    reference = []

    def guarded(self, name):
        if not reference:
            raise AssertionError("derivative taken outside the reference bracket")
        return real(self, name)

    def reference_bracket(ctx, f, g):
        reference.append(True)
        try:
            return moyal.poisson_bracket(ctx, f, g)
        finally:
            reference.pop()

    monkeypatch.setattr(RationalFunction, "derivative", guarded)
    monkeypatch.setattr(suites, "poisson_bracket", reference_bracket)

    ctx = ProductContext(d=2, r=2, order=4)
    s = SampleStream("laurent-dispatch")
    f, g = (symmetrize(ctx, const(s.polynomial(ctx.vars, 2), 4)) for _ in range(2))
    assert quot_cell_star(ctx, f, g).value.coeffs[0] == f.value.coeffs[0] * g.value.coeffs[0]
    assert cli.run(["verify", "theorem1", "--seed", "1", "--samples", "3"]) == 0
    assert "total: 6 passed, 0 failed" in capsys.readouterr().out

    # rational operands still take the general path
    flat = plane_ctx(2)
    x2y2 = Polynomial.variable(XY, "x") ** 2 + Polynomial.variable(XY, "y") ** 2
    inverse = HSeries.constant(RationalFunction.from_polynomial(x2y2).reciprocal(), 2)
    with pytest.raises(AssertionError, match="derivative taken"):
        moyal_star(flat, inverse, inverse)


# -- affine denominators through a Darboux frame ----------------------------------------

FRAME_SPACES = {
    "flat2": lambda draw: SymplecticSpace.standard(XY),
    "flat4": lambda draw: SymplecticSpace.standard(("x1", "y1", "x2", "y2")),
    "block": lambda draw: SymplecticSpace.block(
        [(f"q{t}", f"p{t}", draw(st.sampled_from(SCALES))) for t in range(2)]
    ),
}


@st.composite
def frame_star_cases(draw):
    space = FRAME_SPACES[draw(st.sampled_from(sorted(FRAME_SPACES)))](draw)
    vs, n = space.vars, space.dim
    order = draw(st.integers(0, 3 if n == 2 else 2))  # keeps the oracle quick
    # forms in at most two variables, as in the benchmark; denser frames fall back
    linear = st.dictionaries(st.integers(0, n - 1), st.sampled_from(COEFFS[1:]),
                             min_size=1, max_size=2).map(lambda d: [d.get(j, 0) for j in range(n)])

    def poly(coeffs):
        return Polynomial(vs, {tuple(int(i == j) for i in range(n)): c
                               for j, c in enumerate(coeffs)})

    def linear_part(form):
        return [form.terms.get(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]

    def bracket(u, v):
        return poisson_bracket(MoyalContext(space, 0), RationalFunction.from_polynomial(u),
                               RationalFunction.from_polynomial(v)).constant_value()

    first = poly(draw(linear))
    # two forms commute only if they are proportional or n >= 4; "centers" puts f over
    # both forms and g over the first direction
    relations = ("pairing", "equal", "shifted", "polynomial", "centers") + (
        ("commuting",) if n > 2 else ())
    relation = draw(st.sampled_from(relations))
    if relation in ("equal", "shifted", "polynomial"):  # g is a polynomial in the last
        second = first
    elif relation == "centers":
        # a coordinate that pairs with the first form; their product splits, since one
        # of the two has a variable that the other has not
        second = next(v for v in (Polynomial.variable(vs, name) for name in vs)
                      if bracket(v, first))
    else:
        second = poly(draw(linear))
        if relation == "commuting":
            # subtract the part of a coordinate that pairs with the first form
            x = next(v for v in (Polynomial.variable(vs, name) for name in vs)
                     if bracket(v, first))
            second = second - x * (bracket(second, first) / bracket(x, first))
        independent = any(a * d != b * c for (a, b), (c, d) in combinations(
            zip(linear_part(first), linear_part(second)), 2))
        assume(independent and bool(bracket(second, first)) == (relation == "pairing"))
    constants = [draw(st.sampled_from(COEFFS)) for _ in range(2)]
    if relation == "equal":
        constants[1] = constants[0]
    forms = [form + Polynomial.constant(vs, c) for form, c in zip((first, second), constants)]
    if relation == "centers":  # g's center in the first direction differs from f's
        other = draw(st.sampled_from([c for c in COEFFS if c != constants[0]]))
        forms = [forms[0] * forms[1], first + Polynomial.constant(vs, other)]
    exponent = st.tuples(*[st.integers(0, 2)] * n)
    # no coefficient is zero, and under "centers" none is a polynomial, so both operands
    # have centers
    numerator = st.dictionaries(exponent, st.sampled_from(COEFFS[1:]), min_size=1, max_size=3)
    low = int(relation == "centers")

    def series(form, length):
        coeffs = []
        for _ in range(length):
            m = 0 if relation == "polynomial" and form is forms[1] else draw(st.integers(low, 3))
            coeffs.append(RationalFunction(Polynomial(vs, draw(numerator)), form ** m))
        return HSeries(coeffs)

    # the left operand may carry more orders than the context
    f = series(forms[0], order + 1 + draw(st.integers(0, 2)))
    return MoyalContext(space, order), f, series(forms[1], order + 1), relation


@settings(max_examples=60, deadline=None)
@given(frame_star_cases())
def test_frame_star_matches_bidiff(case):
    ctx, f, g, relation = case
    used = f.coeffs[: ctx.order + 1] + g.coeffs[: ctx.order + 1]
    monomial_dens = all(len(c.den.terms) == 1 for c in used)
    frame = None if monomial_dens else moyal._affine_frame(ctx.space, used)
    if not monomial_dens:
        # every drawn denominator splits, so only the growth bound can refuse a frame
        with patch.object(moyal, "FRAME_GROWTH", float("inf")):
            assert moyal._affine_frame(ctx.space, used) is not None
    taken, real = [], moyal._bidiff
    with patch.object(moyal, "_bidiff", lambda *args: taken.append(1) or real(*args)):
        product = moyal_star(ctx, f, g)
    # the star takes the frame that it builds, and derivatives only without one
    assert bool(taken) == (not monomial_dens and frame is None)
    assert product == star_by_bidiff_oracle(ctx, f, g)


@st.composite
def bracket_cases(draw):
    if draw(st.booleans()):  # scaled flat pairs
        space = SymplecticSpace.block([(f"q{t}", f"p{t}", draw(st.sampled_from(SCALES)))
                                       for t in range(draw(st.integers(1, 3)))])
    else:  # chart pairs, then flat pairs
        chart, flat = (range(draw(st.integers(low, 2))) for low in (1, 0))
        space = SymplecticSpace.cotangent([(f"z{t}", f"p{t}") for t in chart],
                                          [(f"u{t}", f"v{t}") for t in flat])
    n = space.dim
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(0,) * n]
    form = st.lists(st.sampled_from(COEFFS), min_size=n + 1, max_size=n + 1).map(
        lambda row: Polynomial(space.vars, dict(zip(units, row))))
    return space, draw(form), draw(form)


@settings(max_examples=60, deadline=None)
@given(bracket_cases())
def test_bracket_of_forms_matches_poisson_bracket(case):
    space, u, v = case
    expected = poisson_bracket(MoyalContext(space, 0), RationalFunction.from_polynomial(u),
                               RationalFunction.from_polynomial(v))
    assert space.bracket(u, v) == expected.constant_value()


def _guard_derivative(monkeypatch):
    def refused(self, name):
        raise AssertionError("derivative taken")

    monkeypatch.setattr(RationalFunction, "derivative", refused)


def test_frame_star_takes_no_derivative(monkeypatch):
    ctx = plane_ctx(20)
    x, y = (RationalFunction.variable(XY, v) for v in XY)
    f, g = (HSeries.constant(c, 20) for c in (1 / (x + y), 1 / (x - y)))
    expected = star_by_bidiff_oracle(plane_ctx(3), f, g).coeffs
    _guard_derivative(monkeypatch)
    product = moyal_star(ctx, f, g)
    assert product.coeffs[:4] == expected
    # 1/(x+y) * 1/(x-y) = 1/(x^2 - y^2) at h^0
    assert product.coeffs[0] == 1 / (x * x - y * y)


FLAT4 = ("x1", "y1", "x2", "y2")
DENSE_FLAT4 = ("x1*y1^2*x2*y2^2/(x1 + 2*x2 + (1/3 - i)*y2)^2",
               "x1*y1^2*x2^2*y2/(x1 - (1/2 - 3*i)*y1 - x2 + (1/2 - 3*i)*y2 + 1)")


def _growing_pair():
    # the frame of x1 + x2 moves the one term of g's numerator in as six, and f's as three
    return tuple(HSeries.constant(parse_rational(text, FLAT4), 0)
                 for text in ("y2^2", "x1*y2^2/(x1 + x2)"))


def test_frame_refuses_itself_when_numerators_grow():
    space = SymplecticSpace.standard(FLAT4)
    f, g = _growing_pair()
    dense = [parse_rational(text, FLAT4) for text in DENSE_FLAT4]
    zero = RationalFunction.zero(FLAT4)
    for used in (list(f.coeffs + g.coeffs), [dense[0], zero, dense[1], zero]):
        assert moyal._affine_frame(space, used) is None
        # the denominators split: the growth bound alone refuses the frame
        with patch.object(moyal, "FRAME_GROWTH", float("inf")):
            assert moyal._affine_frame(space, used) is not None


def test_frame_falls_back_to_bidiff(monkeypatch):
    from moyalquot.expr import parse_rational

    ctx = plane_ctx(2)
    x, y = (RationalFunction.variable(XY, v) for v in XY)
    f, g, h = (HSeries.constant(c, 2) for c in (1 / (x + y), 1 / (x - y), 1 / (x + 2 * y + 1)))
    # two dense forms on flat4: moving into their frame makes the numerators dense
    dense = [HSeries.constant(parse_rational(text, FLAT4), 1) for text in DENSE_FLAT4]
    cases = [
        (ctx, HSeries.constant(1 / (x * x + y * y), 2), f),  # not a power of an affine form
        (ctx, moyal_star(ctx, f, g), h),  # three directions: a star of a star
        (MoyalContext(SymplecticSpace.standard(FLAT4), 1), *dense),
        (MoyalContext(SymplecticSpace.standard(FLAT4), 0), *_growing_pair()),
    ]
    real = moyal._bidiff
    for case in cases:
        taken = []

        def counted(*args):
            taken.append(True)
            return real(*args)

        monkeypatch.setattr(moyal, "_bidiff", counted)
        product = moyal_star(*case)
        assert taken, case
        monkeypatch.setattr(moyal, "_bidiff", real)
        assert product == star_by_bidiff_oracle(*case)


def _shifted(vs, order, *texts):
    from moyalquot.expr import parse_rational

    ctx = MoyalContext(SymplecticSpace.standard(vs), order)
    # "c0; c1; ..." lists the h-coefficients, and one text is a constant series
    f, g = (HSeries([parse_rational(t, vs) for t in text.split(";")]) if ";" in text
            else HSeries.constant(parse_rational(text, vs), order) for text in texts)
    return ctx, f, g


# forms with one linear part and different constants: f's denominators in one, g's in
# the other, so the kernel takes them as two pairs of one scale on two more variables
TWO_CENTER_CASES = {
    "shifted": (XY, 2, "1/(x+1)", "1/(x-1)"),
    "u cancels": (XY, 3, "y/(x+1)", "(x+1)/(x-1)"),
    "w cancels": (XY, 3, "(x+1)*y/(x+1/2)", "x/(x+1)"),
    "both cancel in part": (XY, 4, "y^2*(x-1)/(x+1)^2", "y*(x+1)^2/(x-1)^3"),
    "polynomial coefficient": (XY, 2, "x*y^2; y/(x+1); x^2/(x+1)^2", "x/(x - 1) + y"),
    "polynomial f": (XY, 3, "x^2*y + y^3", "x/(x - 1) + y^2/(x - 1)^2"),
    "flat4": (("x1", "y1", "x2", "y2"), 0, "y2/(x1+y2)", "y2/(x1+y2+1)"),
}


def _kernel_widths(monkeypatch):
    """The number of variables of each kernel call's space, recorded as calls come."""
    widths, real = [], moyal._laurent_star
    monkeypatch.setattr(moyal, "_laurent_star",
                        lambda ctx, used: widths.append(ctx.space.dim) or real(ctx, used))
    return widths


@pytest.mark.parametrize("name", sorted(TWO_CENTER_CASES))
def test_two_center_star_matches_bidiff(name, monkeypatch):
    ctx, f, g = _shifted(*TWO_CENTER_CASES[name])
    widths = _kernel_widths(monkeypatch)
    monkeypatch.setattr(moyal, "_bidiff", lambda *args: pytest.fail("derivatives taken"))
    product = moyal_star(ctx, f, g)
    monkeypatch.undo()
    # "polynomial f" has one center, in g: the frame of one form
    two_centers = name != "polynomial f"
    assert widths == [ctx.space.dim + 2 * two_centers]
    assert product == star_by_bidiff_oracle(ctx, f, g)


# denominators that are products of forms in two directions take the frame of both forms
PRODUCT_CASES = {
    "product and polynomial": (XY, 3, "x*y/((x+1/2)^2*(y-i/3))", "x^2*y + y^3"),
    "product and one form": (XY, 2, "y/((x+1/2)*(y-i/3))", "x/(y-i/3)^2"),
    "powers of one product": (XY, 2, "1/((x+i/2)*(y+1)); x/((x+i/2)*(y+1))^2; 0",
                              "y/(x+i/2)^3"),
    "commuting forms": (("x1", "y1", "x2", "y2"), 2, "y1*y2/((x1+1)*(x2+i)^2)", "y1 + y2^2"),
    "pairing forms": (("x1", "y1", "x2", "y2"), 1, "x2/((x1+y2)*(x2-1))", "y1/(x2-1)"),
}


def _associativity_operands():
    """The operands of the slowest star of `verify associativity --seed 1 --samples 3`:
    f and g * h of its first rational triple, whose denominators are r^1 .. r^7 for
    r = (x + i/2)(y + 1)."""
    ctx, f, g = _shifted(XY, 6, "-(2/3)*y^2 - (1/6)*x", "(x^2 - 1/3)/(y + 1)")
    h = HSeries.constant(parse_rational("((1/2)*x + 1)/(x + (1/2)*i)", XY), 6)
    return ctx, f, moyal_star(ctx, g, h)


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES) + ["associativity"])
def test_product_of_forms_star_matches_bidiff(name, monkeypatch):
    ctx, f, g = (_associativity_operands() if name == "associativity"
                 else _shifted(*PRODUCT_CASES[name]))
    if name == "associativity":
        r = parse_rational("(x + (1/2)*i)*(y + 1)", XY).num
        assert [c.den for c in g.coeffs] == [r ** k for k in range(1, 8)]
    widths = _kernel_widths(monkeypatch)
    monkeypatch.setattr(moyal, "_bidiff", lambda *args: pytest.fail("derivatives taken"))
    product = moyal_star(ctx, f, g)
    monkeypatch.undo()
    assert widths == [ctx.space.dim]
    assert product == star_by_bidiff_oracle(ctx, f, g)


# three or four forms in two directions, at most one center per direction in each
# operand: the frame of the linear parts, where the pair with two centers takes two
# more variables
PER_OPERAND_CASES = {  # the first two have the forms of two seed-1 associativity stars
    "x,y-(1-i)|y-1": (XY, 3, "y/(x*(y-(1-i))); x^2/(y-(1-i))^2; 0; y/x", "x^2/(y-1)"),
    "x-i/3,y+1/2|y-(1+i)/4": (XY, 3, "x*y/((x-i/3)*(y+1/2))", "x/(y-(1+i)/4)^2 + y^2"),
    "x+1/2,y-i/3|y-(1+i)/4": (XY, 2, "1/((x+1/2)*(y-i/3))", "x/(y-(1+i)/4)"),
    "both-slots-doubled": (XY, 2, "y/((x+1)*(y-i)); x/(x+1)^2; 0", "x*y/((x-1/2)*(y+1))"),
    "commuting-flat4": (FLAT4, 1, "y1*y2/((x1+1)*(x2+i)^2)", "y1^2/(x1-1) + x2"),
}


@pytest.mark.parametrize("name", sorted(PER_OPERAND_CASES))
def test_per_operand_centers_star_matches_bidiff(name, monkeypatch):
    ctx, f, g = _shifted(*PER_OPERAND_CASES[name])
    widths = _kernel_widths(monkeypatch)
    monkeypatch.setattr(moyal, "_bidiff", lambda *args: pytest.fail("derivatives taken"))
    product = moyal_star(ctx, f, g)
    monkeypatch.undo()
    assert widths == [ctx.space.dim + 2]
    assert product == star_by_bidiff_oracle(ctx, f, g)


def test_a_zero_operand_takes_no_split(monkeypatch):
    # zero up to the order, and past it a denominator that splits
    ctx, f, g = _shifted(XY, 2, "0; 0; 0; 1/(x+1)", "y/(x+1) + x/(y-i)")
    monkeypatch.setattr(moyal, "_affine_factors", lambda den: pytest.fail("split"))
    zero = HSeries.zero(XY, 2)
    assert moyal_star(ctx, f, g) == moyal_star(ctx, g, f) == zero


def test_equal_constants_keep_the_one_form_frame(monkeypatch):
    # equal constants are one form: no second center, and the text that the one-form
    # frame printed before two centers had a frame
    ctx, f, g = _shifted(XY, 2, "y/(x+1)", "x*y^2/(x+1)^2")
    expected = ("(x*y^3)/(x^3 + 3*x^2 + 3*x + 1) - ((1/2)*i*y^2)/(x^3 + 3*x^2 + 3*x + 1)*h"
                " - ((1/2)*y)/(x^5 + 5*x^4 + 10*x^3 + 10*x^2 + 5*x + 1)*h^2")
    widths = _kernel_widths(monkeypatch)
    product = moyal_star(ctx, f, g)
    assert widths == [2] and str(product) == expected
    assert product == star_by_bidiff_oracle(ctx, f, g)


def test_a_coefficient_over_both_centers_takes_derivatives(monkeypatch):
    # f holds both centers, so it is not Laurent in the frame of either
    ctx, f, g = _shifted(XY, 1, "y/(x+1); 1/(x-1)", "x/(x+1)")
    widths = _kernel_widths(monkeypatch)
    assert moyal_star(ctx, f, g) == star_by_bidiff_oracle(ctx, f, g)
    assert widths == []


# -- the general path over the variables the operands use ------------------------------


def _flat_star(n_pairs, pairs, make_f, make_g, order, monkeypatch):
    """(product, derivative-table entries) of make_f * make_g on flatN, with the
    operands built from the variables of the given pairs (1-based)."""
    vs = tuple(v for t in range(1, n_pairs + 1) for v in (f"x{t}", f"y{t}"))
    used = [RationalFunction.variable(vs, f"{v}{t}") for t in pairs for v in "xy"]
    tables = []

    class Counted(moyal._DerivTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(moyal, "_DerivTable", Counted)
    ctx = MoyalContext(SymplecticSpace.standard(vs), order)
    f, g = (HSeries.constant(make(*used), order) for make in (make_f, make_g))
    product = moyal_star(ctx, f, g)
    return product, sum(len(t.table) for t in tables)


def _renamed(series: HSeries, names, vs) -> HSeries:
    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(names, p.terms).with_variables(vs)

    return HSeries([RationalFunction(lift(c.num), lift(c.den)) for c in series.coeffs])


@pytest.mark.parametrize("smallest,pairs_of,make_f,make_g", [
    # x1*y1 + 1/(x1^2 + y2) and 1/x2 + y1 on the first and the last pair
    (2, lambda n: (1, n), lambda x1, y1, x2, y2: x1 * y1 + 1 / (x1 * x1 + y2),
     lambda x1, y1, x2, y2: 1 / x2 + y1),
    # x*y + 1/(x^2 + y) and 1/x + y on the last pair
    (1, lambda n: (n,), lambda x, y: x * y + 1 / (x * x + y), lambda x, y: 1 / x + y),
], ids=["two-pairs", "one-pair"])
def test_bidiff_cost_does_not_grow_with_unused_pairs(smallest, pairs_of, make_f, make_g,
                                                     monkeypatch):
    reference, entries = _flat_star(smallest, pairs_of(smallest), make_f, make_g, 6, monkeypatch)
    assert not reference.coeffs[1].is_zero()
    for n in range(smallest, 9):
        product, count = _flat_star(n, pairs_of(n), make_f, make_g, 6, monkeypatch)
        names = tuple(f"{v}{t}" for t in pairs_of(n) for v in "xy")
        assert _renamed(reference, names, product.vars) == product
        assert count == entries, n


def test_frame_cost_does_not_grow_with_unused_pairs(monkeypatch, capsys):
    # the forms x1 + y2 and x2 touch two pairs; N = 64 is the 128-variable cap
    real, calls = SymplecticSpace.bracket, []

    def counted(self, u, v):
        calls.append(1)
        return real(self, u, v)

    def refused(*args):
        raise AssertionError("derivatives taken")

    monkeypatch.setattr(SymplecticSpace, "bracket", counted)
    monkeypatch.setattr(moyal, "_bidiff", refused)
    printed, counts = set(), set()
    for n in range(2, 65):
        calls.clear()
        argv = ["star", "--space", "flatN", "--d", str(n), "--order", "8", "--",
                "x1*y1 + 1/(x1+y2)", "1/x2 + y1"]
        assert cli.run(argv) == 0
        printed.add(capsys.readouterr().out)
        counts.add(len(calls))
    assert len(printed) == 1
    assert len(counts) == 1


@pytest.mark.parametrize("scales", ["flat", "scaled"])
def test_frame_keeps_every_untouched_pair(scales):
    # the forms x2 + y3 + 1 and x3 - i touch pairs 2 and 3 of 64, the 128-variable cap;
    # the frame takes their variables, and pair 1 and pairs 4..64 stay
    vs = tuple(v for t in range(1, 65) for v in (f"x{t}", f"y{t}"))
    space = SymplecticSpace(vs, [1 if scales == "flat" else SCALES[t % len(SCALES)]
                                 for t in range(64)])
    x1, x2, y2, x3, y3, y64 = (RationalFunction.variable(vs, v)
                               for v in ("x1", "x2", "y2", "x3", "y3", "y64"))
    # the numerators hold every touched variable, so moving them back checks every form
    used = [x1 * x2 * y2 * y3 + 1 / (x2 + y3 + 1), 1 / (x3 - I) + y2 * y3 * y64]
    frame_space, moved, back, strip = moyal._affine_frame(space, used)
    units = [Polynomial.variable(vs, v) for v in vs]
    # the forms are the frame pair of slots 2, 3, and each denominator its monomial there
    assert [c.den.terms for c in moved] == [{units[a].leading_exponent(): 1} for a in (2, 3)]
    assert [c.den.compose(back) for c in moved] == [c.den for c in used]
    assert [c.num.compose(back) for c in moved] == [c.num for c in used]
    untouched = [0, 1] + list(range(6, 128))
    assert all(back[i] == units[i] for i in untouched)

    # the untouched variables of a numerator move in as themselves
    def untouched_parts(c):
        return {tuple(e[i] for i in untouched) for e in c.num.terms}

    assert [untouched_parts(c) for c in moved] == [untouched_parts(c) for c in used]
    assert all(len(untouched_parts(c)) == 2 for c in used)
    assert all(frame_space.scales[k] == space.scales[k] for k in (0, *range(3, 64)))
    assert frame_space.vars == vs and not frame_space.chart and strip == ()
    # the frame is Darboux in its scales
    assert all(space.bracket(back[a], back[b]) == value for a, b, value in frame_space.brackets)
    assert all(space.bracket(back[a], back[b]) == 0
               for a in range(128) for b in range(2, 6) if b != a ^ 1)
    # at order 63 every variable is one numerator, so the moved numerators are the
    # images of all 128 units: untouched ones stay, and moving back inverts moving in
    dens = [(x2 + y3 + 1).num, (x3 - I).num]
    used = [RationalFunction(units[i], dens[i >= 64]) for i in range(128)]
    assert [c.num for c in used] == units
    frame_space, moved, back, strip = moyal._affine_frame(space, used)
    assert strip == () and all(moved[i].num == units[i] for i in untouched)
    assert [c.num.compose(back) for c in moved] == units


def test_cover_route_visits_only_the_chart_pairs_the_operands_use(monkeypatch):
    # 1/(z1 + 1) takes the cover route; every other chart pair is spare
    visited = []

    def counted(real):
        def pair_map(value, *names):
            visited.append(names[:2])
            return real(value, *names)

        return pair_map

    for name in ("sigma_pullback_pair", "pushforward_even_pair"):
        monkeypatch.setattr(moyal, name, counted(getattr(moyal, name)))
    reference = None
    for d in range(1, 7):
        ctx = ProductContext(d=d, r=1, order=4)
        f, g = (parse_series(text, ctx.vars, 4) for text in ("z1^2*p1 + 1/(z1 + 1)", "p1^2 + z1"))
        visited.clear()
        product = product_star(ctx, f, g)
        assert visited and set(visited) == {("z1", "p1")}, d
        reference = reference or product
        assert _renamed(reference, ("z1", "p1"), ctx.vars) == product, d
