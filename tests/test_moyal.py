"""Star-product tests; expected values come from the binomial-form expansion
of the two-dimensional product (see oracles.py), which is independent of the
implementation's multiset expansion over bivector entries."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    form_pullback,
    moyal_star,
    poisson_bracket,
    star_commutator,
)
from moyalquot.quot import ProductContext, quot_cell_star, symmetrize
from moyalquot.sampling import SampleStream

from oracles import apply_symplectic_oracle, star_2d_oracle, star_by_bidiff_oracle

XY = ("x", "y")
I = GaussianRational(0, 1)


def plane_ctx(order=4):
    return MoyalContext(SymplecticSpace.standard(XY), order)


def const(p: Polynomial, order: int) -> HSeries:
    return HSeries.constant(RationalFunction.from_polynomial(p), order)


def test_standard_space_form():
    space = SymplecticSpace.standard(XY)
    assert space.omega == ((0, 1), (-1, 0))
    assert space.brackets == ((0, 1, 1), (1, 0, -1))
    # a Darboux pair with omega(q, p) = s has bracket 1/s
    scaled = SymplecticSpace.block([("x", "y", 2), ("u", "v", I)])
    assert scaled.omega[2][3] == I and scaled.omega[3][2] == -I
    half = GaussianRational(1) / 2
    assert scaled.brackets == ((0, 1, half), (1, 0, -half), (2, 3, -I), (3, 2, I))


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
    assert hs_equal(got, expected.padded(4), 4)


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
    assert form_pullback(rot.matrix, chart.omega) == chart.omega
    assert form_pullback(((2, 0), (0, 2)), chart.omega) == ((0, -4), (4, 0))


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


def laurent(vs, terms) -> RationalFunction:
    """sum of c * x^e over `terms`, exponents of any sign."""
    shift = tuple(max([0] + [-e[v] for e in terms]) for v in range(len(vs)))
    num = {tuple(a + s for a, s in zip(e, shift)): c for e, c in terms.items()}
    return RationalFunction(Polynomial(vs, num), Polynomial.monomial(vs, shift))


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
