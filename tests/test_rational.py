from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import derivative_oracle

from moyalquot.errors import (
    SubstitutionPole,
    UnknownVariable,
    VariableMismatch,
    ZeroDenominator,
)
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial, affine_forms
from moyalquot.expr import parse_rational
from moyalquot.rational import RationalFunction, rf_normalize

XY = ("x", "y")
X = ("x",)
I = GaussianRational(0, 1)


def rf(num_terms, den_terms=None, variables=XY):
    num = Polynomial(variables, num_terms)
    den = Polynomial(variables, den_terms) if den_terms else Polynomial.one(variables)
    return RationalFunction(num, den)


def test_normalize_cancels_gcd():
    x = Polynomial.variable(X, "x")
    result = rf_normalize(x * x - 1, x - 1)
    assert result == RationalFunction.from_polynomial(x + 1)


def test_normalize_trivial_cases():
    x = Polynomial.variable(X, "x")
    assert rf_normalize(x, Polynomial.one(X)) == RationalFunction.variable(X, "x")
    zero = rf_normalize(Polynomial.zero(X), x)
    assert zero.num.is_zero() and zero.den.is_one()


def test_normalize_monic_denominator():
    x = Polynomial.variable(X, "x")
    r = rf_normalize(x, x * 2 + 2)
    assert r.den.leading_coefficient().is_one()
    assert r == RationalFunction(x * Fraction(1, 2), x + 1)


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDenominator):
        rf_normalize(Polynomial.one(X), Polynomial.zero(X))


def test_value_equal_inputs_identical_representation():
    x = Polynomial.variable(X, "x")
    a = rf_normalize((x + 1) * (x - 1), (x - 1) * x)
    b = rf_normalize(x + 1, x)
    assert a.num == b.num and a.den == b.den


def test_derivative_examples():
    x = RationalFunction.variable(XY, "x")
    y = RationalFunction.variable(XY, "y")
    assert (x * x * y).derivative("x") == 2 * x * y
    assert (x / y).derivative("y") == -x / (y * y)
    z = RationalFunction.variable(("z",), "z")
    one = RationalFunction.one(("z",))
    f = one / (z - 1)
    assert f.derivative("z") == -one / ((z - 1) * (z - 1))
    with pytest.raises(UnknownVariable):
        x.derivative("q")


def test_substitute_examples():
    x = RationalFunction.variable(XY, "x")
    y = RationalFunction.variable(XY, "y")
    ZY = ("z", "y")
    z = RationalFunction.variable(ZY, "z")
    ynew = RationalFunction.variable(ZY, "y")
    assert (x / y).substitute({"x": z * ynew, "y": ynew}) == z

    ident = {"x": x, "y": y}
    assert (x * x).substitute(ident) == x * x

    with pytest.raises(SubstitutionPole):
        (1 / x).substitute({"x": RationalFunction.zero(XY), "y": y})
    with pytest.raises(VariableMismatch):
        x.substitute({"x": z * ynew, "wrong": ynew})


def test_substitute_over_no_variables_is_a_mismatch():
    # there is no variable to take the target tuple from
    with pytest.raises(VariableMismatch):
        RationalFunction.constant((), 3).substitute({})


coefficients = st.sampled_from(
    [GaussianRational(1), GaussianRational(-2), GaussianRational(0, 1), GaussianRational(Fraction(1, 2))]
)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exponents, coefficients, min_size=1, max_size=3).map(
    lambda terms: Polynomial(XY, terms)
)
rationals = st.tuples(polys, polys.filter(lambda p: not p.is_zero())).map(
    lambda pair: RationalFunction(*pair)
)


@settings(max_examples=50, deadline=None)
@given(rationals, rationals)
def test_leibniz_rule(f, g):
    for v in XY:
        lhs = (f * g).derivative(v)
        rhs = f.derivative(v) * g + f * g.derivative(v)
        assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(rationals)
def test_mixed_partials_commute(f):
    assert f.derivative("x").derivative("y") == f.derivative("y").derivative("x")


@settings(max_examples=30, deadline=None)
@given(rationals, rationals)
def test_substitute_distributes(f, g):
    ZW = ("z", "w")
    z = RationalFunction.variable(ZW, "z")
    w = RationalFunction.variable(ZW, "w")
    bindings = {"x": z + w, "y": z * w + 1}
    assert (f + g).substitute(bindings) == f.substitute(bindings) + g.substitute(bindings)
    assert (f * g).substitute(bindings) == f.substitute(bindings) * g.substitute(bindings)


@settings(max_examples=50, deadline=None)
@given(rationals, rationals)
def test_field_arithmetic(f, g):
    assert f + g == g + f
    assert f * g == g * f
    if not g.is_zero():
        assert (f / g) * g == f
    assert f - f == RationalFunction.zero(XY)


# Denominator factors: repeated ones, ones free of a variable (the content of
# the denominator in that variable), and Gaussian coefficients.
FACTORS = [
    "x + 1", "y", "y + i/2", "x - y", "x*y + 1", "x^2 + y^2", "2*y - 3*i", "x + (1+i)*y",
]
factor_powers = st.lists(st.tuples(st.sampled_from(FACTORS), st.integers(1, 3)), max_size=3)


ONE_VARIABLE = {"x": ["x + 1", "x - 2*i", "x"], "y": ["y", "y + i/2", "2*y - 3*i"]}


def one_variable(name):
    """c(name)/E(name): added to f, it puts content into f's denominator that
    the derivative in the other variable cancels."""
    index = XY.index(name)
    exponent = st.integers(0, 2).map(lambda e: tuple(e if k == index else 0 for k in range(2)))
    num = st.dictionaries(exponent, coefficients, max_size=2).map(lambda t: Polynomial(XY, t))
    factors = st.lists(st.tuples(st.sampled_from(ONE_VARIABLE[name]), st.integers(1, 2)), max_size=2)
    return st.tuples(num, factors)


def product(factors):
    out = RationalFunction.one(XY)
    for text, power in factors:
        out = out * parse_rational(text, XY) ** power
    return out


@settings(max_examples=150, deadline=None)
@given(polys, factor_powers, one_variable("x"), one_variable("y"))
def test_derivative_matches_quotient_rule(num, factors, in_x, in_y):
    f = RationalFunction(num, product(factors).num)
    for extra, extra_factors in (in_x, in_y):
        f = f + RationalFunction(extra, product(extra_factors).num)
    for v in XY:
        assert f.derivative(v) == derivative_oracle(f, v)


@pytest.mark.parametrize(
    "text, name, expected",
    [
        # the denominator cancels entirely
        ("((x+1)*y + 1)/(x+1)", "y", "1"),
        # y is content of the denominator in x, and it cancels
        ("(x + y)/(y*(x + 2*y))", "x", "1/(x + 2*y)^2"),
        # a denominator free of x, with a Gaussian coefficient
        ("(x^2*y + x + 1)/(y^2 + (1/2)*i*y)", "x", "(2*x*y + 1)/(y^2 + (1/2)*i*y)"),
        ("(x^2 + y)/(x*(y^2 + (1/2)*i*y))", "x", None),
        ("(x + 1)^2/((x - y)^3*y)", "y", None),
    ],
)
def test_derivative_known_cases(text, name, expected):
    f = parse_rational(text, XY)
    got = f.derivative(name)
    assert got == derivative_oracle(f, name)
    if expected is not None:
        assert got == parse_rational(expected, XY)


# -- composition -------------------------------------------------------------------

UVW = ("u", "v", "w")
uvw_polys = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), coefficients, max_size=2
).map(lambda terms: Polynomial(UVW, terms))
uvw_rationals = st.tuples(uvw_polys, uvw_polys.filter(lambda q: not q.is_zero())).map(
    lambda pair: RationalFunction(*pair)
)
# the zero polynomial and constants as well as polys; images may be zero
compose_inputs = st.one_of(
    polys, st.just(Polynomial.zero(XY)), coefficients.map(lambda c: Polynomial.constant(XY, c))
)


def naive_compose(p, images):
    """sum of coeff * prod image^e by plain arithmetic, with no shared powers."""
    kind, target = type(images[0]), images[0].vars
    total = kind.zero(target)
    for exp, coeff in p.terms.items():
        term = kind.constant(target, coeff)
        for image, e in zip(images, exp):
            term = term * image ** e
        total = total + term
    return total


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    compose_inputs,
    st.one_of(st.lists(uvw_polys, min_size=2, max_size=2),
              st.lists(uvw_rationals, min_size=2, max_size=2)),
)
def test_compose_matches_substitute(p, images):
    got = p.compose(images)
    assert type(got) is type(images[0]) and got.vars == UVW
    assert got == naive_compose(p, images)
    as_rational = [RationalFunction.from_polynomial(i) if isinstance(i, Polynomial) else i
                   for i in images]
    expected = RationalFunction.from_polynomial(p).substitute(dict(zip(XY, as_rational)))
    assert expected == (got if isinstance(got, RationalFunction)
                        else RationalFunction.from_polynomial(got))


INVERTIBLE = [
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
    ((2, I), (1, 0)),
    ((1, Fraction(1, 2)), (3, -I)),
    ((3 - 4 * I, 1), (0, 1)),
]
linear_inputs = st.one_of(
    st.tuples(polys, factor_powers).map(lambda pair: RationalFunction(pair[0], product(pair[1]).num)),
    st.just(RationalFunction.zero(XY)),
    coefficients.map(lambda c: RationalFunction.constant(XY, c)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(linear_inputs, st.sampled_from(INVERTIBLE), st.tuples(*[st.just(0) | coefficients] * 2))
def test_compose_linear_matches_substitute(f, rows, constants):
    # each row holds the linear coefficients and then the constant of an affine form
    rows = tuple(tuple(GaussianRational.coerce(v) for v in row + (c,))
                 for row, c in zip(rows, constants))
    x, y = (RationalFunction.variable(XY, v) for v in XY)
    bindings = {v: x * a + y * b + c for v, (a, b, c) in zip(XY, rows)}
    assert f.compose_linear(affine_forms(XY, rows)) == f.substitute(bindings)
