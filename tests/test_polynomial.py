import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot.errors import DomainError, UnknownVariable, VariableMismatch
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import (
    Polynomial,
    poly_divexact,
    poly_gcd,
    poly_try_divexact,
)

from oracles import compose_oracle

V = ("x", "y", "z")


def build(terms):
    return Polynomial(V, terms)


coefficients = st.sampled_from(
    [
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(2),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(0, 1),
        GaussianRational(1, -1),
    ]
)
exponents = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)
polynomials = st.dictionaries(exponents, coefficients, min_size=0, max_size=4).map(build)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())


def test_zero_terms_dropped():
    p = build({(1, 0, 0): 1, (0, 1, 0): 0})
    assert set(p.terms) == {(1, 0, 0)}


def test_exponent_length_checked():
    with pytest.raises(VariableMismatch):
        Polynomial(V, {(1, 0): 1})


def test_grlex_leading_term():
    p = build({(2, 0, 0): 1, (1, 1, 1): 1, (0, 0, 1): 5})
    assert p.leading_exponent() == (1, 1, 1)
    q = build({(2, 1, 0): 3, (1, 2, 0): 7})
    assert q.leading_exponent() == (2, 1, 0)
    assert q.leading_coefficient() == 3


def test_str_canonical_order():
    p = build({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})
    assert str(p) == "x^2 + x + 1"
    q = build({(1, 1, 0): GaussianRational(0, 2), (0, 0, 0): Fraction(-1, 2)})
    assert str(q) == "2*i*x*y - 1/2"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
def test_str_refuses_numbers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    widest = 10 ** limit - 1
    assert str(build({(1, 0, 0): widest})) == f"{widest}*x"
    assert str(GaussianRational(1, Fraction(1, widest))) == f"1+1/{widest}*i"
    # the shared denominator p*q is past the limit, but each printed part is not
    p, q = 10 ** (limit - 1), 10 ** (limit - 1) + 1
    assert str(GaussianRational(Fraction(1, p), Fraction(1, q))) == f"1/{p}+1/{q}*i"
    for coeff in (10 ** limit, Fraction(1, -(10 ** limit)), GaussianRational(0, 10 ** limit)):
        with pytest.raises(DomainError):
            str(build({(0, 1, 0): coeff}))
        with pytest.raises(DomainError):
            str(GaussianRational.coerce(coeff))


def test_derivative_power_rule():
    p = build({(2, 1, 0): 1})
    assert p.derivative("x") == build({(1, 1, 0): 2})
    assert p.derivative("z") == build({})
    with pytest.raises(UnknownVariable):
        p.derivative("w")


def test_with_variables_embedding():
    small = Polynomial(("x",), {(2,): 5})
    wide = small.with_variables(V)
    assert wide == build({(2, 0, 0): 5})
    # a reordering
    assert build({(2, 1, 0): 3, (0, 0, 1): -1}).with_variables(("z", "y", "x")) == Polynomial(
        ("z", "y", "x"), {(0, 1, 2): 3, (1, 0, 0): -1}
    )
    # a constant over no variables
    assert Polynomial.constant((), 7).with_variables(V) == Polynomial.constant(V, 7)
    assert Polynomial.zero(()).with_variables(V) == Polynomial.zero(V)
    # a target that lacks a variable
    with pytest.raises(UnknownVariable):
        build({(1, 0, 1): 1}).with_variables(("x", "y"))


FOUR = ("a", "b", "c", "d")
# Gaussian coefficients, most with denominators that powers and products keep
fractional = st.sampled_from([
    GaussianRational(Fraction(3, 13), Fraction(2, 13)),
    GaussianRational(Fraction(1, 2), Fraction(-1, 2)),
    GaussianRational(Fraction(-5, 6)),
    GaussianRational(0, Fraction(7, 4)),
    GaussianRational(2, -3),
    GaussianRational(-1),
])
four_images = st.lists(st.dictionaries(st.tuples(*[st.integers(0, 1)] * 4), fractional, min_size=2,
                                       max_size=3).map(lambda terms: Polynomial(FOUR, terms)),
                       min_size=4, max_size=4)
# one exponent up to 9, the rest up to 2
high_exponents = st.tuples(st.lists(st.integers(0, 2), min_size=4, max_size=4),
                           st.integers(0, 3), st.integers(0, 9)).map(
    lambda t: tuple(t[2] if i == t[1] else e for i, e in enumerate(t[0])))
sources = st.dictionaries(high_exponents, fractional, min_size=1, max_size=4).map(
    lambda terms: Polynomial(("x", "y", "z", "w"), terms))


@settings(max_examples=60, deadline=None)
@given(sources, sources, four_images, st.integers(0, 7), st.integers(0, 7), fractional)
def test_compose_matches_gaussian_oracle(num, den, images, zero_at, constant_at, constant):
    # in about half the examples one image is zero, and in about half one is constant
    images = [Polynomial.zero(FOUR) if i == zero_at else
              Polynomial.constant(FOUR, constant) if i == constant_at else image
              for i, image in enumerate(images)]
    # one list of powers serves a numerator and then a denominator, as in
    # compose_linear and the frame's way back
    powers = []
    assert num.compose(images, powers) == compose_oracle(num, images)
    assert den.compose(images, powers) == compose_oracle(den, images)
    for image, row in zip(images, powers):  # the rows are the powers, as integers
        for e, (d, terms) in enumerate(row[1:], 1):
            coefficients = {k: GaussianRational(Fraction(a, d), Fraction(b, d)) for k, a, b in terms}
            assert Polynomial(FOUR, coefficients) == image ** e
    # with equal images for x and y, num minus num with x and y swapped cancels
    swapped = Polynomial(num.vars, {(e[1], e[0]) + e[2:]: c for e, c in num.terms.items()})
    equal = [images[0]] + images[:1] + images[2:]
    assert (num - swapped).compose(equal) == compose_oracle(num - swapped, equal)
    assert (num - swapped).compose(equal).is_zero()


def test_divexact_roundtrip():
    a = build({(1, 0, 0): 1, (0, 1, 0): 2})
    b = build({(1, 1, 0): 1, (0, 0, 1): -1})
    assert poly_divexact(a * b, b) == a
    assert poly_try_divexact(a * b + Polynomial.one(V), b) is None


def test_gcd_examples():
    x = Polynomial.variable(V, "x")
    y = Polynomial.variable(V, "y")
    assert poly_gcd((x + y) * (x - y), (x - y) * y) == x - y
    assert poly_gcd(x * x, x * y) == x
    assert poly_gcd(x, Polynomial.zero(V)) == x
    assert poly_gcd(Polynomial.zero(V), Polynomial.zero(V)).is_zero()
    # result is monic under graded lex
    assert poly_gcd(2 * (x + y), 2 * x + 2 * y) == x + y


def test_gcd_past_unlucky_evaluation_points():
    x = Polynomial.variable(V, "x")
    y = Polynomial.variable(V, "y")
    one = Polynomial.one(V)
    # y^3 - y vanishes at 0, 1 and -1, the first evaluation points
    p, q = x + y**3 - y, x - y**3 + y
    assert poly_gcd(p, q) == one
    assert poly_gcd((x * y + 2) * p, (x * y + 2) * q) == x * y + 2
    # the images at the 40 roots of w all have degree 1 in x
    w = one
    for t in range(-20, 20):
        w = w * (y - t)
    assert poly_gcd(x - y, x - y - w) == one


@settings(max_examples=60, deadline=None)
@given(nonzero_polynomials, nonzero_polynomials, nonzero_polynomials)
def test_gcd_common_factor(p, q, r):
    g = poly_gcd(p * r, q * r)
    # r divides the gcd, and the gcd divides both products
    assert poly_try_divexact(g, poly_gcd(r, g)) is not None
    assert poly_try_divexact(p * r, g) is not None
    assert poly_try_divexact(q * r, g) is not None


@settings(max_examples=60, deadline=None)
@given(nonzero_polynomials, nonzero_polynomials)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert poly_try_divexact(p, g) is not None
    assert poly_try_divexact(q, g) is not None
    if not g.is_zero():
        assert g.leading_coefficient().is_one()


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + q == q + p
