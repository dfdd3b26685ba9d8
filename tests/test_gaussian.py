from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot.gaussian import GaussianRational

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_construction_is_reduced():
    g = GaussianRational(Fraction(2, 4), Fraction(3, 6))
    assert g.re == Fraction(1, 2) and g.im == Fraction(1, 2)
    assert g.den == 2 and g.a == 1 and g.b == 1


def test_equality_and_hash_component_wise():
    assert GaussianRational(1, 2) == GaussianRational(1, 2)
    assert GaussianRational(1, 2) != GaussianRational(1, 3)
    assert GaussianRational(2) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_str_forms():
    assert str(GaussianRational(0)) == "0"
    assert str(GaussianRational(Fraction(-1, 2))) == "-1/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(1, 1)) == "1+i"
    assert str(GaussianRational(1, Fraction(-2, 3))) == "1-2/3*i"


def test_division_and_inverse():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert (GaussianRational(1, 1) / GaussianRational(1, -1)) == i
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_powers():
    i = GaussianRational(0, 1)
    assert i ** 2 == -1
    assert i ** -1 == -i
    assert GaussianRational(2) ** -2 == Fraction(1, 4)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_field_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gaussians, gaussians, st.integers(-4, 4))
def test_results_are_reduced(a, b, e):
    results = [a + b, a - b, a * b, a ** abs(e)]
    if not b.is_zero():
        results += [a / b, b.inverse(), b ** e]
    for r in results:
        assert r.den > 0 and gcd(r.a, r.b, r.den) == 1, (a, b, e, r.a, r.b, r.den)
