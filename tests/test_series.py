import pytest
from hypothesis import given, settings, strategies as st

from moyalquot.errors import OrderTooLarge, VariableMismatch
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.series import HSeries, hs_equal
from oracles import padded

XY = ("x", "y")


def series(*coeff_terms, order=None):
    coeffs = [
        RationalFunction.from_polynomial(Polynomial(XY, terms)) for terms in coeff_terms
    ]
    s = HSeries(coeffs)
    return padded(s, order) if order is not None else s


def test_difference_of_squares():
    x = {(1, 0): 1}
    one = {(0, 0): 1}
    a = series(one, x, {}, order=2)
    b = series(one, {(1, 0): -1}, {}, order=2)
    product = a * b
    assert product == series(one, {}, {(2, 0): -1})


def test_unit_law():
    f = series({(1, 1): 2}, {(0, 1): 1}, {(2, 0): -1})
    one = HSeries.one(XY, f.order)
    assert f * one == f
    assert one * f == f


def test_cauchy_product_by_hand():
    # ([x, y]) * ([y, x]) at order 1 -> [x*y, x^2 + y^2]
    a = series({(1, 0): 1}, {(0, 1): 1})
    b = series({(0, 1): 1}, {(1, 0): 1})
    expected = series({(1, 1): 1}, {(2, 0): 1, (0, 2): 1})
    assert a * b == expected


def test_mixed_order_truncates_to_minimum():
    a = series({(1, 0): 1}, {(0, 0): 1}, {(0, 0): 1})
    b = series({(0, 1): 1}, {(0, 0): 1})
    assert (a * b).order == 1


def test_equal_upto():
    a = series({(1, 0): 1}, {(0, 0): 1}, {(0, 0): 5})
    b = series({(1, 0): 1}, {(0, 0): 1}, {(0, 0): 7})
    assert hs_equal(a, b, 1)
    assert not hs_equal(a, b, 2)
    with pytest.raises(OrderTooLarge):
        hs_equal(a, b, 3)


def test_canonicalization_collapses_representations():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    left = HSeries([RationalFunction.from_polynomial(x)])
    right = HSeries([RationalFunction(x * y, y)])
    assert hs_equal(left, right, 0)


def test_variable_set_must_match():
    a = HSeries.variable(XY, "x")
    b = HSeries.variable(("u", "v"), "u")
    with pytest.raises(VariableMismatch):
        a * b


def test_str_rendering():
    assert str(HSeries.zero(XY, 3)) == "0"
    s = series({(0, 0): 1}, {}, {(1, 0): GaussianRational(0, 2)})
    assert str(s) == "1 + 2*i*x*h^2"


coeff = st.sampled_from([0, 1, -1, 2])
polyterms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, max_size=3
)
serieses = st.lists(polyterms, min_size=1, max_size=4).map(
    lambda rows: HSeries(
        [RationalFunction.from_polynomial(Polynomial(XY, t)) for t in rows]
    )
)


@settings(max_examples=40, deadline=None)
@given(serieses, serieses, serieses)
def test_mul_associative_and_commutative(a, b, c):
    n = min(a.order, b.order, c.order)
    assert hs_equal((a * b) * c, a * (b * c), n)
    assert hs_equal(a * b, b * a, min(a.order, b.order))
