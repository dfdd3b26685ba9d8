import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot.cli import run
from moyalquot.errors import (
    DomainError,
    ExprSyntaxError,
    HInDenominator,
    MoyalQuotError,
    OrderOverflow,
    UnknownIdentifier,
    ZeroDenominator,
)
from moyalquot.expr import (
    MAX_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    parse_expr,
    parse_gaussian,
    parse_rational,
    parse_series,
    rational_document,
    series_document,
)
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.sampling import SampleStream
from moyalquot.series import HSeries

XY = ("x", "y")


def test_parse_and_lower_basic():
    s = parse_series("x*y + (1/2)*i*h", XY, 4)
    assert s.coeffs[0] == RationalFunction.from_polynomial(
        Polynomial(XY, {(1, 1): 1})
    )
    assert s.coeffs[1] == RationalFunction.constant(XY, GaussianRational(0, 1)) * (
        GaussianRational(1) / 2
    )
    assert str(s) == "x*y + (1/2)*i*h"


def test_gcd_through_lowering():
    s = parse_series("(z^2 - 1)/(z - 1)", ("z", "p"), 2)
    assert str(s) == "z + 1"


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse_expr("x +", XY)
    assert excinfo.value.offset == 3


def test_nesting_depth_is_capped():
    x = RationalFunction.variable(XY, "x")
    parens = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_series(parens, XY, 0).coeffs[0] == x
    assert parse_series("-" * MAX_NESTING + "x", XY, 0).coeffs[0] == x * (-1) ** MAX_NESTING
    for deeper in ("(" + parens + ")", "-" * (MAX_NESTING + 1) + "x"):
        with pytest.raises(ExprSyntaxError) as excinfo:
            parse_expr(deeper, XY)
        assert excinfo.value.offset == MAX_NESTING


def test_expression_size_is_bounded():
    # the term bound is the smaller of the product of the operands' term
    # counts and the number of monomials of the result's degree
    for text in ("x^1000*y^1000", "(x + y + 1)^20", "(x - y)^45", "(2^1000)^99*x"):
        parse_series(text, XY, 0)
    for text, limit in (
        ("(x + y + 1)^62", f"{MAX_TERMS} terms"),
        ("(x + y + 1)^20*(x - y)^45", f"{MAX_TERMS} terms"),
        ("(x + y + 1)^20/(x - y)^45", f"{MAX_TERMS} terms"),
        ("(2^1000)^101", f"{MAX_BITS} bits"),
    ):
        with pytest.raises(DomainError, match=f"expression too large: .* {limit}$"):
            parse_series(text, XY, 0)


def test_exponent_is_capped():
    x = RationalFunction.variable(XY, "x")
    assert parse_series(f"x^{MAX_EXPONENT}", XY, 0).coeffs[0] == x ** MAX_EXPONENT
    assert parse_series(f"x^-{MAX_EXPONENT}", XY, 0).coeffs[0] == x ** -MAX_EXPONENT
    for text, offset in (
        (f"x^{MAX_EXPONENT + 1}", 2),
        (f"y + x^-{MAX_EXPONENT + 1}", 6),
        ("x^" + "9" * 5000, 2),
    ):
        with pytest.raises(ExprSyntaxError) as excinfo:
            parse_expr(text, XY)
        assert excinfo.value.offset == offset


def test_long_flat_chains_lower_in_a_loop():
    n = 3000
    x = RationalFunction.variable(XY, "x")
    assert parse_series("+".join(["x"] * n), XY, 0).coeffs[0] == x * n
    assert parse_series("x" + "-x" * n, XY, 0).coeffs[0] == x * (1 - n)
    assert parse_series("*".join(["x"] * 50) + "/x" * 49, XY, 0).coeffs[0] == x


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse_expr("x*q", XY)


def test_h_rules():
    with pytest.raises(HInDenominator):
        parse_series("1/h", XY, 4)
    with pytest.raises(HInDenominator):
        parse_series("(x + h)^-1", XY, 4)
    with pytest.raises(OrderOverflow):
        parse_series("h^3", XY, 2)
    with pytest.raises(UnknownIdentifier):
        parse_rational("x + h", XY)
    assert parse_series("h^3 - h^3", XY, 2).is_zero()


def test_exact_h_collection():
    s = parse_series("1 + h*h*x", XY, 2)
    assert [str(c) for c in s.coeffs] == ["1", "0", "x"]


def test_division_and_powers():
    assert parse_rational("x^-2", XY) == RationalFunction.one(XY) / (
        RationalFunction.variable(XY, "x") ** 2
    )
    with pytest.raises(ZeroDenominator):
        parse_rational("1/(x - x)", XY)
    assert parse_rational("(1+i)/(1-i)", XY) == RationalFunction.constant(
        XY, GaussianRational(0, 1)
    )


def test_no_implicit_multiplication():
    # `xy` is one identifier, not x*y
    with pytest.raises(UnknownIdentifier):
        parse_expr("xy", XY)
    assert parse_rational("z1*p2", ("z1", "p2")) == RationalFunction.from_polynomial(
        Polynomial(("z1", "p2"), {(1, 1): 1})
    )


def test_gaussian_literals():
    assert parse_gaussian("1+2*i") == GaussianRational(1, 2)
    assert parse_gaussian("-1/2") == GaussianRational.coerce(-1) / 2
    assert parse_gaussian("2/3*i") == GaussianRational(0, 1) * 2 / 3
    assert parse_gaussian("i") == GaussianRational(0, 1)
    assert parse_gaussian("(1-i)^2") == GaussianRational(0, -2)


def test_round_trip_random_series():
    s = SampleStream("expr-roundtrip")
    for _ in range(40):
        series = s.series(XY, 4, max_degree=3, h_terms=3)
        text = str(series)
        again = parse_series(text, XY, 4)
        assert again == series, text


def test_round_trip_rational_coefficients():
    s = SampleStream("expr-roundtrip-rational")
    for _ in range(25):
        coeff = s.rational_function(XY, 2, 1)
        series = HSeries.constant(coeff, 2)
        text = str(series)
        assert parse_series(text, XY, 2) == series, text


def test_round_trip_digit_suffixed_variables():
    vs = ("z1", "p1", "z2", "p2", "u1", "v1")
    s = SampleStream("expr-roundtrip-product")
    for _ in range(20):
        series = s.series(vs, 3, max_degree=2, h_terms=2)
        assert parse_series(str(series), vs, 3) == series, str(series)


def test_structured_documents():
    series = parse_series("x + h", XY, 2)
    doc = series_document(series, "flat2", 2)
    assert doc["space"] == "flat2"
    assert doc["coefficients"][0] == {
        "h_power": 0,
        "numerator": "x",
        "denominator": "1",
    }
    assert len(doc["coefficients"]) == 3
    json.dumps(doc)

    rdoc = rational_document(parse_rational("x/y", XY), "flat2")
    assert rdoc == {"space": "flat2", "numerator": "x", "denominator": "y"}


# -- the grammar through the command line ---------------------------------------

_ATOMS = st.sampled_from(["x", "y", "h", "i", "0", "1", "2", "12", "q", "(x-x)"])
_GRAMMAR = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: f"{a}{op}{b}", inner, st.sampled_from("+-*/"), inner),
        st.builds(lambda a: f"({a})", inner),
        st.builds(lambda a: f"-{a}", inner),
        st.builds(lambda a, e: f"{a}^{e}", inner, st.integers(-2, 3)),
    ),
    max_leaves=8,
)
# token soup: mostly malformed, with the characters the lexer refuses
_SOUP = st.lists(
    st.sampled_from(["x", "y", "h", "7", "+", "-", "*", "/", "^", "(", ")", " ", "^1001", "²", "$"]),
    max_size=10,
).map("".join)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_GRAMMAR, _SOUP), st.one_of(_GRAMMAR, _SOUP))
def test_cli_grammar_fuzz(left, right):
    for argv in (
        ["star", "--space", "flat2", "--order", "3", "--", left, right],
        ["poisson", "--", left, right],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        out, err = out.getvalue(), err.getvalue()
        # an operand after '--' is never a usage error, and 5 is an internal fault
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert "Traceback" not in err
        else:
            assert err == "" and out.endswith("\n")
            if argv[0] == "star":
                assert str(parse_series(out, XY, 3)) == out[:-1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    _GRAMMAR,
    _SOUP,
    st.sampled_from(["1/0", "0^-1", "(" * 150 + "1" + ")" * 150, "7" * 5000, "\u00b2"]),
))
def test_parse_gaussian_raises_only_package_errors(text):
    # the atlas and validate-point entries rely on this: nothing else escapes
    try:
        value = parse_gaussian(text)
    except MoyalQuotError:
        return
    assert isinstance(value, GaussianRational)
