"""Golden exit codes and stderr lines of rejected expressions.

Every input below takes one error path of the expression parser or of its
lowering; each runs through in-process `cli.run` as the left operand of
`star --space flat2 --order 3 -- <input> y` and of `poisson -- <input> y`.
The expected exit code and stderr of every call are in
`golden/parse_errors.json`, keyed by case name and command.  Regenerate that
file with `PYTHONPATH=src python tests/test_parse_errors.py` only when an
error message is meant to change.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from moyalquot.cli import run

GOLDEN = Path(__file__).parent / "golden" / "parse_errors.json"

CASES = [
    # unexpected character
    ("char_dollar", "x $ y"),
    ("char_at_end", "x*y @"),
    ("char_superscript_exponent", "x^²"),
    ("char_superscript_operand", "x*²"),
    ("char_arabic_indic_digit", "٣"),
    ("char_dot", "1.5*x"),
    ("char_star_star", "x**2"),
    # trailing input
    ("trailing_identifier", "x y"),
    ("trailing_integer", "2 3"),
    ("trailing_close_paren", "(x))"),
    ("trailing_after_power", "x^2 x"),
    # expected a value
    ("value_empty", ""),
    ("value_blank", "   "),
    ("value_dangling_plus", "x +"),
    ("value_leading_star", "*x"),
    ("value_empty_parens", "()"),
    ("value_double_operator", "x*/y"),
    ("value_lone_minus", "-"),
    ("value_open_paren", "("),
    ("value_close_paren", ")"),
    ("value_plus_prefix", "+x"),
    # expected ')'
    ("paren_unclosed", "(x"),
    ("paren_unclosed_nested", "((x)"),
    ("paren_unclosed_sum", "(x + y"),
    ("paren_after_division_by_zero", "(1/0"),
    # expected an integer exponent
    ("exponent_missing", "x^"),
    ("exponent_identifier", "x^y"),
    ("exponent_parenthesized", "x^(2)"),
    ("exponent_lone_minus", "x^-"),
    ("exponent_double_minus", "x^--1"),
    ("exponent_h", "x^h"),
    # the nesting cap
    ("nesting_parens", "(" * 101 + "x" + ")" * 101),
    ("nesting_minus", "-" * 101 + "x"),
    ("nesting_mixed", "(-" * 51 + "x" + ")" * 51),
    # the exponent cap
    ("exponent_cap", "x^1001"),
    ("exponent_cap_negative", "y + x^-1001"),
    ("exponent_cap_leading_zeros", "x^00001001"),
    ("exponent_cap_long", "x^" + "9" * 5000),
    # the over-long literal
    ("literal_too_long", "x + 1" + "9" * 5000),
    # unknown identifiers
    ("unknown_q", "q"),
    ("unknown_after_value", "x*q"),
    ("unknown_no_implicit_product", "xy"),
    ("unknown_underscore", "_"),
    ("unknown_capital", "X + 1"),
    ("unknown_inside_parens", "(x + z1)"),
    # h where it is not allowed
    ("h_plain", "x + h"),
    ("h_alone", "h"),
    # h in a denominator, and a negative power of a series
    ("h_denominator", "1/h"),
    ("h_denominator_sum", "x/(1 + h)"),
    ("h_negative_power", "h^-1"),
    ("series_negative_power", "(x + h)^-2"),
    # division by zero and a negative power of zero
    ("zero_division", "1/0"),
    ("zero_division_cancelled", "x/(x - x)"),
    ("zero_division_by_h_difference", "1/(h - h)"),
    ("zero_negative_power", "0^-1"),
    ("zero_negative_power_cancelled", "(y - y)^-3"),
    # order overflow at order 3
    ("order_overflow_power", "h^4"),
    ("order_overflow_product", "h^2*h^2*x"),
    ("order_overflow_binomial", "(1 + h)^4"),
    # mixed: every syntax error is found before any value is computed, and the
    # order is checked only after the whole expression is lowered
    ("mixed_syntax_after_zero_division", "1/0 + ("),
    ("mixed_identifier_after_zero_division", "1/0 + q"),
    ("mixed_trailing_after_zero_power", "(x-x)^-2 q"),
    ("mixed_order_before_zero_division", "h^4 + 1/0"),
]

COMMANDS = {
    "star": ["star", "--space", "flat2", "--order", "3", "--"],
    "poisson": ["poisson", "--"],
}


def observe(command, text):
    """[exit code, stderr] of one in-process call; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([*COMMANDS[command], text, "y"])
    return [code, err.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,text", CASES, ids=[name for name, _ in CASES])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_rejected_expression_matches_golden(command, name, text, golden):
    assert observe(command, text) == golden[name][command]


if __name__ == "__main__":
    table = {
        name: {command: observe(command, text) for command in sorted(COMMANDS)}
        for name, text in CASES
    }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
