import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot import cli, moyal, suites
from moyalquot.cli import run
from moyalquot.suites import MAX_SAMPLES, MAX_SUITE_D, SuiteConfig, run_suite, SUITES
from moyalquot.errors import UnknownSuite, UsageFailure
from moyalquot.expr import parse_series
from moyalquot.rational import RationalFunction
from moyalquot.sampling import SampleStream
from moyalquot.series import HSeries


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("MOYALQUOT_ORDER", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "moyalquot", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_all_suites_registered():
    assert set(SUITES) == {
        "axioms",
        "poisson",
        "associativity",
        "equivariance",
        "lemma1",
        "cocycle",
        "evenness",
        "symmetric",
        "theorem1",
    }


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("nope", SuiteConfig())


@pytest.mark.parametrize("samples", [0, -3])
def test_suite_needs_a_sample(samples):
    with pytest.raises(UsageFailure):
        SuiteConfig(samples=samples)
    assert run_cli("verify", "axioms", "--samples", str(samples)).returncode == 4


def test_suite_d_is_bounded_before_any_work(capsys):
    # the cap holds until the star's cost is bounded before any work
    with pytest.raises(UsageFailure):
        SuiteConfig(d=MAX_SUITE_D + 1)
    started = time.perf_counter()
    assert run(["verify", "symmetric", "--d", "10", "--samples", "1"]) == 4
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == f"usage error: d must be at most {MAX_SUITE_D}, got 10\n"


def test_suite_samples_are_bounded_before_any_work(capsys):
    assert SuiteConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES  # built, never run
    with pytest.raises(UsageFailure):
        SuiteConfig(samples=MAX_SAMPLES + 1)
    started = time.perf_counter()
    assert run(["verify", "axioms", "--samples", "1000000000"]) == 4
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        f"usage error: samples must be at most {MAX_SAMPLES}, got 1000000000\n")


def test_symmetric_suite_passes_beyond_two_chart_pairs():
    result = run_cli("verify", "symmetric", "--seed", "1", "--samples", "2", "--d", "3", "--r", "1")
    assert result.returncode == 0
    assert "total: 5 passed, 0 failed" in result.stdout


@pytest.mark.parametrize("suite,left_out,total", [
    ("theorem1", "operands on disjoint factors commute exactly", 5),
    ("symmetric", "asymmetric series are detected", 4),
])
def test_cases_with_nothing_to_check_at_d1_are_left_out(suite, left_out, total, capsys):
    # at d = 1 these cases would check nothing, so they must not report a pass
    assert run(["verify", suite, "--seed", "1", "--samples", "2", "--d", "1", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert left_out not in out
    assert out.endswith(f"total: {total} passed, 0 failed\n")


def test_reports_are_deterministic():
    cfg = SuiteConfig(seed=5, samples=8)
    first = run_suite("lemma1", cfg)
    second = run_suite("lemma1", cfg)
    assert first.render_text() == second.render_text()
    assert first.to_document() == second.to_document()


def test_report_cases_sorted():
    report = run_suite("poisson", SuiteConfig(seed=3, samples=3))
    descriptions = [c.description for c in report.cases]
    assert descriptions == sorted(descriptions)


def test_cli_star_golden_line():
    result = run_cli("star", "--space", "flat2", "--order", "4", "x", "y")
    assert result.returncode == 0
    assert result.stdout == "x*y + (1/2)*i*h\n"


def test_cli_star_unit():
    result = run_cli("star", "--space", "flat2", "1", "x")
    assert result.returncode == 0
    assert result.stdout == "x\n"


def test_cli_star_structured_stable():
    a = run_cli("star", "--space", "flat2", "--order", "2", "--output", "structured", "x", "y")
    b = run_cli("star", "--space", "flat2", "--order", "2", "--output", "structured", "x", "y")
    assert a.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["space"] == "flat2" and doc["order"] == 2
    assert doc["coefficients"][1]["numerator"] == "(1/2)*i"


def test_cli_kchart_and_product_spaces():
    k = run_cli("star", "--space", "kchart", "--order", "4", "z", "p")
    assert k.stdout == "z*p - (1/2)*i*h\n"
    product = run_cli(
        "star", "--space", "product", "--d", "2", "--r", "1", "--order", "4",
        "z1+z2", "p1+p2",
    )
    assert product.returncode == 0
    assert product.stdout.endswith("- i*h\n")


def test_cli_poisson():
    result = run_cli("poisson", "--space", "kchart", "z", "p")
    assert result.returncode == 0
    assert result.stdout == "-1\n"


def test_cli_exit_codes():
    assert run_cli("star", "--space", "flat2", "x +", "y").returncode == 2
    assert run_cli("star", "--space", "flat2", "1/h", "y").returncode == 2
    assert run_cli("verify", "nosuch").returncode == 4
    assert run_cli("star", "--space", "nope", "x", "y").returncode == 4
    assert run_cli("star", "--space", "flatN", "--d", "0", "x1", "y1").returncode == 4
    assert run_cli("poisson", "--space", "flatN", "--d", "0", "x1", "y1").returncode == 4
    assert run_cli("star", "--space", "product", "--d", "0", "z1", "p1").returncode == 4
    assert run_cli("verify", "theorem1", "--d", "0").returncode == 4
    bad_point = run_cli("validate-point", "--support", "0,0", "--covectors", "1,1")
    assert bad_point.returncode == 3
    non_invariant = run_cli(
        "star", "--space", "product", "--d", "2", "--r", "1", "--order", "2", "z1", "p1"
    )
    assert non_invariant.returncode == 3


def test_cli_verify_text_and_exit():
    result = run_cli("verify", "lemma1", "--seed", "7", "--samples", "5")
    assert result.returncode == 0
    assert "total: 4 passed, 0 failed" in result.stdout
    structured = run_cli(
        "verify", "lemma1", "--seed", "7", "--samples", "5", "--output", "structured"
    )
    doc = json.loads(structured.stdout)
    assert doc["suite"] == "lemma1" and doc["totals"]["failed"] == 0


def test_cli_verify_deterministic_bytes():
    args = ("verify", "symmetric", "--seed", "11", "--samples", "6")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_cli_transport():
    result = run_cli("transport", "--from", "A", "--to", "B", "--order", "3", "p")
    assert result.returncode == 0
    assert result.stdout == "-w^2*q\n"


# Expressions in placeholder names: Z and P become the source chart's pair, and
# r is never a chart variable.
_CHART_ATOMS = st.sampled_from(["Z", "P", "h", "i", "0", "1", "2", "r", "(Z-Z)", "(P+1/2)"])
_CHART_GRAMMAR = st.recursive(
    _CHART_ATOMS,
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: f"{a}{op}{b}", inner, st.sampled_from("+-*/"), inner),
        st.builds(lambda a: f"({a})", inner),
        st.builds(lambda a: f"-{a}", inner),
        st.builds(lambda a, e: f"{a}^{e}", inner, st.integers(-2, 3)),
    ),
    max_leaves=6,
)
_GOLDEN_PROJECTIVE = Path(__file__).parent / "golden" / "verify" / "projective.atlas"
# (atlas, source chart, its variables, target chart, its variables); None is the
# bundled cp1.atlas
_ROUTES = (
    (None, "A", ("z", "p"), "B", ("w", "q")),
    ("translation", "A", ("z", "p"), "B", ("z", "p")),
    (str(_GOLDEN_PROJECTIVE), "A", ("z", "p"), "C", ("s", "t")),
)
_TRANSPORT_ROUTES = _ROUTES + tuple((at, b, bv, a, av) for at, a, av, b, bv in _ROUTES)
TRANSPORT_SECONDS = 10


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(_TRANSPORT_ROUTES), _CHART_GRAMMAR)
def test_cli_transport_fuzz(tmp_path_factory, route, text):
    atlas, source, (zv, pv), target, _ = route
    if atlas == "translation":
        path = tmp_path_factory.getbasetemp() / "translation.atlas"
        if not path.exists():
            path.write_text("chart A z p\nchart B z p\ntransition A B 1 1/2 0 1\n"
                            "transition B A 1 -1/2 0 1\n")
        atlas = str(path)
    expression = text.replace("Z", zv).replace("P", pv)
    common = ([] if atlas is None else ["--atlas", atlas]) + ["--order", "3"]
    start = time.perf_counter()
    code, out, err = _run_captured(
        ["transport", *common, "--from", source, "--to", target, "--", expression])
    assert code in (0, 2, 3), (route, expression, code, err)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (expression, err)
        assert "Traceback" not in err
    else:
        assert err == ""
        code, back, err = _run_captured(
            ["transport", *common, "--from", target, "--to", source, "--", out[:-1]])
        assert code == 0, (route, expression, out, err)
        assert back[:-1] == str(parse_series(expression, (zv, pv), 3)), (route, expression, out)
    assert time.perf_counter() - start < TRANSPORT_SECONDS, (route, expression)


def test_cli_validate_atlas(tmp_path):
    good = tmp_path / "good.atlas"
    good.write_text("chart A z p\nchart B w q\ntransition A B 0 i i 0\ntransition B A 0 i i 0\n")
    result = run_cli("validate-atlas", str(good))
    assert result.returncode == 0 and result.stdout == "atlas: valid\n"

    bad = tmp_path / "bad.atlas"
    bad.write_text("chart A z p\nchart B w q\ntransition A B 1 1 1 1\n")
    result = run_cli("validate-atlas", str(bad))
    assert result.returncode == 3
    assert "DegenerateMatrix" in result.stdout

    missing = run_cli("validate-atlas", str(tmp_path / "none.atlas"))
    assert missing.returncode == 4


def test_cli_validate_point_structured():
    result = run_cli(
        "validate-point", "--d", "2", "--r", "2",
        "--support", "0,1", "--covectors", "1,1", "--flat", "0,0,0,0",
        "--output", "structured",
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"issues": [], "valid": True}


def test_cli_validate_point_counts_flat_pairs(capsys):
    base = ["validate-point", "--support", "0,1", "--covectors", "1,1"]
    # without --d, d is the number of support entries
    assert run([*base, "--r", "3"]) == 4
    assert capsys.readouterr().err == "usage error: d = 2, --r 3 needs 4 flat pairs, got 0\n"
    assert run([*base, "--r", "3", "--d", "2"]) == 4
    assert capsys.readouterr().err == "usage error: --d 2 --r 3 needs 4 flat pairs, got 0\n"
    assert run([*base, "--r", "3", "--flat", "0,0,0,0,0,0,0,0"]) == 0
    assert capsys.readouterr().out == "point: valid\n"
    # one flat pair at d = 2 is d(r-1) for no r
    assert run([*base, "--flat", "1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: 1 flat pairs is not d(r-1) at d = 2\n"


def test_cli_validate_point_bad_entry_is_a_parse_error(capsys):
    assert run(["validate-point", "--support", "1,x", "--covectors", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: unknown identifier 'x' (offset 0)\n"


def test_cli_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert run(["validate-point", "--support", "0", "--covectors", "1"]) == 0
    assert run(["star", "x", "y"]) == 0


@st.composite
def _point_entries(draw):
    """Comma-separated numbers, sometimes with one bad piece: empty, a pole, a
    name that is no number, broken syntax or a literal past the digit limit."""
    pieces = draw(st.lists(st.sampled_from(["0", "1", "-1", "i", "1/2", "2*i - 1/3"]), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        bad = st.sampled_from(["", "1/0", "h", "x", "1+", "(", "9" * 80, "7" * 5000])
        pieces.insert(draw(st.integers(0, len(pieces))), draw(bad))
    return ",".join(pieces)


_POINT_ENTRIES = _point_entries()
_POINT_FLAG = st.sampled_from([None, None, None, 0, 1, 2, 3])
VALIDATE_POINT_SECONDS = 10


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_POINT_ENTRIES, _POINT_ENTRIES, st.none() | _POINT_ENTRIES, _POINT_FLAG, _POINT_FLAG)
def test_cli_validate_point_fuzz(support, covectors, flat, d, r):
    argv = ["validate-point", f"--support={support}", f"--covectors={covectors}"]
    argv += [] if flat is None else [f"--flat={flat}"]
    argv += [] if d is None else [f"--d={d}"]
    argv += [] if r is None else [f"--r={r}"]
    start = time.perf_counter()
    code, out, err = _run_captured(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if err:
        assert code and out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err
    else:
        assert code in (0, 3)
        assert out.startswith("point: valid\n" if code == 0 else "point: invalid ("), (argv, out)
    assert time.perf_counter() - start < VALIDATE_POINT_SECONDS, argv


def test_cli_order_environment_variable():
    result = run_cli(
        "star", "--space", "flat2", "--output", "structured", "x", "y",
        env_extra={"MOYALQUOT_ORDER": "2"},
    )
    assert json.loads(result.stdout)["order"] == 2
    # flag wins over the environment
    result = run_cli(
        "star", "--space", "flat2", "--order", "3", "--output", "structured", "x", "y",
        env_extra={"MOYALQUOT_ORDER": "2"},
    )
    assert json.loads(result.stdout)["order"] == 3
    bad = run_cli("star", "x", "y", env_extra={"MOYALQUOT_ORDER": "many"})
    assert bad.returncode == 4
    assert bad.stderr == "usage error: MOYALQUOT_ORDER must be an integer, got 'many'\n"


def test_cli_order_above_the_cap_is_refused(capsys, monkeypatch):
    monkeypatch.delenv("MOYALQUOT_ORDER", raising=False)
    over = str(cli.MAX_ORDER + 1)
    for argv in (
        ["star", "--space", "flat2", "--order", "100000", "x", "y"],
        ["transport", "--from", "A", "--to", "B", "--order", over, "p"],
        ["verify", "poisson", "--order", over, "--samples", "1"],
    ):
        assert run(argv) == 4
        order = argv[argv.index("--order") + 1]
        assert capsys.readouterr() == (
            "", f"usage error: --order must be at most {cli.MAX_ORDER}, got {order}\n"
        )
    assert run(["star", "--order", "-1", "x", "y"]) == 4
    assert capsys.readouterr() == ("", "usage error: --order must be nonnegative\n")
    for value, message in (
        (over, f"must be at most {cli.MAX_ORDER}, got {over}"),
        ("-1", "must be nonnegative"),
        ("x", "must be an integer, got 'x'"),
    ):
        monkeypatch.setenv("MOYALQUOT_ORDER", value)
        assert run(["star", "x", "y"]) == 4
        assert capsys.readouterr() == ("", f"usage error: MOYALQUOT_ORDER {message}\n")
    # the cap itself is allowed
    assert run(["star", "--space", "flat2", "--order", str(cli.MAX_ORDER), "x", "y"]) == 0
    assert capsys.readouterr().out == "x*y + (1/2)*i*h\n"


def test_cli_variable_count_above_the_cap_is_refused(capsys):
    half = cli.MAX_VARIABLES // 2
    # the cap itself is allowed on every entry point that counts variables
    for argv in (
        ["star", "--space", "flatN", "--d", str(half), "--order", "2", "x1", "y1"],
        ["poisson", "--space", "product", "--d", "2", "--r", str(half // 2), "z1*p1", "u1"],
        ["verify", "symmetric", "--samples", "1", "--d", "2", "--r", str(half // 2)],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()
    for argv, flags, count in (
        (["star", "--space", "flatN", "--d", str(half + 1), "x1", "y1"],
         f"--d {half + 1}", 2 * half + 2),
        (["star", "--space", "product", "--d", "3", "--r", "1000", "z1", "p1"],
         "--d 3 --r 1000", 6000),
        (["poisson", "--space", "flatN", "--d", str(half + 1), "x1", "y1"],
         f"--d {half + 1}", 2 * half + 2),
        (["verify", "theorem1", "--samples", "1", "--r", str(half // 2 + 1)],
         f"--d 2 --r {half // 2 + 1}", 2 * half + 4),
    ):
        started = time.perf_counter()
        assert run(argv) == 4, argv
        assert time.perf_counter() - started < 1
        assert capsys.readouterr() == (
            "", f"usage error: {flags} gives {count} variables, more than {cli.MAX_VARIABLES}\n"
        )
    # flat2 and kchart have one pair whatever --d and --r say
    assert run(["star", "--space", "kchart", "--d", "1000000", "--r", "1000000", "z", "p"]) == 0


def test_cli_validate_point_variable_count_is_capped(capsys):
    # a point has 2 * (d + flat pairs) variables; its duplicate-support check
    # compares every pair of support entries
    def point(d, flat_pairs):
        return ["validate-point", "--support=" + ",".join(map(str, range(d))),
                "--covectors=" + ",".join(["1"] * d), "--flat=" + ",".join(["0"] * 2 * flat_pairs)]

    half = cli.MAX_VARIABLES // 2
    for d, flat_pairs in ((half, 0), (half // 2, half // 2)):
        assert run(point(d, flat_pairs)) == 0
        assert capsys.readouterr() == ("point: valid\n", "")
    for d, flat_pairs in ((half + 1, 0), (half // 2, half // 2 + 1), (2000, 0)):
        started = time.perf_counter()
        assert run(point(d, flat_pairs)) == 4
        assert time.perf_counter() - started < 1
        assert capsys.readouterr() == ("", (
            f"usage error: a point with d = {d} and {flat_pairs} flat pairs gives "
            f"{2 * (d + flat_pairs)} variables, more than {cli.MAX_VARIABLES}\n"))


# operands on the space's first pair (Q, P): polynomial, Laurent, affine
# denominator, a pole, h (refused by poisson) and an unknown name
_OPERANDS = ("Q*P + 2*Q^2", "Q^2/P^3 - i*P/Q", "1/(Q + P + 1)", "1/0", "h", "w9")
_FIRST_PAIR = {"flat2": ("x", "y"), "flatN": ("x1", "y1"), "kchart": ("z", "p"),
               "product": ("z1", "p1")}
# small counts, and counts just past the variable cap (2*d*r > MAX_VARIABLES)
_COUNTS = st.sampled_from([1, 2, 3, cli.MAX_VARIABLES // 2 + 1])
STAR_SECONDS = 10


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(["star", "poisson"]),
    st.sampled_from(sorted(_FIRST_PAIR)),
    _COUNTS,
    _COUNTS,
    st.sampled_from([*range(9), cli.MAX_ORDER + 1]),
    st.sampled_from(_OPERANDS),
    st.sampled_from(_OPERANDS),
)
def test_cli_star_and_poisson_argument_fuzz(command, space, d, r, order, left, right):
    q, p = _FIRST_PAIR[space]
    operands = [text.replace("Q", q).replace("P", p) for text in (left, right)]
    argv = [command, "--space", space, "--d", str(d), "--r", str(r)]
    argv += ["--order", str(order)] if command == "star" else []
    argv += ["--", *operands]
    start = time.perf_counter()
    code, out, err = _run_captured(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert "Traceback" not in err
    else:
        assert err == "" and out.endswith("\n"), (argv, err)
    count = {"flatN": 2 * d, "product": 2 * d * r}.get(space, 2)
    if count > cli.MAX_VARIABLES:
        assert code == 4, (argv, err)
    assert time.perf_counter() - start < STAR_SECONDS, argv


def test_cli_verify_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.atlas"
    bad.write_text("chart A z p\nchart B w q\ntransition A B 1 1 1 1\n")
    result = run_cli(
        "verify", "cocycle", "--seed", "2", "--samples", "2", "--atlas", str(bad)
    )
    assert result.returncode == 1
    assert "FAIL" in result.stdout


def test_cli_deep_and_long_expressions(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    assert run(["star", "--space", "flat2", deep, "y"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: nesting deeper than") and err.count("\n") == 1
    long_sum = "+".join(["x"] * 3000)
    assert run(["star", "--space", "flat2", "--order", "2", long_sum, "y"]) == 0
    assert capsys.readouterr().out == "3000*x*y + 1500*i*h\n"


def test_cli_huge_exponent_is_a_parse_error(capsys):
    started = time.perf_counter()
    assert run(["star", "--space", "flat2", "x^200000", "y"]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err == "parse error: exponent larger than 1000 in absolute value (offset 2)\n"


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["star", "--space", "flat2", "--order", "1", "--", "(x+y+1)^1000", "y"], "2000 terms"),
        (["star", "--", "((10^1000)^1000)^10", "y"], "100000 bits"),
    ],
)
def test_cli_expression_size_is_bounded_up_front(argv, limit, capsys):
    started = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: expression too large: ")
    assert captured.err.endswith(f" {limit}\n")


def test_cli_long_integer_literal_is_a_parse_error(capsys):
    # int() refuses decimal strings past the interpreter's digit limit
    literal = "1" + "9" * 5000
    assert run(["star", "--space", "flat2", f"x + {literal}", "y"]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: cannot read the 5001-digit integer literal (offset 4)\n"


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
    reason="needs an integer digit limit below 5001",
)
@pytest.mark.parametrize("output", ["text", "structured"])
def test_cli_unprintable_number_is_a_domain_error(output, capsys):
    # 10^5000 has more decimal digits than the interpreter turns into text
    huge = "(10^1000)^5"
    limit = sys.get_int_max_str_digits()
    for argv in (
        ["star", "--space", "flat2", "--order", "1", huge, "y"],
        ["validate-point", f"--support={huge},{huge}", "--covectors=1,1"],
    ):
        assert run([*argv, "--output", output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"domain error: a number has more than {limit} digits, too many to print\n"
        )


def test_cli_superscript_digit_is_a_parse_error(capsys):
    # only ASCII 0-9 are digits; str.isdigit() also accepts superscripts
    assert run(["star", "x^\u00b2", "y"]) == 2
    assert capsys.readouterr().err == "parse error: unexpected character '\u00b2' (offset 2)\n"
    assert run(["star", "x*\u00b2", "y"]) == 2
    assert capsys.readouterr().err == "parse error: unexpected character '\u00b2' (offset 2)\n"
    # other decimal digits, here ARABIC-INDIC DIGIT THREE, are refused as well
    assert run(["star", "x^\u0663", "y"]) == 2
    assert capsys.readouterr().err == "parse error: unexpected character '\u0663' (offset 2)\n"


def test_cli_poisson_takes_no_order(capsys):
    assert run(["poisson", "--order", "3", "x", "y"]) == 4
    assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --order")
    assert run(["poisson", "x", "y"]) == 0


@pytest.mark.parametrize("suite", ["axioms", "theorem1"])
def test_cli_verify_at_order_zero(suite, capsys):
    assert run(["verify", suite, "--order", "0", "--samples", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "internal error" not in captured.err
    assert "PASS commutator h-term" in captured.out


def test_cli_operand_with_leading_minus_needs_double_dash(capsys):
    assert run(["star", "--space", "flat2", "-x", "y"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage error: the following arguments are required: right")
    assert "such as '-x', must follow '--'" in err and err.count("\n") == 1
    assert run(["star", "--space", "flat2", "--", "-x", "y"]) == 0
    assert capsys.readouterr().out == "-x*y - (1/2)*i*h\n"
    # no hint for a missing operand or a negative number
    assert run(["star", "--space", "flat2", "x"]) == 4
    assert "'--'" not in capsys.readouterr().err
    assert run(["star", "--space", "flat2", "--order", "2", "-2", "y"]) == 0
    assert capsys.readouterr().out == "-2*y\n"
    # an option value that starts with '-' is joined to its option with '='
    assert run(["validate-point", "--support", "-1,2", "--covectors", "1,1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --support: expected one argument")
    assert "with '=', as in: --support=-1,2)" in err and err.count("\n") == 1
    assert run(["validate-point", "--support=-1,2", "--covectors", "1,1"]) == 0


def test_cli_internal_error_is_one_line_exit_5(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("engine fault\non two lines")

    monkeypatch.setitem(cli._COMMANDS, "star", broken)
    assert run(["star", "x", "y"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: engine fault on two lines\n"


VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify"
_GOLDEN_ARGS = ("--seed", "1", "--samples", "3")
VERIFY_GOLDEN_CASES = [
    (f"{suite}_seed1_samples3", ["verify", suite, *_GOLDEN_ARGS]) for suite in sorted(SUITES)
] + [
    (f"{suite}_seed1_samples3_d3_r1", ["verify", suite, *_GOLDEN_ARGS, "--d", "3", "--r", "1"])
    for suite in ("theorem1", "symmetric")
] + [
    (
        "cocycle_bad_atlas",
        ["verify", "cocycle", *_GOLDEN_ARGS, "--atlas", str(VERIFY_GOLDEN / "bad.atlas")],
    ),
    (
        # six samples visit every transition of the three-chart atlas once
        "cocycle_projective_atlas",
        ["verify", "cocycle", "--seed", "1", "--samples", "6",
         "--atlas", str(VERIFY_GOLDEN / "projective.atlas")],
    ),
]


@pytest.mark.parametrize("name,argv", VERIFY_GOLDEN_CASES, ids=[n for n, _ in VERIFY_GOLDEN_CASES])
def test_cli_verify_reports_match_golden(name, argv, capsys):
    expected = (VERIFY_GOLDEN / f"{name}.txt").read_text()
    code = run(argv)
    assert capsys.readouterr().out == expected
    assert code == (1 if "FAIL" in expected else 0)


def test_cli_verify_structured_report_matches_golden(capsys):
    expected = (VERIFY_GOLDEN / "theorem1_seed1_samples3.json").read_text()
    assert run(["verify", "theorem1", *_GOLDEN_ARGS, "--output", "structured"]) == 0
    assert capsys.readouterr().out == expected


def test_suites_open_the_pinned_sample_streams(monkeypatch):
    # a changed stream changes what a suite tests, and its report may still pass
    opened = []
    real = SampleStream.__init__

    def recording(self, seed):
        opened.append(str(seed))
        real(self, seed)

    monkeypatch.setattr(SampleStream, "__init__", recording)
    streams = {}
    for d, r in ((2, 2), (3, 1)):
        for suite in sorted(SUITES):
            opened.clear()
            run_suite(suite, SuiteConfig(seed=7, samples=2, d=d, r=r))
            streams[f"{suite} d={d} r={r}"] = list(opened)
    pinned = VERIFY_GOLDEN / "sample_streams_seed7_samples2.json"
    assert streams == json.loads(pinned.read_text())


ASSOCIATIVITY_ARGV = ["verify", "associativity", "--seed", "1", "--samples", "3"]


def test_associativity_products_of_forms_take_no_derivatives(monkeypatch, capsys):
    # its one star over a product of forms, (x + i/2)^k (y + 1)^k, takes the frame
    calls = []
    real = moyal._bidiff
    monkeypatch.setattr(moyal, "_bidiff", lambda *args: calls.append(1) or real(*args))
    assert run(ASSOCIATIVITY_ARGV) == 0
    assert "total: 2 passed, 0 failed" in capsys.readouterr().out
    assert calls == []


def test_associativity_routes_at_100_samples(monkeypatch, capsys):
    # of the stars whose denominators are not all monomials, the six left to take
    # derivatives have an operand with two centers in one direction
    real, frames = moyal._affine_frame, []
    monkeypatch.setattr(moyal, "_affine_frame",
                        lambda *args: frames.append(real(*args)) or frames[-1])
    assert run(["verify", "associativity", "--seed", "1", "--samples", "100"]) == 0
    assert "total: 2 passed, 0 failed" in capsys.readouterr().out
    assert (len(frames) - frames.count(None), frames.count(None)) == (60, 6)


def test_planted_frame_fault_fails_associativity(monkeypatch, capsys):
    # on frames of a product of forms, the way back forgets the constant of the first
    # form that has one
    real = moyal._affine_frame

    def faulty(space, used):
        frame = real(space, used)
        if frame is None or all(sum(map(bool, *c.den.terms)) < 2 for c in frame[1]):
            return frame
        frame_space, moved, back, strip = frame
        zero = (0,) * space.dim
        a = next(a for a, form in enumerate(back) if zero in form.terms)
        back = back[:a] + [back[a] - back[a].terms[zero]] + back[a + 1:]
        return frame_space, moved, back, strip

    monkeypatch.setattr(moyal, "_affine_frame", faulty)
    assert run(ASSOCIATIVITY_ARGV) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")] == [
        "FAIL rational triples associate through order 6 (1 samples): sample 0: "
        "f = -(2/3)*y^2 - (1/6)*x, g = (x^2 - 1/3)/(y + 1), h = ((1/2)*x + 1)/(x + (1/2)*i)",
    ]


def test_planted_moyal_fault_fails_with_exact_counterexamples(monkeypatch):
    real = suites.moyal_star

    def shifted(ctx, f, g):
        # adds the first variable to the h-term of every product
        coeffs = list(real(ctx, f, g).coeffs)
        if len(coeffs) > 1:
            coeffs[1] = coeffs[1] + RationalFunction.variable(coeffs[1].vars, coeffs[1].vars[0])
        return HSeries(coeffs)

    monkeypatch.setattr(suites, "moyal_star", shifted)
    cfg = SuiteConfig(seed=1, samples=3)
    failures = [
        line
        for name in ("axioms", "associativity", "evenness")
        for line in run_suite(name, cfg).render_text().splitlines()
        if line.startswith("FAIL")
    ]
    assert failures == [
        "FAIL unit law holds on both sides (3 samples): sample 0: "
        "f = 2*x^2*y^2 - 2*x^3 + (1 + i)*y^3 + 1 + h - x^2*y*h^2",
        "FAIL polynomial triples associate exactly at full order (3 samples): sample 0: "
        "f = (1/2)*x*y^2 + i*y^2, g = 2*x^2*y - (1/2)*x - 2, "
        "h = -2*x^2 + 3*x*y + (1 + i)*x + (1 + i)",
        "FAIL rational triples associate through order 6 (1 samples): sample 0: "
        "f = -(2/3)*y^2 - (1/6)*x, g = (x^2 - 1/3)/(y + 1), h = ((1/2)*x + 1)/(x + (1/2)*i)",
        "FAIL every coefficient pushes forward to the chart (3 samples): sample 0: "
        "odd power of y after substitution",
        "FAIL star of even pairs has even coefficients (3 samples): sample 0: "
        "h^1 term x^2 + (2 + (3/2)*i)*x*y - (3/2)*i*y^2 + x is odd",
    ]
