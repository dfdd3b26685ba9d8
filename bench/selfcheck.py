"""Planted-fault self-check: every checker passes a right answer and rejects a wrong one.

    python3 bench/selfcheck.py        # from the root of a checkout; exit 0 when all hold

For each workload it runs one round at seed 1, confirms that every cheap
check and every sympy reference accepts the program's outputs, then plants a
wrong answer per checker (a negated h^1 coefficient, a changed scalar term,
a non-invariant term, a changed byte, a failed or empty verify case, a
wrong exit code) and confirms that the checker rejects it.
"""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402
from moyalquot.expr import parse_series  # noqa: E402
from moyalquot.rational import RationalFunction  # noqa: E402
from moyalquot.series import HSeries  # noqa: E402

failures = []


def expect(name: str, right, wrong) -> None:
    """right/wrong: the checker's verdict on a right and on a planted answer."""
    ok = right is None and wrong is not None
    print(f"{'ok  ' if ok else 'FAIL'} {name}: right -> {right!r}, planted -> {wrong!r}")
    if not ok:
        failures.append(name)


def negate_h1(series: HSeries) -> HSeries:
    """Negate the lowest nonzero h^k coefficient, k >= 1 (h^1 in general;
    a product whose bracket vanishes starts later); set h^1 = 1 if all vanish."""
    coeffs = list(series.coeffs)
    k = next((k for k in range(1, len(coeffs)) if not coeffs[k].is_zero()), None)
    if k is None:
        coeffs[1] = RationalFunction.one(series.vars)
    else:
        coeffs[k] = -coeffs[k]
    return HSeries(coeffs)


def shift_h0(series: HSeries, by) -> HSeries:
    return HSeries((series.coeffs[0] + by,) + series.coeffs[1:])


def one_round(workload):
    """Outputs of one pass, with the kept outputs each operation saw."""
    kept, outs = {}, []
    for op in workload.ops:
        out = op.run(kept)
        outs.append((op, out, dict(kept)))
        if op.keep:
            kept[op.keep] = out
    return outs


def first(outs, label, with_reference=True):
    return next((op, out, kept) for op, out, kept in outs
                if op.label == label and (op.reference is not None or not with_reference))


def cell_star() -> None:
    outs = one_round(W.cell_star(1))
    for op, out, kept in outs:
        if op.check(out, kept):
            expect(f"cell-star {op.label} check", op.check(out, kept), "-")
    for label in ("cell(2,2,4)", "cell(2,2,4)-of-star", "cell(3,1,4)"):
        op, (result, f, g), _ = first(outs, label)
        wrong = W.quot.SymSeries(negate_h1(result.value))
        expect(f"cell-star {label} sympy reference", op.reference((result, f, g)),
               op.reference((wrong, f, g)))
    op, (result, f, g), _ = first(outs, "cell(2,2,4)")
    ctx = W.quot.ProductContext(d=2, r=2, order=4)
    one = RationalFunction.one(ctx.vars)
    expect("cell-star scalar term", W.check_scalar_term(result.value, f.value, g.value),
           W.check_scalar_term(shift_h0(result.value, one), f.value, g.value))
    z1 = RationalFunction.variable(ctx.vars, "z1")
    expect("cell-star invariance", W.check_invariant(ctx, result.value),
           W.check_invariant(ctx, shift_h0(result.value, z1)))
    op, out, kept = next((op, out, kept) for op, out, kept in outs
                         if op.label.endswith("-of-star") and op.keep is None)
    left = kept[next(k for k in kept if k.endswith(":left"))][0].value
    expect("cell-star associativity", W.check_associative(left, out[0].value),
           W.check_associative(negate_h1(left), out[0].value))


def flat_rational() -> None:
    workload = W.flat_rational(1)
    outs = one_round(workload)
    for op, out, kept in outs:
        if op.check(out, kept):
            expect(f"flat-rational {op.label} check", op.check(out, kept), "-")
    for label in ("flat2-order6", "flat2-order8", "flat4-order6"):
        op, out, _ = first(outs, label)
        expect(f"flat-rational {label} sympy reference", op.reference(out),
               op.reference(negate_h1(out)))
    op, out, _ = first(outs, "flat2-order6")
    expect("flat-rational scalar term", op.check(out, {}),
           op.check(shift_h0(out, RationalFunction.one(out.vars)), {}))
    expect("flat-rational associativity", workload.after[0](),
           W.check_associative(out, negate_h1(out)))


def _negate_text_h1(text: str, names, order: int) -> str:
    return str(negate_h1(parse_series(text.strip(), names, order))) + "\n"


def cli_chart() -> None:
    outs = one_round(W.cli_chart(1))
    for op, out, kept in outs:
        if op.check(out, kept):
            expect(f"cli-chart {op.label} check", op.check(out, kept), "-")
    op, out, kept = first(outs, "golden", with_reference=False)
    expect("cli-chart golden bytes", op.check(out, kept), op.check((0, out[1] + " "), kept))
    for label, names, order in (("golden", ("x", "y"), 4), ("flat2", ("x", "y"), 6),
                                ("kchart", ("z", "p"), 4)):
        op, out, _ = first(outs, label)
        expect(f"cli-chart {label} sympy reference", op.reference(out),
               op.reference((0, _negate_text_h1(out[1], names, order))))
    transports = [(op, out) for op, out, _ in outs if op.label == "transport"]
    for name, (op, out) in (("transport", transports[0]), ("transport round trip", transports[1])):
        expect(f"cli-chart {name}", op.reference(out), op.reference((0, out[1].strip() + " + 1")))
    op, out, _ = first(outs, "poisson")
    expect("cli-chart poisson sympy", op.reference(out), op.reference((0, f"-({out[1].strip()})")))
    op, out, kept = first(outs, "validate", with_reference=False)
    expect("cli-chart exit code", op.check(out, kept), op.check((3, out[1]), kept))
    op, out, kept = first(outs, "verify", with_reference=False)
    failed = out[1].replace("0 failed", "1 failed")
    empty = re.sub(r"\(\d+ samples\)", "(0 samples)", out[1], count=1)
    expect("cli-chart verify totals", op.check(out, kept), op.check((0, failed), kept))
    expect("cli-chart verify zero samples", op.check(out, kept), op.check((0, empty), kept))


if __name__ == "__main__":
    cell_star()
    flat_rational()
    cli_chart()
    print(f"{len(failures)} checker(s) failed the self-check" if failures else "all checkers hold")
    sys.exit(1 if failures else 0)
