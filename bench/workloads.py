"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is one round of operations built from the seed.  A run repeats
the round; every operation is one call into moyalquot, timed alone.  Each
operation has a cheap check that runs right after it, outside its timing.
Some operations also carry a reference check (sympy, in oracle.py) that runs
once, after the timed loop, on the output of their first execution.

All calls into the program go through module attributes at call time, so
that the wrappers of tracing.py see them.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from moyalquot import cli, moyal, quot
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.series import HSeries

Check = Callable[[object, Dict[str, object]], Optional[str]]


@dataclass
class Op:
    """One timed operation.

    `run` receives the outputs kept so far in the current pass of the round;
    `keep` names the output for later operations and checks of that pass.
    """

    label: str
    run: Callable[[Dict[str, object]], object]
    check: Check
    keep: Optional[str] = None
    reference: Optional[Callable[[object], Optional[str]]] = None


@dataclass
class Workload:
    ops: List[Op]
    # program computations checked once after the timed loop, untimed
    after: List[Callable[[], Optional[str]]] = field(default_factory=list)


# -- seeded inputs ---------------------------------------------------------------

COEFFS = (
    (1, 0), (-1, 0), (2, 0), (-2, 0), (3, 0), (Fraction(1, 2), 0), (Fraction(-3, 2), 0),
    (0, 1), (0, -1), (1, 1), (1, -1),
)
RawPoly = Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]


class Draw:
    """Seeded inputs.

    Exponents, coefficients and the choice of variables come from a catalogue
    that is the same for every seed (`shapes`).  The seed draws, per
    operation, a twist: a sign for every variable and whether to conjugate,
    and the operands are taken at x_k -> +-x_k with conjugated coefficients
    (`Twist.apply`).  Both are automorphisms, so the inputs differ from seed
    to seed while every seed sees the same sizes, coefficient magnitudes and
    factor structure, and a round costs the same.  When the seed drew the
    exponents and coefficients, or units +-i that mix real and imaginary
    parts, the throughput of one seed differed from another's by 25 to 35%,
    more than the run-to-run noise of the machine in a quiet period.
    """

    def __init__(self, workload: str, seed: int):
        self.shapes = random.Random(f"{workload}:shapes")
        self.values = random.Random(f"{workload}:{seed}")

    def poly(self, nvars: int, degree: int, terms: int) -> RawPoly:
        """`terms` distinct monomials of total degree at most `degree`."""
        out: RawPoly = {}
        while len(out) < terms:
            exp = [0] * nvars
            for _ in range(self.shapes.randint(0, degree)):
                exp[self.shapes.randrange(nvars)] += 1
            out[tuple(exp)] = self.shapes.choice(COEFFS)
        return out

    def denominator(self, nvars: int, shape=(1, 1)) -> RawPoly:
        """c1*v^a + c2*w^b for two distinct variables v, w and shape (a, b).

        b = 0 gives a denominator in one variable, which the program's gcd
        handles on its univariate path; b > 0 involves two variables and
        takes the multivariate (modular) path.
        """
        out: RawPoly = {}
        for var, degree in zip(self.shapes.sample(range(nvars), 2), shape):
            exp = [0] * nvars
            exp[var] = degree
            out[tuple(exp)] = self.shapes.choice(COEFFS)
        return out

    def twist(self, nvars: int) -> "Twist":
        signs = tuple(self.values.choice((1, -1)) for _ in range(nvars))
        return Twist(signs, self.values.random() < 0.5)


@dataclass(frozen=True)
class Twist:
    signs: Tuple[int, ...]
    conjugate: bool

    def apply(self, raw: RawPoly) -> RawPoly:
        """The polynomial at x_k -> signs[k] x_k, conjugated if `conjugate`."""
        out: RawPoly = {}
        for exp, (a, b) in raw.items():
            sign = 1
            for s, e in zip(self.signs, exp):
                sign *= s ** e
            out[exp] = (sign * a, -sign * b if self.conjugate else sign * b)
        return out


def chart_signs(twist: Twist) -> Tuple[int, int]:
    """Signs for a chart pair (z, p) from a one-variable twist.

    p keeps its sign: under the cover p = -y^2/2, and -p pulls back through
    y -> i*y, which mixes real and imaginary parts and changes the cost.
    """
    return (twist.signs[0], 1)


def to_polynomial(raw: RawPoly, names: Sequence[str]) -> Polynomial:
    return Polynomial(tuple(names), {e: GaussianRational(a, b) for e, (a, b) in raw.items()})


def _frac_text(q) -> str:
    q = Fraction(q)
    body = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"({body})"


def poly_text(raw: RawPoly, names: Sequence[str]) -> str:
    """Expression text in the CLI grammar (explicit `*`, `^`, `i`)."""
    terms = []
    for exp, (a, b) in sorted(raw.items()):
        if b == 0:
            coeff = _frac_text(a)
        elif a == 0:
            coeff = f"{_frac_text(b)}*i"
        else:
            coeff = f"({_frac_text(a)}+{_frac_text(b)}*i)"
        mono = [f"{n}^{e}" if e > 1 else n for n, e in zip(names, exp) if e]
        terms.append("*".join([coeff] + mono))
    return " + ".join(terms)


# -- shared checks ---------------------------------------------------------------


def check_scalar_term(result: HSeries, f: HSeries, g: HSeries) -> Optional[str]:
    """The h^0 coefficient of f * g is the pointwise product f0 * g0."""
    if result.coeffs[0] != f.coeffs[0] * g.coeffs[0]:
        return "scalar term is not f0*g0"
    return None


def check_invariant(ctx, result: HSeries) -> Optional[str]:
    if not quot.is_invariant(ctx, result):
        return "cell product is not invariant"
    return None


def check_associative(left: HSeries, right: HSeries) -> Optional[str]:
    if left != right:
        return "(f*g)*h != f*(g*h)"
    return None


def _first(*problems: Optional[str]) -> Optional[str]:
    return next((p for p in problems if p), None)


# -- reference checks (sympy) ----------------------------------------------------


def _rf_expr(c: RationalFunction, names):
    import oracle

    return oracle.parse(str(c.num), names) / oracle.parse(str(c.den), names)


def _point(rng: random.Random, n: int):
    from oracle import QQ_I
    import sympy

    vals = []
    for _ in range(n):
        num = rng.choice([v for v in range(-7, 8) if v])
        vals.append(QQ_I.convert(sympy.Rational(num, rng.randint(1, 5))))
    return vals


def _star_matches(fs, gs, result_at, chart_pairs, flat_pairs, order, seed) -> Optional[str]:
    """Compare a star product with sympy's at an exact point.

    fs and gs are lists of h-coefficients as sympy expressions in the chart
    variables; result_at(names, point) gives the h-coefficients of the
    program's result at a point of the chart variables.  Chart pairs (z, p)
    are pulled back through z = x/y, p = -y^2/2 to fresh pairs (x, y); flat
    pairs are used as they are.  The result is evaluated at the image of
    the point.
    """
    import oracle

    names = [v for pair in list(chart_pairs) + list(flat_pairs) for v in pair]
    pulled = [(f"x{k}", f"y{k}") for k in range(1, len(chart_pairs) + 1)]
    gen_names = [v for pair in pulled + list(flat_pairs) for v in pair]
    gens = oracle.symbols(gen_names)
    bind = oracle.cover_bindings(chart_pairs, pulled)
    fs = [c.xreplace(bind) for c in fs]
    gs = [c.xreplace(bind) for c in gs]
    rng = random.Random(seed)
    for _ in range(20):
        point = _point(rng, len(gens))
        if any(point[2 * k + 1] == oracle.ZERO for k in range(len(chart_pairs))):
            continue
        chart_point = []
        for k in range(len(chart_pairs)):
            x, y = point[2 * k], point[2 * k + 1]
            chart_point += [x / y, -y ** 2 / 2]
        chart_point += point[2 * len(chart_pairs):]
        try:
            expected = oracle.star_at_point(fs, gs, gens, point, order)
            got = result_at(names, chart_point)
        except oracle.Pole:
            continue
        for m, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                return f"h^{m} coefficient differs from sympy at {point}"
        return None
    return "no pole-free point found"


def reference_star(result: HSeries, f: HSeries, g: HSeries, chart_pairs, flat_pairs, seed: str):
    """Check a program star product against sympy; operands cross over as text."""
    import oracle

    names = [v for pair in list(chart_pairs) + list(flat_pairs) for v in pair]

    def exprs(series: HSeries):
        return [_rf_expr(c, names) for c in series.coeffs]

    coeffs = exprs(result)

    def result_at(names, point):
        return [oracle.value_at(c, oracle.symbols(names), point) for c in coeffs]

    return _star_matches(exprs(f), exprs(g), result_at, chart_pairs, flat_pairs,
                         result.order, seed)


def reference_text_star(stdout: str, left: str, right: str, chart_pairs, flat_pairs,
                        order: int, seed: str) -> Optional[str]:
    """Check a CLI star product: operands and printed result parsed by sympy."""
    import oracle

    names = [v for pair in list(chart_pairs) + list(flat_pairs) for v in pair]
    result = oracle.parse(stdout.strip(), names)

    def result_at(names, point):
        return oracle.series_at(result, names, point, order)

    return _star_matches([oracle.parse(left, names)], [oracle.parse(right, names)], result_at,
                         chart_pairs, flat_pairs, order, seed)


# -- cell-star -----------------------------------------------------------------------

# (d, r, order), operand degree and terms before symmetrization for the
# products of fresh operands, their number, then the same for the
# associativity triples (four products each, two of them star-of-star)
CELL_SHAPES = (
    ((2, 2, 4), (3, 2, 160), (2, 2, 8)),
    ((3, 1, 4), (3, 1, 20), (2, 1, 0)),
)


def _cell_operand(ctx, raw: RawPoly) -> HSeries:
    return HSeries.constant(RationalFunction.from_polynomial(to_polynomial(raw, ctx.vars)), ctx.order)


def cell_star(seed: int) -> Workload:
    draw = Draw("cell-star", seed)
    ops: List[Op] = []

    def fresh(ctx, degree, terms, twist: Twist) -> HSeries:
        return _cell_operand(ctx, twist.apply(draw.poly(len(ctx.vars), degree, terms)))

    def twist(ctx) -> Twist:
        # one sign for every z_i, so that the twist commutes with the
        # permutations of the chart pairs
        chart = draw.twist(1)
        flat = draw.twist(2 * len(ctx.flat_pairs))
        return Twist(chart_signs(chart) * ctx.d + flat.signs, chart.conjugate)

    def product_op(ctx, label, left, right, keep=None, assoc_with=None, reference=False):
        # left/right: an HSeries to symmetrize inside the operation, or the
        # key of an invariant output kept earlier in the pass
        def run(kept):
            f = kept[left][0] if isinstance(left, str) else quot.symmetrize(ctx, left)
            g = kept[right][0] if isinstance(right, str) else quot.symmetrize(ctx, right)
            return quot.quot_cell_star(ctx, f, g), f, g

        def check(out, kept):
            result, f, g = out
            return _first(
                check_scalar_term(result.value, f.value, g.value),
                check_invariant(ctx, result.value),
                check_associative(kept[assoc_with][0].value, result.value) if assoc_with else None,
            )

        ref = None
        if reference:
            tag = f"cell-star:{seed}:{len(ops)}"

            def ref(out):
                result, f, g = out
                return reference_star(
                    result.value, f.value, g.value, ctx.chart_pairs, ctx.flat_pairs, tag
                )

        ops.append(Op(label, run, check, keep=keep, reference=ref))

    for (d, r, order), (degree, terms, pairs), (t_degree, t_terms, triples) in CELL_SHAPES:
        ctx = quot.ProductContext(d=d, r=r, order=order)
        label = f"cell({d},{r},{order})"
        for k in range(pairs):
            u = twist(ctx)
            product_op(ctx, label, fresh(ctx, degree, terms, u), fresh(ctx, degree, terms, u),
                       reference=(k == 0))
        for t in range(triples):
            u = twist(ctx)
            f, g, h = (fresh(ctx, t_degree, t_terms, u) for _ in range(3))
            key = f"{label}:{t}"
            product_op(ctx, label, f, g, keep=key + ":fg")
            product_op(ctx, label, g, h, keep=key + ":gh")
            product_op(ctx, label + "-of-star", key + ":fg", h, keep=key + ":left",
                       reference=(t == 0))
            product_op(ctx, label + "-of-star", f, key + ":gh", assoc_with=key + ":left")
    return Workload(ops)


# -- flat-rational ---------------------------------------------------------------------

ROADMAP_PAIR = ("1/(x^2+y^2)", "(x+2*y)/(x-y)")

# variables, order, denominator shape, products per round
FLAT_SHAPES = (
    (("x", "y"), 6, (1, 0), 20),
    (("x", "y"), 6, (1, 1), 6),
    (("x", "y"), 8, (1, 0), 12),
    (("x", "y"), 8, (1, 1), 1),
    (("x1", "y1", "x2", "y2"), 6, (1, 0), 12),
    (("x1", "y1", "x2", "y2"), 6, (1, 1), 3),
)


def _flat_rational(draw: Draw, names, shape, twist: Twist) -> RationalFunction:
    num = to_polynomial(twist.apply(draw.poly(len(names), 2, 2)), names)
    den = to_polynomial(twist.apply(draw.denominator(len(names), shape)), names)
    return RationalFunction(num, den)


def flat_rational(seed: int) -> Workload:
    from moyalquot.expr import parse_rational

    draw = Draw("flat-rational", seed)
    ops: List[Op] = []

    def star_op(names, order, f, g, reference):
        ctx = moyal.MoyalContext(moyal.SymplecticSpace.standard(names), order)
        fs, gs = HSeries.constant(f, order), HSeries.constant(g, order)
        pairs = [(names[k], names[k + 1]) for k in range(0, len(names), 2)]

        def run(kept):
            return moyal.moyal_star(ctx, fs, gs)

        def check(out, kept):
            return check_scalar_term(out, fs, gs)

        ref = None
        if reference:
            tag = f"flat-rational:{seed}:{len(ops)}"

            def ref(out):
                return reference_star(out, fs, gs, (), pairs, tag)

        ops.append(Op(f"flat{len(names)}-order{order}", run, check, reference=ref))

    for names, order, shape, count in FLAT_SHAPES:
        for k in range(count):
            u = draw.twist(len(names))
            f, g = (_flat_rational(draw, names, shape, u) for _ in range(2))
            star_op(names, order, f, g, k == 0)

    xy = ("x", "y")
    star_op(xy, 6, parse_rational(ROADMAP_PAIR[0], xy), parse_rational(ROADMAP_PAIR[1], xy), True)

    def associativity_check(triple):
        def after():
            ctx = moyal.MoyalContext(moyal.SymplecticSpace.standard(xy), 4)
            f, g, h = (HSeries.constant(t, 4) for t in triple)
            left = moyal.moyal_star(ctx, moyal.moyal_star(ctx, f, g), h)
            right = moyal.moyal_star(ctx, f, moyal.moyal_star(ctx, g, h))
            return check_associative(left, right)

        return after

    after = []
    for shape in ((1, 0), (1, 1)):
        u = draw.twist(2)
        after.append(associativity_check(tuple(_flat_rational(draw, xy, shape, u) for _ in range(3))))
    return Workload(ops, after)


# -- cli-chart -----------------------------------------------------------------------

CP1_ATLAS = "src/moyalquot/data/cp1.atlas"
TORUS_ATLAS = "bench/data/torus.atlas"
GOLDEN = Path("tests/golden")

GOLDEN_CALLS = (
    (("star", "--space", "flat2", "--order", "4", "x", "y"), "star_flat2_x_y.txt"),
    (("star", "--space", "flat2", "--order", "4", "x^2", "y^2"), "star_flat2_x2_y2.txt"),
    (("star", "--space", "flat2", "--order", "4", "--output", "structured", "x", "y"),
     "star_flat2_x_y.json"),
    (("star", "--space", "kchart", "--order", "4", "z", "p"), "star_kchart_z_p.txt"),
    (("star", "--space", "kchart", "--order", "4", "z^2", "p"), "star_kchart_z2_p.txt"),
)

# Calls per round.  The cheap calls (golden, flat2 stars of polynomials,
# transport, poisson, validate) are about three quarters of the round, so
# that op_p50_ms lies inside their cluster and follows parsing, rendering
# and argparse rather than the boundary between clusters.
FLAT_CALLS = 12
TRANSPORTS = 3
BRACKETS = 3

# denominators of the kchart star operands (see Draw.denominator)
KCHART_SHAPES = ((1, 0), (1, 0), (1, 0), (1, 1))

# The suites run at a fixed seed: their own sampling has a heavy tail (at
# --samples 3 one seed's associativity suite took 1.3 s against a typical
# 30 ms), which would make the round's cost follow the benchmark seed more
# than the program.
SUITE_SEED = "1"

# suite -> (samples, number of cases in its report)
SUITE_SIZES = {
    "axioms": (3, 3),
    "poisson": (2, 6),
    "associativity": (3, 2),
    "equivariance": (3, 2),
    "lemma1": (3, 4),
    "cocycle": (3, 3),
    "evenness": (3, 2),
    "symmetric": (3, 5),
    "theorem1": (1, 6),
}

# transport targets in sympy: the source chart coordinates in terms of the target's
TRANSPORT_MAPS = {
    (CP1_ATLAS, "A", "B"): ("z p", "w q", ("1/w", "-q*w**2")),
    (CP1_ATLAS, "B", "A"): ("w q", "z p", ("1/z", "-p*z**2")),
    (TORUS_ATLAS, "A", "B"): ("z p", "w q", ("w - 1/2 - i", "q")),
    (TORUS_ATLAS, "B", "A"): ("w q", "z p", ("z + 1/2 + i", "p")),
}

CallOut = Tuple[int, str]


def run_cli(argv: Sequence[str]) -> CallOut:
    """One in-process call of the CLI, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def check_exit(out: CallOut, code: int = 0) -> Optional[str]:
    if out[0] != code:
        return f"exit code {out[0]}, expected {code}"
    if not out[1].strip():
        return "empty output"
    return None


def check_golden(out: CallOut, expected: str) -> Optional[str]:
    return check_exit(out) or (None if out[1] == expected else "output differs from tests/golden")


_SAMPLES = re.compile(r"\((\d+) samples\)")


def check_report(out: CallOut, cases: int) -> Optional[str]:
    """A verify report: every case passed, the expected number of cases ran,
    and each case drew at least one sample."""
    problem = check_exit(out)
    if problem:
        return problem
    lines = out[1].splitlines()
    body = lines[2:-1]
    if lines[-1] != f"total: {cases} passed, 0 failed":
        return f"report ends with {lines[-1]!r}"
    if len(body) != cases or not all(line.startswith("PASS ") for line in body):
        return "report cases do not all pass"
    if any(int(m) < 1 for line in body for m in _SAMPLES.findall(line)):
        return "a case ran on zero samples"
    return None


def reference_transport(moved: str, source: str, key) -> Optional[str]:
    """transport f = f(Z, P) with (Z, P) the source coordinates in the target chart."""
    import oracle

    src, dst, images = TRANSPORT_MAPS[key]
    src_names, dst_names = src.split(), dst.split()
    bind = {oracle.symbols([n])[0]: oracle.parse(e, dst_names) for n, e in zip(src_names, images)}
    expected = oracle.parse(source, src_names).xreplace(bind)
    if not oracle.is_zero(oracle.parse(moved.strip(), dst_names) - expected):
        return "transport differs from sympy substitution"
    return None


def reference_round_trip(back: str, source: str, names: str) -> Optional[str]:
    import oracle

    if not oracle.is_zero(oracle.parse(back.strip(), names.split()) - oracle.parse(source, names.split())):
        return "transport round trip is not the identity"
    return None


def reference_bracket(out: str, left: str, right: str, pairs) -> Optional[str]:
    import oracle

    names = [v for a, b, _ in pairs for v in (a, b)]
    expected = oracle.bracket(oracle.parse(left, names), oracle.parse(right, names), pairs)
    if not oracle.is_zero(oracle.parse(out.strip(), names) - expected):
        return "bracket differs from sympy"
    return None


def cli_chart(seed: int) -> Workload:
    draw = Draw("cli-chart", seed)
    ops: List[Op] = []

    def call(label, argv, check, keep=None, reference=None):
        build = argv if callable(argv) else (lambda kept: argv)
        ops.append(Op(label, lambda kept: run_cli(build(kept)), check, keep, reference))

    zp = (("z", "p"),)
    for argv, name in GOLDEN_CALLS:
        expected = (GOLDEN / name).read_text()
        ref = None
        if "structured" not in argv:
            chart, flat = (zp, ()) if "kchart" in argv else ((), (("x", "y"),))
            ref = (lambda out, a=argv, c=chart, f=flat:
                   reference_text_star(out[1], a[-2], a[-1], c, f, 4, "golden"))
        call("golden", argv, lambda out, kept, e=expected: check_golden(out, e), reference=ref)

    def rational_text(names, num_degree, shape, twist: Twist):
        num = poly_text(twist.apply(draw.poly(len(names), num_degree, 2)), names)
        den = poly_text(twist.apply(draw.denominator(len(names), shape)), names)
        return f"({num})/({den})"

    for k in range(FLAT_CALLS):
        u = draw.twist(2)
        left, right = (poly_text(u.apply(draw.poly(2, 3, 3)), ("x", "y")) for _ in range(2))
        argv = ("star", "--space", "flat2", "--order", "6", "--", left, right)
        ref = None
        if k == 0:
            ref = (lambda out, l=left, r=right, tag=f"cli-chart:{seed}:flat":
                   reference_text_star(out[1], l, r, (), (("x", "y"),), 6, tag))
        call("flat2", argv, lambda out, kept: check_exit(out), reference=ref)

    for k, shape in enumerate(KCHART_SHAPES):
        t = draw.twist(1)
        u = Twist(chart_signs(t), t.conjugate)
        left, right = (rational_text(("z", "p"), 2, shape, u) for _ in range(2))
        argv = ("star", "--space", "kchart", "--order", "4", "--", left, right)
        call("kchart", argv, lambda out, kept: check_exit(out),
             reference=lambda out, l=left, r=right, tag=f"cli-chart:{seed}:{k}":
             reference_text_star(out[1], l, r, zp, (), 4, tag))

    for atlas in (CP1_ATLAS, TORUS_ATLAS):
        for k in range(TRANSPORTS):
            u = draw.twist(2)
            source = poly_text(u.apply(draw.poly(2, 3, 2)), ("z", "p")) + " + h*" + \
                poly_text(u.apply(draw.poly(2, 1, 1)), ("z", "p"))
            key = f"{atlas}:{k}"
            there = ("transport", "--atlas", atlas, "--from", "A", "--to", "B", "--order", "4", "--")
            call("transport", there + (source,), lambda out, kept: check_exit(out), keep=key,
                 reference=lambda out, s=source, a=atlas:
                 reference_transport(out[1], s, (a, "A", "B")))
            back = ("transport", "--atlas", atlas, "--from", "B", "--to", "A", "--order", "4", "--")
            call("transport", lambda kept, b=back, key=key: b + (kept[key][1].strip(),),
                 lambda out, kept: check_exit(out),
                 reference=lambda out, s=source: reference_round_trip(out[1], s, "z p"))

    for space, pairs, extra in (
        ("flat2", (("x", "y", 1),), ()),
        ("kchart", (("z", "p", -1),), ()),
        ("flatN", (("x1", "y1", 1), ("x2", "y2", 1)), ("--d", "2")),
    ):
        names = [v for a, b, _ in pairs for v in (a, b)]
        for _ in range(BRACKETS):
            u = draw.twist(len(names))
            left, right = (rational_text(names, 3, (1, 1), u) for _ in range(2))
            call("poisson", ("poisson", "--space", space) + extra + ("--", left, right),
                 lambda out, kept: check_exit(out),
                 reference=lambda out, l=left, r=right, p=pairs: reference_bracket(out[1], l, r, p))

    for atlas in (CP1_ATLAS, TORUS_ATLAS):
        call("validate", ("validate-atlas", atlas),
             lambda out, kept: check_exit(out) or
             (None if out[1] == "atlas: valid\n" else "atlas not reported valid"))
    a, b = draw.values.sample(range(-9, 10), 2)
    flat = ",".join(str(draw.values.randint(-3, 3)) for _ in range(4))
    valid = ("validate-point", "--d=2", "--r=2", f"--support={a},{b}",
             f"--covectors={draw.values.randint(1, 5)},{-draw.values.randint(1, 5)}*i", f"--flat={flat}")
    call("validate", valid, lambda out, kept: check_exit(out) or
         (None if out[1] == "point: valid\n" else "valid point reported invalid"))
    duplicate = ("validate-point", "--d=2", "--r=1", f"--support={a},{a}", "--covectors=1,1")
    call("validate", duplicate, lambda out, kept: check_exit(out, 3) or
         (None if "DuplicateSupport" in out[1] else "duplicate support not reported"))

    for suite, (samples, cases) in SUITE_SIZES.items():
        argv = ("verify", suite, "--seed", SUITE_SEED, "--samples", str(samples))
        call("verify", argv, lambda out, kept, c=cases: check_report(out, c))
    argv = ("verify", "cocycle", "--seed", SUITE_SEED, "--samples", "3", "--atlas", TORUS_ATLAS)
    call("verify", argv, lambda out, kept: check_report(out, SUITE_SIZES["cocycle"][1]))
    return Workload(ops)


WORKLOADS = {"cell-star": cell_star, "flat-rational": flat_rational, "cli-chart": cli_chart}
