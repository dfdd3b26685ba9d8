"""Seeded verification suites binding all modules into reproducible reports.

Each suite declares its cases as rows and records the first counterexample
of each.  One runner, `_run`, owns what the rows share: it names each
sampled case's stream "<seed>:<suite>:<label>", gives it `cfg.samples`
samples unless the row sets its own count, loops over them with the
`sample k` prefix of a failure, and builds the report.  Reports are
deterministic functions of (seed, size flags): cases are sorted by
description before rendering, so the output is byte-stable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .atlas import (
    KChartFunction,
    ProjectiveAtlas,
    atlas_validate,
    chart_independence_check,
    standard_cp1_atlas,
    transport,
)
from .errors import MoyalQuotError, NotEven, UnknownSuite, UsageFailure
from .gaussian import I
from .geometry import (
    is_even,
    cotangent_lift,
    pushforward_even_pair,
    sigma_bindings,
    sigma_pullback_pair,
)
from .moyal import (
    MoyalContext,
    SymplecticSpace,
    apply_symplectic,
    moyal_star,
    poisson_bracket,
    star_commutator,
)
from .quot import (
    ProductContext,
    SymSeries,
    is_invariant,
    permute,
    product_star,
    quot_cell_star,
    support_divisor,
    symmetrize,
    QuotCellPoint,
)
from .polynomial import Polynomial
from .rational import RationalFunction
from .sampling import SampleStream
from .series import HSeries, hs_equal

# symmetrization sums orbits of exponents, not d! copies: one theorem1 sample
# takes 0.08 s at d = 6 on a 2-core machine (0.56 s with d! copies); the cap
# stays until the star's cost is bounded before any work
MAX_SUITE_D = 6
# at the default order one sample takes at most about 0.04 s (theorem1 at
# d = 6; 0.02 s or less for most suites at d = 2) on a 2-core machine, so a
# run at the cap ends within minutes
MAX_SAMPLES = 10000
# the flat spaces of the poisson and equivariance suites
_PLANE = SymplecticSpace.standard(("x", "y"))
_BLOCK = SymplecticSpace.standard(("x1", "y1", "x2", "y2"))


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    samples: int = 100
    order: int = 6
    d: int = 2
    r: int = 2
    atlas: Optional[ProjectiveAtlas] = None

    def __post_init__(self):
        if self.samples < 1:
            raise UsageFailure(f"samples must be at least 1, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise UsageFailure(f"samples must be at most {MAX_SAMPLES}, got {self.samples}")
        if self.d > MAX_SUITE_D:
            raise UsageFailure(f"d must be at most {MAX_SUITE_D}, got {self.d}")


@dataclass(frozen=True)
class CaseResult:
    description: str
    passed: bool
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    cases: Tuple[CaseResult, ...]

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed_count(self) -> int:
        return len(self.cases) - self.passed_count

    @property
    def ok(self) -> bool:
        return self.failed_count == 0

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}", f"seed: {self.seed}"]
        for case in self.cases:
            if case.passed:
                lines.append(f"PASS {case.description}")
            else:
                lines.append(f"FAIL {case.description}: {case.counterexample}")
        lines.append(f"total: {self.passed_count} passed, {self.failed_count} failed")
        return "\n".join(lines)

    def to_document(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": [asdict(c) for c in self.cases],
            "totals": {"passed": self.passed_count, "failed": self.failed_count},
        }


def _case(description: str, check: Callable[[], Optional[str]]) -> CaseResult:
    try:
        counterexample = check()
    except MoyalQuotError as exc:
        counterexample = f"{type(exc).__name__}: {exc}"
    if counterexample is None:
        return CaseResult(description, True)
    return CaseResult(description, False, counterexample)


def _sampled(
    description: str,
    samples: int,
    stream: str,
    check: Callable[[SampleStream, int], Optional[str]],
    before: Optional[Callable[[], Optional[str]]] = None,
) -> CaseResult:
    """The case `description` over samples 0 .. samples - 1 of one stream.

    `check(s, k)` draws sample k from `s` and returns None when it holds,
    else its failure detail ("" for none).  `before()` runs once, first.
    """

    def run() -> Optional[str]:
        failure = before() if before is not None else None
        if failure is not None:
            return failure
        s = SampleStream(stream)
        for k in range(samples):
            detail = check(s, k)
            if detail is not None:
                return f"sample {k}: {detail}" if detail else f"sample {k}"
        return None

    return _case(f"{description} ({samples} samples)", run)


def _run(suite: str, cfg: SuiteConfig, rows: Sequence[tuple],
         fixed: Sequence[Tuple[str, Callable[[], Optional[str]]]] = ()) -> VerificationReport:
    """The report of `suite` over its fixed `(description, check)` cases and its
    sampled rows `(label, description, check[, samples[, before]])`.

    A row draws from the stream "<seed>:<suite>:<label>" over `samples`
    samples, cfg.samples unless given; `before` is as in `_sampled`."""
    cases = [_case(description, check) for description, check in fixed]
    for label, description, check, *rest in rows:
        samples = rest[0] if rest else cfg.samples
        before = rest[1] if len(rest) > 1 else None
        cases.append(_sampled(description, samples, f"{cfg.seed}:{suite}:{label}", check, before))
    ordered = tuple(sorted(cases, key=lambda c: c.description))
    return VerificationReport(suite=suite, seed=cfg.seed, cases=ordered)


def _constant(p: Polynomial, order: int) -> HSeries:
    return HSeries.constant(RationalFunction.from_polynomial(p), order)


def _commutator_check(comm: HSeries, ctx: MoyalContext,
                      f0: RationalFunction, g0: RationalFunction) -> Optional[str]:
    """None when the commutator `comm` has no scalar term and h-term i{f0, g0};
    the bracket is taken only once the scalar term vanishes."""
    if not comm.coeffs[0].is_zero():
        return f"scalar term {comm.coeffs[0]}"
    expected = I * poisson_bracket(ctx, f0, g0)
    return None if comm.coeffs[1] == expected else f"h-term {comm.coeffs[1]} != {expected}"


# -- axioms ----------------------------------------------------------------------


def run_axioms(cfg: SuiteConfig) -> VerificationReport:
    vs = ("x", "y")
    ctx = MoyalContext(SymplecticSpace.standard(vs), min(cfg.order, 4))
    one = HSeries.one(vs, ctx.order)

    # the commutator's h-term needs order 1 at least
    comm_ctx = MoyalContext(ctx.space, max(ctx.order, 1))

    def draw(s: SampleStream, order: int = ctx.order) -> HSeries:
        return s.series(vs, order, max_degree=4, h_terms=3)

    def scalar_term(s: SampleStream, k: int) -> Optional[str]:
        f, g = draw(s), draw(s)
        if moyal_star(ctx, f, g).coeffs[0] != f.coeffs[0] * g.coeffs[0]:
            return f"f0 = {f.coeffs[0]}, g0 = {g.coeffs[0]}"
        return None

    def unit_law(s: SampleStream, k: int) -> Optional[str]:
        f = draw(s)
        return None if moyal_star(ctx, one, f) == f == moyal_star(ctx, f, one) else f"f = {f}"

    def commutator_term(s: SampleStream, k: int) -> Optional[str]:
        f, g = draw(s, comm_ctx.order), draw(s, comm_ctx.order)
        return _commutator_check(star_commutator(comm_ctx, f, g), ctx, f.coeffs[0], g.coeffs[0])

    return _run("axioms", cfg, [
        ("scalar", "scalar term of the product equals the pointwise product", scalar_term),
        ("unit", "unit law holds on both sides", unit_law),
        ("commutator", "commutator h-term is i times the bracket of the scalar terms",
         commutator_term),
    ])


# -- poisson ----------------------------------------------------------------------


def run_poisson(cfg: SuiteConfig) -> VerificationReport:
    def rows_on(space: SymplecticSpace, label: str, monomial_den: bool) -> List[tuple]:
        ctx = MoyalContext(space, 0)

        def bracket(f: RationalFunction, g: RationalFunction) -> RationalFunction:
            return poisson_bracket(ctx, f, g)

        def triple(s: SampleStream) -> List[RationalFunction]:
            return [
                s.rational_function(space.vars, 2, 1, monomial_den=monomial_den)
                for _ in range(3)
            ]

        def antisymmetry(s: SampleStream, k: int) -> Optional[str]:
            f, g, _ = triple(s)
            return None if bracket(f, g) == -bracket(g, f) else f"f = {f}, g = {g}"

        def leibniz(s: SampleStream, k: int) -> Optional[str]:
            f, g, h = triple(s)
            if bracket(f, g * h) != bracket(f, g) * h + g * bracket(f, h):
                return f"f = {f}, g = {g}, h = {h}"
            return None

        def jacobi(s: SampleStream, k: int) -> Optional[str]:
            f, g, h = triple(s)
            total = (
                bracket(f, bracket(g, h))
                + bracket(g, bracket(h, f))
                + bracket(h, bracket(f, g))
            )
            return None if total.is_zero() else f"f = {f}, g = {g}, h = {h}"

        return [
            (f"{label}:antisymmetry", f"antisymmetry on the {label} space", antisymmetry),
            (f"{label}:leibniz", f"Leibniz rule on the {label} space", leibniz),
            (f"{label}:jacobi", f"Jacobi identity on the {label} space", jacobi),
        ]

    return _run("poisson", cfg, rows_on(_PLANE, "plane", False) + rows_on(_BLOCK, "block", True))


# -- associativity ------------------------------------------------------------------


def run_associativity(cfg: SuiteConfig) -> VerificationReport:
    vs = ("x", "y")
    space = SymplecticSpace.standard(vs)

    def polynomial_case(s: SampleStream, k: int) -> Optional[str]:
        f, g, h = (s.polynomial(vs, 3) for _ in range(3))
        order = sum(max(p.total_degree(), 0) for p in (f, g, h))
        ctx = MoyalContext(space, order)
        fs, gs, hs = (_constant(p, order) for p in (f, g, h))
        left = moyal_star(ctx, moyal_star(ctx, fs, gs), hs)
        if left != moyal_star(ctx, fs, moyal_star(ctx, gs, hs)):
            return f"f = {f}, g = {g}, h = {h}"
        return None

    def rational_case(s: SampleStream, k: int) -> Optional[str]:
        ctx = MoyalContext(space, cfg.order)
        f, g, h = (HSeries.constant(s.rational_function(vs, 2, 1), cfg.order) for _ in range(3))
        left = moyal_star(ctx, moyal_star(ctx, f, g), h)
        if not hs_equal(left, moyal_star(ctx, f, moyal_star(ctx, g, h)), cfg.order):
            return f"f = {f.coeffs[0]}, g = {g.coeffs[0]}, h = {h.coeffs[0]}"
        return None

    return _run("associativity", cfg, [
        ("poly", "polynomial triples associate exactly at full order", polynomial_case),
        ("rational", f"rational triples associate through order {cfg.order}", rational_case,
         max(1, cfg.samples // 4)),
    ])


# -- equivariance ----------------------------------------------------------------------


def run_equivariance(cfg: SuiteConfig) -> VerificationReport:
    def shear_check(space: SymplecticSpace) -> Callable[[SampleStream, int], Optional[str]]:
        ctx = MoyalContext(space, 4)

        def check(s: SampleStream, k: int) -> Optional[str]:
            G = s.symplectic(space)
            f, g = (_constant(s.polynomial(space.vars, 3), ctx.order) for _ in range(2))
            lhs = moyal_star(ctx, apply_symplectic(ctx, G, f), apply_symplectic(ctx, G, g))
            if lhs != apply_symplectic(ctx, G, moyal_star(ctx, f, g)):
                return f"G = {G.matrix}, f = {f.coeffs[0]}, g = {g.coeffs[0]}"
            return None

        return check

    return _run("equivariance", cfg, [
        ("plane", "shear products act equivariantly on the plane", shear_check(_PLANE)),
        ("block", "shear products act equivariantly on the block space", shear_check(_BLOCK),
         max(1, cfg.samples // 2)),
    ])


# -- lemma1 -----------------------------------------------------------------------------


def run_lemma1(cfg: SuiteConfig) -> VerificationReport:
    ZP = ("z", "p")
    XY = ("x", "y")

    x, y = (RationalFunction.variable(XY, v) for v in XY)
    z, p = (RationalFunction.variable(ZP, v) for v in ZP)
    sb = sigma_bindings(ZP, XY)
    chart_ctx = MoyalContext(SymplecticSpace.cotangent((ZP,)), 0)
    plane_ctx = MoyalContext(SymplecticSpace.standard(XY), 0)

    def pull(F: RationalFunction) -> RationalFunction:
        return sigma_pullback_pair(F, *ZP, *XY)

    def push(E: RationalFunction) -> RationalFunction:
        return pushforward_even_pair(E, *XY, *ZP)

    def form_identity() -> Optional[str]:
        # in two dimensions J^T omega J = det J * omega: comparing the
        # brackets of the coordinates compares the forms
        pulled = poisson_bracket(plane_ctx, sb["z"], sb["p"])
        if pulled != pull(poisson_bracket(chart_ctx, z, p)):
            return f"{{z o sigma, p o sigma}} is {pulled}"
        return None

    def equivariance(s: SampleStream, k: int) -> Optional[str]:
        matrix = s.mobius_det1_matrix()
        (a, b), (c, d) = matrix
        lift_z, lift_p = cotangent_lift(matrix, ZP)
        lhs = (lift_z.substitute(sb), lift_p.substitute(sb))
        linear = {"x": x * a + y * b, "y": x * c + y * d}
        if lhs != (sb["z"].substitute(linear), sb["p"].substitute(linear)):
            return f"matrix = {matrix}"
        return None

    def round_trip(s: SampleStream, k: int) -> Optional[str]:
        F = s.rational_function(ZP, 2, 1)
        if push(pull(F)) != F:
            return f"F = {F}"
        num = s.even_polynomial(XY, 4)
        den = s.even_polynomial(XY, 2)
        if den.is_zero():
            den = Polynomial.one(XY)
        E = RationalFunction(num, den)
        if pull(push(E)) != E:
            return f"E = {E}"
        return None

    def unit_bracket() -> Optional[str]:
        unit = poisson_bracket(chart_ctx, z, p) == RationalFunction.constant(ZP, -1)
        return None if unit else "{z, p} != -1"

    def bracket_compatibility(s: SampleStream, k: int) -> Optional[str]:
        F = s.rational_function(ZP, 2, 1)
        G = s.rational_function(ZP, 2, 1)
        chart_side = poisson_bracket(chart_ctx, F, G)
        plane_side = poisson_bracket(plane_ctx, pull(F), pull(G))
        if chart_side != push(plane_side):
            return f"F = {F}, G = {G}"
        return None

    return _run("lemma1", cfg, [
        ("equivariance", "cover map intertwines the linear and lifted actions", equivariance),
        ("roundtrip", "pushforward and pullback invert each other", round_trip),
        ("bracket", "chart bracket matches the transported plane bracket",
         bracket_compatibility, cfg.samples, unit_bracket),
    ], fixed=[("pullback of the Liouville form is the standard area form", form_identity)])


# -- cocycle ------------------------------------------------------------------------------


def run_cocycle(cfg: SuiteConfig) -> VerificationReport:
    atlas = cfg.atlas if cfg.atlas is not None else standard_cp1_atlas()
    order = min(cfg.order, 4)

    def validity() -> Optional[str]:
        report = atlas_validate(atlas)
        return None if report.valid else "; ".join(report.issues)

    pairs = sorted(
        key for key in atlas.transitions if (key[1], key[0]) in atlas.transitions
    )

    def two_way() -> Optional[str]:
        return None if pairs else "atlas declares no two-way transitions"

    def draw(s: SampleStream, src: str) -> KChartFunction:
        return KChartFunction(src, _constant(s.polynomial(atlas.chart_vars(src), 2), order))

    def independence(s: SampleStream, k: int) -> Optional[str]:
        src, dst = pairs[k % len(pairs)]
        f, g = draw(s, src), draw(s, src)
        if not chart_independence_check(atlas, f, g, dst, order):
            return f"{src}->{dst}, f = {f.value.coeffs[0]}, g = {g.value.coeffs[0]}"
        return None

    def round_trip(s: SampleStream, k: int) -> Optional[str]:
        src, dst = pairs[k % len(pairs)]
        f = draw(s, src)
        back = transport(atlas, transport(atlas, f, dst), src)
        return None if back.value == f.value else f"{src}->{dst}->{src}, f = {f.value.coeffs[0]}"

    return _run("cocycle", cfg, [
        ("independence", "transport commutes with the glued star product", independence,
         cfg.samples, two_way),
        ("roundtrip", "transport round trips are the identity", round_trip, cfg.samples, two_way),
    ], fixed=[("atlas validates cleanly", validity)])


# -- evenness ------------------------------------------------------------------------------


def run_evenness(cfg: SuiteConfig) -> VerificationReport:
    XY = ("x", "y")
    ctx = MoyalContext(SymplecticSpace.standard(XY), 4)

    def even_product(s: SampleStream) -> HSeries:
        f, g = (_constant(s.even_polynomial(XY, 4), ctx.order) for _ in range(2))
        return moyal_star(ctx, f, g)

    def closure(s: SampleStream, k: int) -> Optional[str]:
        for power, coeff in enumerate(even_product(s).coeffs):
            if not is_even(coeff):
                return f"h^{power} term {coeff} is odd"
        return None

    def pushforward_total(s: SampleStream, k: int) -> Optional[str]:
        product = even_product(s)
        try:
            for coeff in product.coeffs:
                pushforward_even_pair(coeff, "x", "y", "z", "p")
        except NotEven as exc:
            return str(exc)
        return None

    return _run("evenness", cfg, [
        ("closure", "star of even pairs has even coefficients", closure),
        ("pushforward", "every coefficient pushes forward to the chart", pushforward_total),
    ])


# -- symmetric -------------------------------------------------------------------------------


def run_symmetric(cfg: SuiteConfig) -> VerificationReport:
    ctx = ProductContext(d=cfg.d, r=cfg.r, order=2)
    vs = ctx.vars

    def random_series(s: SampleStream) -> HSeries:
        return _constant(s.polynomial(vs, 3), ctx.order)

    def fixed(f: HSeries) -> bool:  # under each adjacent transposition, through permute
        return all(permute(ctx, (*range(1, t), t + 1, t, *range(t + 2, ctx.d + 1)), f) == f
                   for t in range(1, ctx.d))

    def idempotent(s: SampleStream, k: int) -> Optional[str]:
        f = random_series(s)
        once = symmetrize(ctx, f).value
        ok = fixed(once) and once == symmetrize(ctx, once).value
        return None if ok else f"f = {f.coeffs[0]}"

    def invariant_output(s: SampleStream, k: int) -> Optional[str]:
        f = random_series(s)
        once = symmetrize(ctx, f).value
        ok = is_invariant(ctx, once) and fixed(once) and is_invariant(ctx, f) == fixed(f)
        return None if ok else f"f = {f.coeffs[0]}"

    def composition(s: SampleStream, k: int) -> Optional[str]:
        f = random_series(s)
        sigma = s.permutation(ctx.d)
        tau = s.permutation(ctx.d)
        combined = tuple(sigma[tau[i - 1] - 1] for i in range(1, ctx.d + 1))
        if permute(ctx, sigma, permute(ctx, tau, f)) != permute(ctx, combined, f):
            return f"sigma = {sigma}, tau = {tau}"
        return None

    def divisor_invariance(s: SampleStream, k: int) -> Optional[str]:
        support = []
        while len(support) < ctx.d:
            value = s.gaussian()
            if value not in support:
                support.append(value)
        covectors = []
        while len(covectors) < ctx.d:
            value = s.gaussian()
            if not value.is_zero():
                covectors.append(value)
        flat = tuple((s.gaussian(), s.gaussian()) for _ in range(ctx.d * (ctx.r - 1)))
        pt = QuotCellPoint(tuple(support), tuple(covectors), flat)
        perm = s.permutation(ctx.d)
        shuffled = QuotCellPoint(
            tuple(support[perm[i] - 1] for i in range(ctx.d)),
            tuple(covectors[perm[i] - 1] for i in range(ctx.d)),
            flat,
        )
        if support_divisor(pt) != support_divisor(shuffled):
            return f"support = {[str(v) for v in support]}"
        return None

    def detects_asymmetry() -> Optional[str]:
        zs = [HSeries.variable(vs, z, ctx.order) for z, _ in ctx.chart_pairs]
        if is_invariant(ctx, zs[0] - zs[1]):
            return "z1 - z2 passed the invariance check"
        if not is_invariant(ctx, sum(zs[1:], zs[0])):
            return f"{' + '.join(z for z, _ in ctx.chart_pairs)} failed the invariance check"
        return None

    # at d = 1 every series is symmetric, so the asymmetry case would check nothing
    return _run("symmetric", cfg, [
        ("idempotent", "symmetrization is idempotent", idempotent),
        ("invariant", "symmetrized series pass the invariance check", invariant_output),
        ("composition", "permutation action composes", composition),
        ("divisor", "support divisor ignores ordering", divisor_invariance),
    ], fixed=[("asymmetric series are detected", detects_asymmetry)] if ctx.d >= 2 else [])


# -- theorem1 ---------------------------------------------------------------------------------


def run_theorem1(cfg: SuiteConfig) -> VerificationReport:
    order = min(cfg.order, 4)
    ctx = ProductContext(d=cfg.d, r=cfg.r, order=order)
    vs = ctx.vars
    block_ctx = MoyalContext(ctx.space, order)
    # the commutator's h-term needs order 1 at least
    comm_ctx = ProductContext(d=cfg.d, r=cfg.r, order=max(order, 1))
    one = SymSeries(HSeries.one(vs, order))

    def star(f: SymSeries, g: SymSeries) -> SymSeries:
        return quot_cell_star(ctx, f, g)

    def invariant_series(s: SampleStream, n: int = order) -> SymSeries:
        while True:
            candidate = symmetrize(ctx, _constant(s.polynomial(vs, 2), n))
            if not candidate.value.is_zero():
                return candidate

    def closure(s: SampleStream, k: int) -> Optional[str]:
        f, g = invariant_series(s), invariant_series(s)
        if not is_invariant(ctx, star(f, g).value):
            return f"f = {f.value.coeffs[0]}, g = {g.value.coeffs[0]}"
        return None

    def scalar_term(s: SampleStream, k: int) -> Optional[str]:
        f, g = invariant_series(s), invariant_series(s)
        product = star(f, g).value.coeffs[0]
        return None if product == f.value.coeffs[0] * g.value.coeffs[0] else ""

    def unit_law(s: SampleStream, k: int) -> Optional[str]:
        f = invariant_series(s)
        if star(one, f).value != f.value or star(f, one).value != f.value:
            return f"f = {f.value.coeffs[0]}"
        return None

    def commutator(s: SampleStream, k: int) -> Optional[str]:
        f, g = (invariant_series(s, comm_ctx.order) for _ in range(2))
        comm = quot_cell_star(comm_ctx, f, g).value - quot_cell_star(comm_ctx, g, f).value
        return _commutator_check(comm, block_ctx, f.value.coeffs[0], g.value.coeffs[0])

    def associativity(s: SampleStream, k: int) -> Optional[str]:
        f, g, h = (invariant_series(s) for _ in range(3))
        left = star(star(f, g), h).value
        return None if hs_equal(left, star(f, star(g, h)).value, order) else ""

    def cross_factor(s: SampleStream, k: int) -> Optional[str]:
        f_small = s.polynomial(("z1", "p1"), 2).with_variables(vs)
        g_small = s.polynomial(("z2", "p2"), 2).with_variables(vs)
        f, g = _constant(f_small, order), _constant(g_small, order)
        plain = _constant(f_small * g_small, order)
        if product_star(ctx, f, g) != plain or product_star(ctx, g, f) != plain:
            return f"f = {f_small}, g = {g_small}"
        return None

    # at d = 1 there are no disjoint factors, so the cross case would check nothing
    return _run("theorem1", cfg, [
        ("closure", "cell star of invariant pairs stays invariant", closure),
        ("scalar", "scalar term equals the pointwise product", scalar_term),
        ("unit", "unit law holds on both sides", unit_law),
        ("commutator", "commutator h-term matches the block bracket", commutator),
        ("associativity", f"cell star associates through order {order}", associativity,
         min(20, cfg.samples)),
    ] + ([("cross", "operands on disjoint factors commute exactly", cross_factor)]
          if ctx.d >= 2 else []))


SUITES: Dict[str, Callable[[SuiteConfig], VerificationReport]] = {
    "axioms": run_axioms,
    "poisson": run_poisson,
    "associativity": run_associativity,
    "equivariance": run_equivariance,
    "lemma1": run_lemma1,
    "cocycle": run_cocycle,
    "evenness": run_evenness,
    "symmetric": run_symmetric,
    "theorem1": run_theorem1,
}


def run_suite(name: str, cfg: SuiteConfig) -> VerificationReport:
    runner = SUITES.get(name)
    if runner is None:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    return runner(cfg)
