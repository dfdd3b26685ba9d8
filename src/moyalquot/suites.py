"""Seeded verification suites binding all modules into reproducible reports.

Each suite runs a fixed list of named cases; a case loops over its samples
and records the first counterexample.  Reports are deterministic functions
of (seed, size flags): cases are sorted by description before rendering, so
the output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .atlas import (
    KChartFunction,
    ProjectiveAtlas,
    atlas_validate,
    chart_independence_check,
    standard_cp1_atlas,
    transport,
)
from .errors import MoyalQuotError, NotEven, UnknownSuite, UsageFailure
from .gaussian import GaussianRational
from .geometry import (
    EvenFunction,
    is_even,
    liouville_symplectic,
    MobiusMap,
    cotangent_lift,
    pullback_form,
    pushforward_even_pair,
    sigma_bindings,
    sigma_pullback,
    sigma_pushforward,
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

I = GaussianRational(0, 1)


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

    def resolved_atlas(self) -> ProjectiveAtlas:
        return self.atlas if self.atlas is not None else standard_cp1_atlas()


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
            "cases": [
                {
                    "description": c.description,
                    "passed": c.passed,
                    "counterexample": c.counterexample,
                }
                for c in self.cases
            ],
            "totals": {"passed": self.passed_count, "failed": self.failed_count},
        }


def _report(suite: str, cfg: SuiteConfig, cases: List[CaseResult]) -> VerificationReport:
    ordered = tuple(sorted(cases, key=lambda c: c.description))
    return VerificationReport(suite=suite, seed=cfg.seed, cases=ordered)


def _case(description: str, check: Callable[[], Optional[str]]) -> CaseResult:
    try:
        counterexample = check()
    except MoyalQuotError as exc:
        counterexample = f"{type(exc).__name__}: {exc}"
    if counterexample is None:
        return CaseResult(description, True)
    return CaseResult(description, False, counterexample)


# -- axioms ----------------------------------------------------------------------


def run_axioms(cfg: SuiteConfig) -> VerificationReport:
    vs = ("x", "y")
    space = SymplecticSpace.standard(vs)
    ctx = MoyalContext(space, min(cfg.order, 4))

    def stream(label: str) -> SampleStream:
        return SampleStream(f"{cfg.seed}:axioms:{label}")

    def pairs(label: str):
        s = stream(label)
        for k in range(cfg.samples):
            f = s.series(vs, ctx.order, max_degree=4, h_terms=3)
            g = s.series(vs, ctx.order, max_degree=4, h_terms=3)
            yield k, f, g

    def scalar_term() -> Optional[str]:
        for k, f, g in pairs("scalar"):
            product = moyal_star(ctx, f, g)
            if product.coeffs[0] != f.coeffs[0] * g.coeffs[0]:
                return f"sample {k}: f0 = {f.coeffs[0]}, g0 = {g.coeffs[0]}"
        return None

    def unit_law() -> Optional[str]:
        one = HSeries.one(vs, ctx.order)
        s = stream("unit")
        for k in range(cfg.samples):
            f = s.series(vs, ctx.order, max_degree=4, h_terms=3)
            if moyal_star(ctx, one, f) != f or moyal_star(ctx, f, one) != f:
                return f"sample {k}: f = {f}"
        return None

    def commutator_term() -> Optional[str]:
        for k, f, g in pairs("commutator"):
            comm = star_commutator(ctx, f, g)
            if not comm.coeffs[0].is_zero():
                return f"sample {k}: scalar term {comm.coeffs[0]}"
            expected = I * poisson_bracket(ctx, f.coeffs[0], g.coeffs[0])
            if comm.coeffs[1] != expected:
                return f"sample {k}: h-term {comm.coeffs[1]} != {expected}"
        return None

    cases = [
        _case(
            f"scalar term of the product equals the pointwise product ({cfg.samples} samples)",
            scalar_term,
        ),
        _case(f"unit law holds on both sides ({cfg.samples} samples)", unit_law),
        _case(
            f"commutator h-term is i times the bracket of the scalar terms ({cfg.samples} samples)",
            commutator_term,
        ),
    ]
    return _report("axioms", cfg, cases)


# -- poisson ----------------------------------------------------------------------


def run_poisson(cfg: SuiteConfig) -> VerificationReport:
    plane = SymplecticSpace.standard(("x", "y"))
    block = SymplecticSpace.standard(("x1", "y1", "x2", "y2"))
    cases: List[CaseResult] = []

    for space, label, monomial_den in ((plane, "plane", False), (block, "block", True)):
        ctx = MoyalContext(space, 0)

        def triples(case: str):
            s = SampleStream(f"{cfg.seed}:poisson:{label}:{case}")
            for k in range(cfg.samples):
                f = s.rational_function(space.vars, 2, 1, monomial_den=monomial_den)
                g = s.rational_function(space.vars, 2, 1, monomial_den=monomial_den)
                h = s.rational_function(space.vars, 2, 1, monomial_den=monomial_den)
                yield k, f, g, h

        def antisymmetry(ts=triples) -> Optional[str]:
            for k, f, g, _ in ts("antisymmetry"):
                if poisson_bracket(ctx, f, g) != -poisson_bracket(ctx, g, f):
                    return f"sample {k}: f = {f}, g = {g}"
            return None

        def leibniz(ts=triples, c=ctx) -> Optional[str]:
            for k, f, g, h in ts("leibniz"):
                lhs = poisson_bracket(c, f, g * h)
                rhs = poisson_bracket(c, f, g) * h + g * poisson_bracket(c, f, h)
                if lhs != rhs:
                    return f"sample {k}: f = {f}, g = {g}, h = {h}"
            return None

        def jacobi(ts=triples, c=ctx) -> Optional[str]:
            for k, f, g, h in ts("jacobi"):
                total = (
                    poisson_bracket(c, f, poisson_bracket(c, g, h))
                    + poisson_bracket(c, g, poisson_bracket(c, h, f))
                    + poisson_bracket(c, h, poisson_bracket(c, f, g))
                )
                if not total.is_zero():
                    return f"sample {k}: f = {f}, g = {g}, h = {h}"
            return None

        cases.append(
            _case(f"antisymmetry on the {label} space ({cfg.samples} samples)", antisymmetry)
        )
        cases.append(_case(f"Leibniz rule on the {label} space ({cfg.samples} samples)", leibniz))
        cases.append(
            _case(f"Jacobi identity on the {label} space ({cfg.samples} samples)", jacobi)
        )
    return _report("poisson", cfg, cases)


# -- associativity ------------------------------------------------------------------


def run_associativity(cfg: SuiteConfig) -> VerificationReport:
    vs = ("x", "y")
    space = SymplecticSpace.standard(vs)

    def polynomial_case() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:associativity:poly")
        for k in range(cfg.samples):
            f = s.polynomial(vs, 3)
            g = s.polynomial(vs, 3)
            h = s.polynomial(vs, 3)
            order = max(
                f.total_degree(), 0
            ) + max(g.total_degree(), 0) + max(h.total_degree(), 0)
            ctx = MoyalContext(space, order)
            fs = HSeries.constant(RationalFunction.from_polynomial(f), order)
            gs = HSeries.constant(RationalFunction.from_polynomial(g), order)
            hs = HSeries.constant(RationalFunction.from_polynomial(h), order)
            left = moyal_star(ctx, moyal_star(ctx, fs, gs), hs)
            right = moyal_star(ctx, fs, moyal_star(ctx, gs, hs))
            if left != right:
                return f"sample {k}: f = {f}, g = {g}, h = {h}"
        return None

    rational_samples = max(1, cfg.samples // 4)

    def rational_case() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:associativity:rational")
        ctx = MoyalContext(space, cfg.order)
        for k in range(rational_samples):
            f = HSeries.constant(s.rational_function(vs, 2, 1), cfg.order)
            g = HSeries.constant(s.rational_function(vs, 2, 1), cfg.order)
            h = HSeries.constant(s.rational_function(vs, 2, 1), cfg.order)
            left = moyal_star(ctx, moyal_star(ctx, f, g), h)
            right = moyal_star(ctx, f, moyal_star(ctx, g, h))
            if not hs_equal(left, right, cfg.order):
                return f"sample {k}: f = {f.coeffs[0]}, g = {g.coeffs[0]}, h = {h.coeffs[0]}"
        return None

    cases = [
        _case(
            f"polynomial triples associate exactly at full order ({cfg.samples} samples)",
            polynomial_case,
        ),
        _case(
            f"rational triples associate through order {cfg.order} ({rational_samples} samples)",
            rational_case,
        ),
    ]
    return _report("associativity", cfg, cases)


# -- equivariance ----------------------------------------------------------------------


def run_equivariance(cfg: SuiteConfig) -> VerificationReport:
    def check_on(space: SymplecticSpace, label: str, samples: int) -> Optional[str]:
        ctx = MoyalContext(space, 4)
        s = SampleStream(f"{cfg.seed}:equivariance:{label}")
        for k in range(samples):
            G = s.symplectic(space)
            f = HSeries.constant(
                RationalFunction.from_polynomial(s.polynomial(space.vars, 3)), ctx.order
            )
            g = HSeries.constant(
                RationalFunction.from_polynomial(s.polynomial(space.vars, 3)), ctx.order
            )
            lhs = moyal_star(ctx, apply_symplectic(ctx, G, f), apply_symplectic(ctx, G, g))
            rhs = apply_symplectic(ctx, G, moyal_star(ctx, f, g))
            if lhs != rhs:
                return f"sample {k}: G = {G.matrix}, f = {f.coeffs[0]}, g = {g.coeffs[0]}"
        return None

    plane = SymplecticSpace.standard(("x", "y"))
    block = SymplecticSpace.standard(("x1", "y1", "x2", "y2"))
    block_samples = max(1, cfg.samples // 2)
    cases = [
        _case(
            f"shear products act equivariantly on the plane ({cfg.samples} samples)",
            lambda: check_on(plane, "plane", cfg.samples),
        ),
        _case(
            f"shear products act equivariantly on the block space ({block_samples} samples)",
            lambda: check_on(block, "block", block_samples),
        ),
    ]
    return _report("equivariance", cfg, cases)


# -- lemma1 -----------------------------------------------------------------------------


def run_lemma1(cfg: SuiteConfig) -> VerificationReport:
    ZP = ("z", "p")
    XY = ("x", "y")

    def form_identity() -> Optional[str]:
        pulled = pullback_form(liouville_symplectic(ZP), sigma_bindings(ZP, XY))
        area = pulled.coefficient("x", "y")
        if pulled.degree != 2 or area != RationalFunction.one(XY):
            return f"pullback is {pulled}"
        if len(pulled.coeffs) != 1:
            return f"pullback has extra components: {pulled}"
        return None

    def equivariance() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:lemma1:equivariance")
        x = RationalFunction.variable(XY, "x")
        y = RationalFunction.variable(XY, "y")
        sb = sigma_bindings(ZP, XY)
        for k in range(cfg.samples):
            matrix = s.mobius_det1_matrix()
            (a, b), (c, d) = matrix
            lift_z, lift_p = cotangent_lift(MobiusMap(matrix), ZP)
            lhs = (lift_z.substitute(sb), lift_p.substitute(sb))
            linear = {"x": x * a + y * b, "y": x * c + y * d}
            rhs = (sb["z"].substitute(linear), sb["p"].substitute(linear))
            if lhs != rhs:
                return f"sample {k}: matrix = {matrix}"
        return None

    def round_trip() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:lemma1:roundtrip")
        for k in range(cfg.samples):
            F = s.rational_function(ZP, 2, 1)
            if sigma_pushforward(sigma_pullback(F, ZP, XY), ZP) != F:
                return f"sample {k}: F = {F}"
            num = s.even_polynomial(XY, 4)
            den = s.even_polynomial(XY, 2)
            if den.is_zero():
                den = Polynomial.one(XY)
            E = EvenFunction(RationalFunction(num, den))
            if sigma_pullback(sigma_pushforward(E, ZP), ZP, XY) != E:
                return f"sample {k}: E = {E.value}"
        return None

    def bracket_compatibility() -> Optional[str]:
        chart_space = SymplecticSpace.block([("z", "p", -1)])
        chart_ctx = MoyalContext(chart_space, 0)
        plane_ctx = MoyalContext(SymplecticSpace.standard(XY), 0)
        z = RationalFunction.variable(ZP, "z")
        p = RationalFunction.variable(ZP, "p")
        if poisson_bracket(chart_ctx, z, p) != RationalFunction.constant(ZP, -1):
            return "{z, p} != -1"
        s = SampleStream(f"{cfg.seed}:lemma1:bracket")
        for k in range(cfg.samples):
            F = s.rational_function(ZP, 2, 1)
            G = s.rational_function(ZP, 2, 1)
            chart_side = poisson_bracket(chart_ctx, F, G)
            plane_side = poisson_bracket(
                plane_ctx,
                sigma_pullback(F, ZP, XY).value,
                sigma_pullback(G, ZP, XY).value,
            )
            if chart_side != sigma_pushforward(EvenFunction(plane_side), ZP):
                return f"sample {k}: F = {F}, G = {G}"
        return None

    cases = [
        _case("pullback of the Liouville form is the standard area form", form_identity),
        _case(
            f"cover map intertwines the linear and lifted actions ({cfg.samples} samples)",
            equivariance,
        ),
        _case(
            f"pushforward and pullback invert each other ({cfg.samples} samples)", round_trip
        ),
        _case(
            f"chart bracket matches the transported plane bracket ({cfg.samples} samples)",
            bracket_compatibility,
        ),
    ]
    return _report("lemma1", cfg, cases)


# -- cocycle ------------------------------------------------------------------------------


def run_cocycle(cfg: SuiteConfig) -> VerificationReport:
    atlas = cfg.resolved_atlas()
    order = min(cfg.order, 4)

    def validity() -> Optional[str]:
        report = atlas_validate(atlas)
        return None if report.valid else "; ".join(report.issues)

    pairs = sorted(
        key for key in atlas.transitions if (key[1], key[0]) in atlas.transitions
    )

    def independence() -> Optional[str]:
        if not pairs:
            return "atlas declares no two-way transitions"
        s = SampleStream(f"{cfg.seed}:cocycle:independence")
        for k in range(cfg.samples):
            src, dst = pairs[k % len(pairs)]
            vs = atlas.chart_vars(src)
            f = KChartFunction(src, HSeries.constant(
                RationalFunction.from_polynomial(s.polynomial(vs, 2)), order))
            g = KChartFunction(src, HSeries.constant(
                RationalFunction.from_polynomial(s.polynomial(vs, 2)), order))
            if not chart_independence_check(atlas, f, g, dst, order):
                return f"sample {k}: {src}->{dst}, f = {f.value.coeffs[0]}, g = {g.value.coeffs[0]}"
        return None

    def round_trip() -> Optional[str]:
        if not pairs:
            return "atlas declares no two-way transitions"
        s = SampleStream(f"{cfg.seed}:cocycle:roundtrip")
        for k in range(cfg.samples):
            src, dst = pairs[k % len(pairs)]
            vs = atlas.chart_vars(src)
            f = KChartFunction(src, HSeries.constant(
                RationalFunction.from_polynomial(s.polynomial(vs, 2)), order))
            back = transport(atlas, transport(atlas, f, dst), src)
            if back.value != f.value:
                return f"sample {k}: {src}->{dst}->{src}, f = {f.value.coeffs[0]}"
        return None

    cases = [
        _case("atlas validates cleanly", validity),
        _case(
            f"transport commutes with the glued star product ({cfg.samples} samples)",
            independence,
        ),
        _case(f"transport round trips are the identity ({cfg.samples} samples)", round_trip),
    ]
    return _report("cocycle", cfg, cases)


# -- evenness ------------------------------------------------------------------------------


def run_evenness(cfg: SuiteConfig) -> VerificationReport:
    XY = ("x", "y")
    space = SymplecticSpace.standard(XY)
    ctx = MoyalContext(space, 4)

    def closure() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:evenness:closure")
        for k in range(cfg.samples):
            f = HSeries.constant(
                RationalFunction.from_polynomial(s.even_polynomial(XY, 4)), ctx.order
            )
            g = HSeries.constant(
                RationalFunction.from_polynomial(s.even_polynomial(XY, 4)), ctx.order
            )
            product = moyal_star(ctx, f, g)
            for power, coeff in enumerate(product.coeffs):
                if not is_even(coeff):
                    return f"sample {k}: h^{power} term {coeff} is odd"
        return None

    def pushforward_total() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:evenness:pushforward")
        for k in range(cfg.samples):
            f = HSeries.constant(
                RationalFunction.from_polynomial(s.even_polynomial(XY, 4)), ctx.order
            )
            g = HSeries.constant(
                RationalFunction.from_polynomial(s.even_polynomial(XY, 4)), ctx.order
            )
            product = moyal_star(ctx, f, g)
            try:
                for coeff in product.coeffs:
                    pushforward_even_pair(coeff, "x", "y", "z", "p")
            except NotEven as exc:
                return f"sample {k}: {exc}"
        return None

    cases = [
        _case(
            f"star of even pairs has even coefficients ({cfg.samples} samples)", closure
        ),
        _case(
            f"every coefficient pushes forward to the chart ({cfg.samples} samples)",
            pushforward_total,
        ),
    ]
    return _report("evenness", cfg, cases)


# -- symmetric -------------------------------------------------------------------------------


def run_symmetric(cfg: SuiteConfig) -> VerificationReport:
    ctx = ProductContext(d=cfg.d, r=cfg.r, order=2)
    vs = ctx.vars

    def random_series(s: SampleStream) -> HSeries:
        return HSeries.constant(
            RationalFunction.from_polynomial(s.polynomial(vs, 3)), ctx.order
        )

    def idempotent() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:symmetric:idempotent")
        for k in range(cfg.samples):
            f = random_series(s)
            once = symmetrize(ctx, f)
            twice = symmetrize(ctx, once.value)
            if once.value != twice.value:
                return f"sample {k}: f = {f.coeffs[0]}"
        return None

    def invariant_output() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:symmetric:invariant")
        for k in range(cfg.samples):
            f = random_series(s)
            if not is_invariant(ctx, symmetrize(ctx, f).value):
                return f"sample {k}: f = {f.coeffs[0]}"
        return None

    def composition() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:symmetric:composition")
        for k in range(cfg.samples):
            f = random_series(s)
            sigma = s.permutation(ctx.d)
            tau = s.permutation(ctx.d)
            combined = tuple(sigma[tau[i - 1] - 1] for i in range(1, ctx.d + 1))
            if permute(ctx, sigma, permute(ctx, tau, f)) != permute(ctx, combined, f):
                return f"sample {k}: sigma = {sigma}, tau = {tau}"
        return None

    def divisor_invariance() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:symmetric:divisor")
        for k in range(cfg.samples):
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
                return f"sample {k}: support = {[str(v) for v in support]}"
        return None

    def detects_asymmetry() -> Optional[str]:
        if ctx.d == 1:
            return None
        zs = [HSeries.variable(vs, z, ctx.order) for z, _ in ctx.chart_pairs]
        if is_invariant(ctx, zs[0] - zs[1]):
            return "z1 - z2 passed the invariance check"
        if not is_invariant(ctx, sum(zs[1:], zs[0])):
            return f"{' + '.join(z for z, _ in ctx.chart_pairs)} failed the invariance check"
        return None

    cases = [
        _case(f"symmetrization is idempotent ({cfg.samples} samples)", idempotent),
        _case(
            f"symmetrized series pass the invariance check ({cfg.samples} samples)",
            invariant_output,
        ),
        _case(f"permutation action composes ({cfg.samples} samples)", composition),
        _case(f"support divisor ignores ordering ({cfg.samples} samples)", divisor_invariance),
        _case("asymmetric series are detected", detects_asymmetry),
    ]
    return _report("symmetric", cfg, cases)


# -- theorem1 ---------------------------------------------------------------------------------


def run_theorem1(cfg: SuiteConfig) -> VerificationReport:
    order = min(cfg.order, 4)
    ctx = ProductContext(d=cfg.d, r=cfg.r, order=order)
    vs = ctx.vars
    block_ctx = MoyalContext(ctx.block_space(), order)

    def invariant_series(s: SampleStream, degree: int = 2) -> SymSeries:
        while True:
            candidate = symmetrize(
                ctx,
                HSeries.constant(
                    RationalFunction.from_polynomial(s.polynomial(vs, degree)), order
                ),
            )
            if not candidate.value.is_zero():
                return candidate

    def closure() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:theorem1:closure")
        for k in range(cfg.samples):
            f = invariant_series(s)
            g = invariant_series(s)
            result = quot_cell_star(ctx, f, g)
            if not is_invariant(ctx, result.value):
                return f"sample {k}: f = {f.value.coeffs[0]}, g = {g.value.coeffs[0]}"
        return None

    def scalar_term() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:theorem1:scalar")
        for k in range(cfg.samples):
            f = invariant_series(s)
            g = invariant_series(s)
            product = quot_cell_star(ctx, f, g)
            if product.value.coeffs[0] != f.value.coeffs[0] * g.value.coeffs[0]:
                return f"sample {k}"
        return None

    def unit_law() -> Optional[str]:
        one = SymSeries(HSeries.one(vs, order))
        s = SampleStream(f"{cfg.seed}:theorem1:unit")
        for k in range(cfg.samples):
            f = invariant_series(s)
            if (
                quot_cell_star(ctx, one, f).value != f.value
                or quot_cell_star(ctx, f, one).value != f.value
            ):
                return f"sample {k}: f = {f.value.coeffs[0]}"
        return None

    def commutator() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:theorem1:commutator")
        for k in range(cfg.samples):
            f = invariant_series(s)
            g = invariant_series(s)
            comm = quot_cell_star(ctx, f, g).value - quot_cell_star(ctx, g, f).value
            if not comm.coeffs[0].is_zero():
                return f"sample {k}: scalar term {comm.coeffs[0]}"
            expected = I * poisson_bracket(block_ctx, f.value.coeffs[0], g.value.coeffs[0])
            if comm.coeffs[1] != expected:
                return f"sample {k}: h-term {comm.coeffs[1]} != {expected}"
        return None

    assoc_samples = min(20, cfg.samples)

    def associativity() -> Optional[str]:
        s = SampleStream(f"{cfg.seed}:theorem1:associativity")
        for k in range(assoc_samples):
            f = invariant_series(s)
            g = invariant_series(s)
            h = invariant_series(s)
            left = quot_cell_star(ctx, quot_cell_star(ctx, f, g), h)
            right = quot_cell_star(ctx, f, quot_cell_star(ctx, g, h))
            if not hs_equal(left.value, right.value, order):
                return f"sample {k}"
        return None

    def cross_factor() -> Optional[str]:
        if ctx.d < 2:
            return None
        s = SampleStream(f"{cfg.seed}:theorem1:cross")
        sub1 = ("z1", "p1")
        sub2 = ("z2", "p2")
        for k in range(cfg.samples):
            f_small = s.polynomial(sub1, 2).with_variables(vs)
            g_small = s.polynomial(sub2, 2).with_variables(vs)
            f = HSeries.constant(RationalFunction.from_polynomial(f_small), order)
            g = HSeries.constant(RationalFunction.from_polynomial(g_small), order)
            fg = product_star(ctx, f, g)
            gf = product_star(ctx, g, f)
            plain = HSeries.constant(
                RationalFunction.from_polynomial(f_small * g_small), order
            )
            if fg != plain or gf != plain:
                return f"sample {k}: f = {f_small}, g = {g_small}"
        return None

    cases = [
        _case(
            f"cell star of invariant pairs stays invariant ({cfg.samples} samples)", closure
        ),
        _case(
            f"scalar term equals the pointwise product ({cfg.samples} samples)", scalar_term
        ),
        _case(f"unit law holds on both sides ({cfg.samples} samples)", unit_law),
        _case(
            f"commutator h-term matches the block bracket ({cfg.samples} samples)", commutator
        ),
        _case(
            f"cell star associates through order {order} ({assoc_samples} samples)",
            associativity,
        ),
        _case(
            f"operands on disjoint factors commute exactly ({cfg.samples} samples)",
            cross_factor,
        ),
    ]
    return _report("theorem1", cfg, cases)


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
