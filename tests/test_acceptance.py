"""Acceptance suite: every criterion at its stated size and time budget.

Each test prints one PASS line (visible with `pytest -s`) carrying the
elapsed time.  All comparisons are exact equalities of canonical
rational-function representations; there are no numeric tolerances anywhere.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.series import HSeries
from moyalquot.atlas import KChartFunction, star_on_K
from moyalquot.geometry import sigma_bindings
from moyalquot.moyal import MoyalContext, SymplecticSpace, moyal_star
from moyalquot.suites import SuiteConfig, run_suite

from oracles import star_2d_oracle

GOLDEN = Path(__file__).parent / "golden"
I = GaussianRational(0, 1)


def run_budgeted(name, cfg, budget, label):
    start = time.perf_counter()
    report = run_suite(name, cfg)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.ok and elapsed < budget else "FAIL"
    print(f"{status} {label} ({elapsed:.1f}s / {budget}s)")
    assert report.ok, report.render_text()
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_star_axioms_flat2_200_pairs():
    # scalar term, unit law both sides, first-order commutator = i{f0, g0}
    run_budgeted(
        "axioms",
        SuiteConfig(seed=1, samples=200),
        30,
        "star axioms on the plane, 200 seeded pairs, exact",
    )


def test_poisson_axioms_plane_and_block():
    run_budgeted(
        "poisson",
        SuiteConfig(seed=2, samples=100),
        30,
        "Poisson antisymmetry/Leibniz/Jacobi on 2- and 4-dim spaces, 100 triples each",
    )


def test_star_associativity():
    # 100 polynomial triples exactly at full order, 25 rational triples at order 6
    run_budgeted(
        "associativity",
        SuiteConfig(seed=3, samples=100, order=6),
        120,
        "star associativity, 100 polynomial + 25 rational triples",
    )


def test_linear_symplectic_equivariance():
    run_budgeted(
        "equivariance",
        SuiteConfig(seed=4, samples=100),
        60,
        "equivariance under 100 seeded shear products",
    )


def test_cover_map_identities():
    # form pullback identity plus 100 seeded intertwining checks
    run_budgeted(
        "lemma1",
        SuiteConfig(seed=5, samples=100),
        30,
        "cover-map form identity and 100 equivariance samples",
    )


def test_evenness_closure():
    run_budgeted(
        "evenness",
        SuiteConfig(seed=6, samples=100),
        30,
        "evenness closure of the star product, 100 seeded even pairs",
    )


def test_chart_independence_standard_atlas():
    run_budgeted(
        "cocycle",
        SuiteConfig(seed=7, samples=50, order=4),
        120,
        "chart independence on the standard atlas, 50 seeded pairs at order 4",
    )


def test_quot_cell_assembly():
    # invariance closure on 50 pairs, the four product axioms, and
    # associativity on 20 invariant triples, at d = 2, r = 2, order 4
    run_budgeted(
        "theorem1",
        SuiteConfig(seed=8, samples=50, order=4, d=2, r=2),
        300,
        "quot-cell star assembly at d=2, r=2, order 4",
    )


# -- golden star values -----------------------------------------------------------

XY = ("x", "y")
ZP = ("z", "p")


def _cli(*argv: str) -> str:
    env = dict(os.environ)
    env.pop("MOYALQUOT_ORDER", None)
    result = subprocess.run(
        [sys.executable, "-m", "moyalquot", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _flat2_oracle(f: Polynomial, g: Polynomial) -> HSeries:
    return star_2d_oracle(
        RationalFunction.from_polynomial(f), RationalFunction.from_polynomial(g), 4
    )


def test_golden_flat2_values():
    start = time.perf_counter()
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    ctx = MoyalContext(SymplecticSpace.standard(XY), 4)

    for f, g, golden in (
        (x, y, "star_flat2_x_y.txt"),
        (x * x, y * y, "star_flat2_x2_y2.txt"),
    ):
        expected = _flat2_oracle(f, g)
        got = moyal_star(
            ctx,
            HSeries.constant(RationalFunction.from_polynomial(f), 4),
            HSeries.constant(RationalFunction.from_polynomial(g), 4),
        )
        assert got == expected
        assert _cli("star", "--space", "flat2", "--order", "4", str(f), str(g)) == (
            GOLDEN / golden
        ).read_text()
    # the first golden value, spelled out
    assert (GOLDEN / "star_flat2_x_y.txt").read_text() == "x*y + (1/2)*i*h\n"
    print(f"PASS golden plane star values ({time.perf_counter() - start:.1f}s)")


def test_golden_kchart_values():
    start = time.perf_counter()
    z = RationalFunction.variable(ZP, "z")
    p = RationalFunction.variable(ZP, "p")
    zero = RationalFunction.zero(ZP)

    # hand-derived expected series
    expected_zp = HSeries([z * p, RationalFunction.constant(ZP, I * -1 / 2), zero, zero, zero])
    expected_z2p = HSeries(
        [z * z * p, -I * z, RationalFunction.constant(ZP, -1) / (p * 8), zero, zero]
    )

    # cross-check the hand values against the independent plane oracle:
    # pulling the expected coefficients through the cover must reproduce the
    # binomial-form star of the pulled-back operands
    bindings = sigma_bindings(ZP, XY)
    for f, expected in ((z, expected_zp), (z * z, expected_z2p)):
        plane = star_2d_oracle(f.substitute(bindings), p.substitute(bindings), 4)
        pulled = HSeries([c.substitute(bindings) for c in expected.coeffs])
        assert pulled == plane

    for f_text, expected, golden in (
        ("z", expected_zp, "star_kchart_z_p.txt"),
        ("z^2", expected_z2p, "star_kchart_z2_p.txt"),
    ):
        f = KChartFunction("A", HSeries.constant(
            RationalFunction.from_polynomial(
                Polynomial(ZP, {(1, 0): 1} if f_text == "z" else {(2, 0): 1})
            ), 4))
        g = KChartFunction("A", HSeries.variable(ZP, "p", 4))
        assert star_on_K(4, f, g).value == expected
        assert _cli("star", "--space", "kchart", "--order", "4", f_text, "p") == (
            GOLDEN / golden
        ).read_text()
    assert (GOLDEN / "star_kchart_z2_p.txt").read_text() == "z^2*p - i*z*h - (1/8)/(p)*h^2\n"
    print(f"PASS golden chart star values ({time.perf_counter() - start:.1f}s)")


def test_golden_affine_frame_values():
    # pinned before the affine-frame path existed, when these stars took derivatives
    start = time.perf_counter()
    for argv, golden in (
        (("--space", "flat2", "--order", "4", "--", "(x+2*y)/(x-y)", "1/(2*x+y+1)"),
         "star_flat2_affine_frame.txt"),
        (("--space", "flatN", "--d", "2", "--order", "3", "--", "x2/(x1+1)", "y1/(x2-i)"),
         "star_flatN_commuting_frame.txt"),
    ):
        assert _cli("star", *argv) == (GOLDEN / golden).read_text()
    print(f"PASS golden affine-frame star values ({time.perf_counter() - start:.1f}s)")


def test_golden_structured_output_stable():
    start = time.perf_counter()
    got = _cli("star", "--space", "flat2", "--order", "4", "--output", "structured", "x", "y")
    assert got == (GOLDEN / "star_flat2_x_y.json").read_text()
    print(f"PASS structured golden output ({time.perf_counter() - start:.1f}s)")
