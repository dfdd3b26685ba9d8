from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot.atlas import (
    KChartFunction,
    ProjectiveAtlas,
    atlas_validate,
    chart_independence_check,
    load_atlas,
    parse_atlas,
    standard_cp1_atlas,
    star_on_K,
    transport,
)
from moyalquot.errors import (
    AtlasFormatError,
    ChartMismatch,
    DegenerateMatrix,
    MissingTransition,
    VariableMismatch,
)
from moyalquot.gaussian import GaussianRational
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.sampling import SampleStream
from moyalquot.series import HSeries, hs_equal

from oracles import padded, transport_oracle

ZP = ("z", "p")
I = GaussianRational(0, 1)


def chart_fn(name, poly_terms, order=4, vs=ZP, chart="A"):
    return KChartFunction(
        chart, HSeries.constant(RationalFunction.from_polynomial(Polynomial(vs, poly_terms)), order)
    )


def zf(order=4):
    return KChartFunction("A", HSeries.variable(ZP, "z", order))


def pf(order=4):
    return KChartFunction("A", HSeries.variable(ZP, "p", order))


# -- validation ------------------------------------------------------------------


def test_standard_atlas_is_valid():
    report = atlas_validate(standard_cp1_atlas())
    assert report.valid
    assert report.render_text() == "atlas: valid"


def test_degenerate_transition_reported():
    atlas = ProjectiveAtlas(
        charts={"A": ("z", "p"), "B": ("w", "q")},
        transitions={("A", "B"): ((GaussianRational(1), GaussianRational(1)),
                                  (GaussianRational(1), GaussianRational(1)))},
    )
    report = atlas_validate(atlas)
    assert not report.valid
    assert any("DegenerateMatrix" in issue for issue in report.issues)


def test_single_chart_atlas_valid():
    atlas = ProjectiveAtlas(charts={"A": ("z", "p")}, transitions={})
    assert atlas_validate(atlas).valid


def test_cocycle_failure_reported():
    one = GaussianRational(1)
    zero = GaussianRational(0)
    shift = ((one, one), (zero, one))
    atlas = ProjectiveAtlas(
        charts={"A": ("z", "p"), "B": ("w", "q")},
        transitions={("A", "B"): shift, ("B", "A"): shift},
    )
    report = atlas_validate(atlas)
    assert any("CocycleFailure" in issue for issue in report.issues)


def _scaling_atlas():
    """w = 2z and back: determinant 2, which has no square root in Q(i)."""
    two = GaussianRational(2)
    zero = GaussianRational(0)
    one = GaussianRational(1)
    return ProjectiveAtlas(
        charts={"A": ("z", "p"), "B": ("w", "q")},
        transitions={("A", "B"): ((two, zero), (zero, one)),
                     ("B", "A"): ((one, zero), (zero, two))},
    )


def test_any_nonzero_determinant_is_valid():
    assert atlas_validate(_scaling_atlas()).valid


def test_atlas_of_plain_int_matrices_validates_and_transports():
    flip = ((0, 1), (1, 0))
    atlas = ProjectiveAtlas(
        charts={"A": ("z", "p"), "B": ("w", "q")},
        transitions={("A", "B"): flip, ("B", "A"): flip},
    )
    stored = atlas.transition("A", "B")
    assert stored == flip and all(isinstance(v, GaussianRational) for row in stored for v in row)
    assert atlas_validate(atlas).valid
    WQ = ("w", "q")
    w, q = (RationalFunction.variable(WQ, v) for v in WQ)
    assert transport(atlas, zf(), "B").value.coeffs[0] == 1 / w
    assert transport(atlas, pf(), "B").value.coeffs[0] == -q * w * w
    f = chart_fn("f", {(2, 1): 1, (0, 1): 3})
    assert transport(atlas, transport(atlas, f, "B"), "A").value == f.value


# -- transport -----------------------------------------------------------------------


def test_transport_examples():
    atlas = standard_cp1_atlas()
    WQ = ("w", "q")
    moved_z = transport(atlas, zf(), "B")
    assert moved_z.chart == "B"
    assert moved_z.value.coeffs[0] == RationalFunction.one(WQ) / RationalFunction.variable(WQ, "w")
    moved_p = transport(atlas, pf(), "B")
    expected = -RationalFunction.variable(WQ, "q") * RationalFunction.variable(WQ, "w") ** 2
    assert moved_p.value.coeffs[0] == expected


def test_transport_same_chart_is_identity():
    atlas = standard_cp1_atlas()
    f = zf()
    assert transport(atlas, f, "A") is f


def test_transport_missing_transition():
    atlas = ProjectiveAtlas(charts={"A": ("z", "p"), "B": ("w", "q")}, transitions={})
    with pytest.raises(MissingTransition):
        transport(atlas, zf(), "B")


def test_transport_along_a_scaling():
    # z = w/2, and p dz = q dw gives p = 2q
    atlas = _scaling_atlas()
    WQ = ("w", "q")
    assert transport(atlas, zf(), "B").value.coeffs[0] == RationalFunction.variable(WQ, "w") / 2
    assert transport(atlas, pf(), "B").value.coeffs[0] == RationalFunction.variable(WQ, "q") * 2


def test_transport_refuses_degenerate_transition():
    one = GaussianRational(1)
    atlas = ProjectiveAtlas(
        charts={"A": ("z", "p"), "B": ("w", "q")},
        transitions={("B", "A"): ((one, one), (one, one))},
    )
    with pytest.raises(DegenerateMatrix):
        transport(atlas, zf(), "B")


def test_transport_round_trip():
    atlas = standard_cp1_atlas()
    s = SampleStream("atlas-roundtrip")
    for _ in range(10):
        f = chart_fn("f", {(1, 1): 1, (2, 0): s.coefficient()})
        assert transport(atlas, transport(atlas, f, "B"), "A").value == f.value


# -- the glued star product -------------------------------------------------------------


def test_star_on_k_examples():
    z, p = zf(), pf()
    result = star_on_K(4, z, p)
    zp = RationalFunction.variable(ZP, "z") * RationalFunction.variable(ZP, "p")
    assert result.value.coeffs[0] == zp
    assert result.value.coeffs[1] == RationalFunction.constant(ZP, I * -1 / 2)

    one = KChartFunction("A", HSeries.one(ZP, 4))
    assert star_on_K(4, one, p).value == padded(p.value, 4)
    assert star_on_K(4, p, one).value == padded(p.value, 4)

    z2 = chart_fn("z2", {(2, 0): 1})
    got = star_on_K(4, z2, p)
    z_ = RationalFunction.variable(ZP, "z")
    p_ = RationalFunction.variable(ZP, "p")
    assert got.value.coeffs[0] == z_ * z_ * p_
    assert got.value.coeffs[1] == -I * z_
    assert got.value.coeffs[2] == RationalFunction.one(ZP) / (p_ * -8)
    assert got.value.coeffs[3].is_zero() and got.value.coeffs[4].is_zero()


def test_star_on_k_chart_mismatch():
    with pytest.raises(ChartMismatch):
        star_on_K(2, zf(), KChartFunction("B", HSeries.variable(("w", "q"), "w", 2)))


def test_star_on_k_internal_names_avoid_collision():
    XY = ("x", "y")
    f = KChartFunction("C", HSeries.variable(XY, "x", 3))
    g = KChartFunction("C", HSeries.variable(XY, "y", 3))
    result = star_on_K(3, f, g)
    # chart named (x, y): the cover reuses the chart's own names
    x_ = RationalFunction.variable(XY, "x")
    y_ = RationalFunction.variable(XY, "y")
    assert result.value.coeffs[0] == x_ * y_
    assert result.value.coeffs[1] == RationalFunction.constant(XY, I * -1 / 2)


def test_star_on_k_axioms_against_chart_bracket():
    from moyalquot.moyal import MoyalContext, SymplecticSpace, poisson_bracket

    chart_ctx = MoyalContext(SymplecticSpace.cotangent((("z", "p"),)), 0)
    s = SampleStream("atlas-axioms")
    for _ in range(15):
        f = chart_fn("f", {s.exponent(2, 3): s.coefficient(), s.exponent(2, 2): s.coefficient()})
        g = chart_fn("g", {s.exponent(2, 3): s.coefficient(), s.exponent(2, 2): s.coefficient()})
        product = star_on_K(4, f, g)
        assert product.value.coeffs[0] == f.value.coeffs[0] * g.value.coeffs[0]
        comm = product.value - star_on_K(4, g, f).value
        assert comm.coeffs[0].is_zero()
        assert comm.coeffs[1] == I * poisson_bracket(
            chart_ctx, f.value.coeffs[0], g.value.coeffs[0]
        )


def test_star_on_k_associativity():
    s = SampleStream("atlas-associativity")
    for _ in range(10):
        f = chart_fn("f", {s.exponent(2, 2): s.coefficient()})
        g = chart_fn("g", {s.exponent(2, 2): s.coefficient()})
        h = chart_fn("h", {s.exponent(2, 2): s.coefficient()})
        left = star_on_K(4, star_on_K(4, f, g), h)
        right = star_on_K(4, f, star_on_K(4, g, h))
        assert hs_equal(left.value, right.value, 4)


def _translation_atlas():
    """Three charts glued by z -> z + 1 translations; all triples declared."""
    one = GaussianRational(1)
    zero = GaussianRational(0)

    def shift(t):
        return ((one, GaussianRational(t)), (zero, one))

    charts = {"A": ("z", "p"), "B": ("w", "q"), "C": ("s", "t")}
    transitions = {
        ("A", "B"): shift(1), ("B", "A"): shift(-1),
        ("B", "C"): shift(1), ("C", "B"): shift(-1),
        ("A", "C"): shift(2), ("C", "A"): shift(-2),
    }
    return ProjectiveAtlas(charts=charts, transitions=transitions)


def test_triple_overlap_cocycle_and_transport():
    atlas = _translation_atlas()
    assert atlas_validate(atlas).valid

    f = chart_fn("f", {(2, 1): 1, (0, 1): 1})
    direct = transport(atlas, f, "C")
    via_b = transport(atlas, transport(atlas, f, "B"), "C")
    assert direct.value == via_b.value

    broken = ProjectiveAtlas(
        charts=dict(atlas.charts),
        transitions={**atlas.transitions,
                     ("A", "C"): ((GaussianRational(1), GaussianRational(5)),
                                  (GaussianRational(0), GaussianRational(1)))},
    )
    report = atlas_validate(broken)
    assert any("CocycleFailure" in issue for issue in report.issues)


def test_chart_independence_examples():
    atlas = standard_cp1_atlas()
    z2 = chart_fn("z2", {(2, 0): 1})
    p = pf()
    assert chart_independence_check(atlas, z2, p, "B", 4)
    one = KChartFunction("A", HSeries.one(ZP, 4))
    assert chart_independence_check(atlas, one, one, "B", 4)
    s = SampleStream("atlas-independence")
    for _ in range(25):
        f = chart_fn("f", dict.fromkeys([s.exponent(2, 2)], s.coefficient()))
        g = chart_fn("g", dict.fromkeys([s.exponent(2, 2)], s.coefficient()))
        assert chart_independence_check(atlas, f, g, "B", 4)


_ENTRIES = (0, 1, -1, 2, 3, I, 2 * I, 1 + I, GaussianRational(1, 2) / 3)


@st.composite
def projective_atlases(draw):
    """Two charts glued by a nondegenerate matrix and its adjugate."""
    entries = st.sampled_from(_ENTRIES).map(GaussianRational.coerce)
    a, b, c, d = draw(st.tuples(entries, entries, entries, entries).filter(
        lambda m: m[0] * m[3] != m[1] * m[2]))
    return ProjectiveAtlas(
        charts={"A": ("z", "p"), "B": ("w", "q")},
        transitions={("A", "B"): ((a, b), (c, d)), ("B", "A"): ((d, -b), (-c, a))},
    )


_chart_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from(_ENTRIES[1:]),
    min_size=1,
    max_size=2,
)


@settings(max_examples=25, deadline=None)
@given(projective_atlases(), _chart_polys, _chart_polys)
def test_projective_transitions_glue_exactly(atlas, f_terms, g_terms):
    # determinants such as 2 or 1 + i have no square root in Q(i)
    f, g = chart_fn("f", f_terms, order=3), chart_fn("g", g_terms, order=3)
    assert chart_independence_check(atlas, f, g, "B", 3)
    assert transport(atlas, transport(atlas, f, "B"), "A").value == f.value


# For each determinant 1, 2, -2, i and 3 - 4i, a transition with c = 0 and one
# with c != 0, written (a, b, c, d).
_TRANSITIONS = (
    (1, Fraction(1, 2), 0, 1), (0, -1, 1, 0),
    (2, 0, 0, 1), (1, 1, -1, 1),
    (-2, 1, 0, 1), (1, 1, 1, -1),
    (I, 0, 0, 1), (1, 0, 1, I),
    (3 - 4 * I, 1, 0, 1), (1, 2, 1, 5 - 4 * I),
)
# projective multiples: the same Mobius map with the determinant scaled by s^2
_SCALES = (1, 2, -I, 1 + I)
# target names disjoint from (z, p), swapped, and sharing z
_TARGET_NAMES = (("w", "q"), ("p", "z"), ("z", "q"))
_DEN_FACTORS = (
    {(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): -I}, {(0, 2): 1, (1, 0): 2},
)


def _chart_rational(terms, factors):
    den = Polynomial.one(ZP)
    for factor in factors:  # repeats allowed
        den = den * Polynomial(ZP, factor)
    return RationalFunction(Polynomial(ZP, terms), den)


_chart_rationals = st.builds(
    _chart_rational,
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.sampled_from(_ENTRIES[1:]),
                    max_size=3),
    st.lists(st.sampled_from(_DEN_FACTORS), max_size=3),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(_TRANSITIONS),
    st.sampled_from(_SCALES),
    st.sampled_from(_TARGET_NAMES),
    st.lists(_chart_rationals, min_size=3, max_size=3),
)
def test_transport_matches_substitution_oracle(entries, scale, names, coeffs):
    a, b, c, d = (GaussianRational.coerce(e) * scale for e in entries)
    atlas = ProjectiveAtlas(
        charts={"A": ZP, "B": names},
        transitions={("B", "A"): ((a, b), (c, d)), ("A", "B"): ((d, -b), (-c, a))},
    )
    f = KChartFunction("A", HSeries(coeffs))
    moved = transport(atlas, f, "B")
    assert moved.value.vars == names
    assert moved.value == transport_oracle(atlas, f, "B").value
    back = transport(atlas, moved, "A")
    assert back.value == transport_oracle(atlas, moved, "A").value == f.value


def test_transport_needs_the_chart_variables_in_order():
    atlas = standard_cp1_atlas()
    swapped = KChartFunction("A", HSeries.variable(("p", "z"), "z", 2))
    for target in ("A", "B"):
        with pytest.raises(VariableMismatch):
            transport(atlas, swapped, target)
    with pytest.raises(VariableMismatch):
        transport(atlas, KChartFunction("A", HSeries.variable(("w", "q"), "w", 2)), "B")


# -- file format ------------------------------------------------------------------------


ATLAS_TEXT = """
# the standard two-chart atlas
chart A z p
chart B w q
transition A B 0 i i 0
transition B A 0 i i 0
"""


def test_parse_atlas_round_trip():
    atlas = parse_atlas(ATLAS_TEXT)
    assert atlas.charts == {"A": ("z", "p"), "B": ("w", "q")}
    assert atlas.transitions[("A", "B")] == standard_cp1_atlas().transitions[("A", "B")]
    assert atlas_validate(atlas).valid


def test_parse_atlas_keeps_matrices_as_written():
    for entries, matrix in (("2 0 0 1", ((2, 0), (0, 1))), ("2 0 0 2", ((2, 0), (0, 2)))):
        atlas = parse_atlas(f"chart A z p\nchart B w q\ntransition A B {entries}\n")
        assert atlas.transitions[("A", "B")] == matrix
        assert atlas_validate(atlas).valid


def test_parse_atlas_holds_degenerate_transitions():
    atlas = parse_atlas("chart A z p\nchart B w q\ntransition A B 1 1 1 1\n")
    assert atlas.transitions[("A", "B")] == ((1, 1), (1, 1))
    assert atlas_validate(atlas).issues == (
        "DegenerateMatrix: transition A->B has determinant 0",
    )


def test_parse_atlas_errors():
    with pytest.raises(AtlasFormatError):
        parse_atlas("chart A z\n")
    with pytest.raises(AtlasFormatError):
        parse_atlas("frobnicate A\n")
    with pytest.raises(AtlasFormatError):
        parse_atlas("chart A z p\ntransition A B 1 0 0 1\n")
    with pytest.raises(AtlasFormatError):
        parse_atlas("chart A z p\nchart A w q\n")
    with pytest.raises(AtlasFormatError):
        parse_atlas("")
    charts = "chart A z p\nchart B w q\n"
    for text, message in (
        (charts + "transition A B x 0 0 1\n",
         "line 3: bad matrix entry (unknown identifier 'x' (offset 0))"),
        (charts + "transition A B 1/0 0 0 1\n", "line 3: bad matrix entry (division by zero)"),
        (charts + "transition A B 1 0 0 1 1\n",
         "line 3: transition needs two charts and four entries"),
        (charts + "transition A B 1 0 0 1\ntransition A B 2 0 0 1\n",
         "line 4: duplicate transition A->B"),
        ("chart A z z\n", "chart 'A' needs two distinct variables"),
    ):
        with pytest.raises(AtlasFormatError) as caught:
            parse_atlas(text)
        assert str(caught.value) == message


def test_translation_atlas_from_file(tmp_path):
    # genus-1 style gluing: both charts reuse the same variable names and
    # the transition is the exact translation z -> z + 1/2
    text = "chart A z p\nchart B z p\ntransition A B 1 1/2 0 1\ntransition B A 1 -1/2 0 1\n"
    path = tmp_path / "torus.atlas"
    path.write_text(text)
    atlas = load_atlas(path)
    assert atlas_validate(atlas).valid

    f = chart_fn("f", {(2, 1): 1, (1, 0): 1})
    moved = transport(atlas, f, "B")
    back = transport(atlas, moved, "A")
    assert back.value == f.value
    # translations leave the fiber coordinate alone
    p = KChartFunction("A", HSeries.variable(ZP, "p", 4))
    assert transport(atlas, p, "B").value == p.value

    g = chart_fn("g", {(0, 1): 1, (1, 1): 2})
    assert chart_independence_check(atlas, f, g, "B", 4)


def test_bundled_file_matches_factory(tmp_path):
    # the factory parses the packaged file; pin what that file declares
    import importlib.resources as resources

    factory = standard_cp1_atlas()
    flip = ((0, I), (I, 0))
    assert factory.charts == {"A": ("z", "p"), "B": ("w", "q")}
    assert factory.transitions == {("A", "B"): flip, ("B", "A"): flip}

    path = tmp_path / "copy.atlas"
    path.write_text(resources.files("moyalquot").joinpath("data/cp1.atlas").read_text())
    assert load_atlas(path) == factory


@pytest.mark.parametrize("chart", ["chart A z h", "chart B w i", "chart B 1w q", "chart B w-x q"])
@pytest.mark.parametrize("command", [
    ["validate-atlas", "{path}"],
    ["transport", "--atlas", "{path}", "--from", "A", "--to", "B", "z*p"],
    ["verify", "cocycle", "--atlas", "{path}"],
])
def test_chart_variables_the_grammar_cannot_read_are_parse_errors(tmp_path, capsys, chart,
                                                                  command):
    from moyalquot import cli

    charts = {"A": "chart A z p", "B": "chart B w q"}
    charts[chart.split()[1]] = chart
    path = tmp_path / "bad.atlas"
    path.write_text("\n".join([*charts.values(), "transition A B 0 i i 0",
                               "transition B A 0 i i 0"]) + "\n")
    assert cli.run([arg.format(path=path) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: chart ")
    assert "is not a variable name" in captured.err


def test_transition_of_the_wrong_shape_is_a_format_error():
    with pytest.raises(AtlasFormatError, match="2x2"):
        ProjectiveAtlas({"A": ("z", "p")}, {("A", "A"): ((1, 0, 0), (0, 1, 0))})
    with pytest.raises(AtlasFormatError, match="not a variable name"):
        ProjectiveAtlas({"A": ("z", "p"), "B": ("w", "i")}, {})
    assert ProjectiveAtlas({"A": ("z_1", "p1")}, {}).charts == {"A": ("z_1", "p1")}
