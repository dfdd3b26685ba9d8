"""Projective atlases and the glued star product on cotangent charts.

Charts carry coordinate pairs (z, p); transitions between charts are Mobius
maps stored as the 2x2 matrices written, so that validation can report
degenerate ones instead of refusing to hold them.  A transition is a projective
class: every nonzero multiple of its matrix is the same map.  Transport moves
chart functions through the quadric cover, on which a transition acts linearly.
The star product on a chart is the cover star of its one (z, p) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Tuple

from .errors import (
    AtlasFormatError,
    ChartMismatch,
    DegenerateMatrix,
    ExprSyntaxError,
    MissingTransition,
    VariableMismatch,
)
from .expr import _tokenize, parse_gaussian
from .gaussian import ONE as G_ONE, ZERO as G_ZERO
from .geometry import pushforward_even_pair, sigma_pullback_pair
from .moyal import Matrix, MoyalContext, SymplecticSpace, as_matrix, det2, mat_identity
from .moyal import mat_mul, moyal_star, proj_eq
from .polynomial import affine_forms
from .quot import ValidationReport
from .rational import RationalFunction
from .series import HSeries, hs_equal

TransitionKey = Tuple[str, str]


@dataclass(frozen=True)
class ProjectiveAtlas:
    """Charts with coordinate pairs plus Mobius transitions, each a 2x2 matrix."""

    charts: Dict[str, Tuple[str, str]]
    transitions: Dict[TransitionKey, Matrix]

    def __post_init__(self):
        for cid, pair in self.charts.items():
            if len(pair) != 2 or pair[0] == pair[1]:
                raise AtlasFormatError(f"chart {cid!r} needs two distinct variables")
            for name in pair:
                if not _is_variable_name(name):
                    raise AtlasFormatError(f"chart {cid!r}: {name!r} is not a variable name")
        coerced = {}
        for (src, dst), matrix in self.transitions.items():
            if src not in self.charts or dst not in self.charts:
                raise AtlasFormatError(f"transition {src}->{dst} references unknown charts")
            m = as_matrix(matrix)
            if len(m) != 2 or any(len(row) != 2 for row in m):
                raise AtlasFormatError(f"transition {src}->{dst} is not a 2x2 matrix")
            coerced[src, dst] = m
        object.__setattr__(self, "transitions", coerced)

    def chart_vars(self, cid: str) -> Tuple[str, str]:
        if cid not in self.charts:
            raise MissingTransition(f"unknown chart {cid!r}")
        return self.charts[cid]

    def transition(self, src: str, dst: str) -> Matrix:
        """The matrix of src->dst, refused when its determinant is 0."""
        matrix = self.transitions.get((src, dst))
        if matrix is None:
            raise MissingTransition(f"no transition {src}->{dst} declared")
        if det2(matrix).is_zero():
            raise DegenerateMatrix(f"transition {src}->{dst} is degenerate")
        return matrix


def _is_variable_name(name: str) -> bool:
    """Whether the grammar reads `name` back as one variable, not as h or i."""
    try:
        return [t.kind for t in _tokenize(name)] == ["ident", "end"] and name not in ("h", "i")
    except ExprSyntaxError:
        return False


def standard_cp1_atlas() -> ProjectiveAtlas:
    """The two-chart atlas of the projective line with transition w = 1/z,
    as the packaged file data/cp1.atlas declares it."""
    return parse_atlas((resources.files(__package__) / "data" / "cp1.atlas").read_text("utf-8"))


# -- validation -----------------------------------------------------------------


def atlas_validate(atlas: ProjectiveAtlas) -> ValidationReport:
    """Check that no transition is degenerate and the cocycle identities hold."""
    issues: List[str] = []
    usable: Dict[TransitionKey, Matrix] = {}
    for key, matrix in sorted(atlas.transitions.items()):
        if det2(matrix).is_zero():
            issues.append(f"DegenerateMatrix: transition {key[0]}->{key[1]} has determinant 0")
        else:
            usable[key] = matrix

    for (src, dst), fwd in usable.items():
        back = usable.get((dst, src))
        if back is not None and src < dst:
            if not proj_eq(mat_mul(fwd, back), mat_identity(2)):
                issues.append(f"CocycleFailure: {src}->{dst}->{src} is not the identity")
    for (a, b), t_ab in usable.items():
        for (b2, c), t_bc in usable.items():
            if b2 != b or (a, c) not in usable or a == c:
                continue
            if not proj_eq(mat_mul(t_bc, t_ab), usable[(a, c)]):
                issues.append(f"CocycleFailure: {a}->{b}->{c} differs from {a}->{c}")
    return ValidationReport("atlas", tuple(issues))


# -- chart functions and transport ---------------------------------------------------


@dataclass(frozen=True)
class KChartFunction:
    """A truncated series expressed in one chart's (z, p) coordinates."""

    chart: str
    value: HSeries

    def __post_init__(self):
        if len(self.value.vars) != 2:
            raise VariableMismatch("chart functions live on two-variable charts")


def transport(atlas: ProjectiveAtlas, f: KChartFunction, target: str) -> KChartFunction:
    """Express f in the target chart through the cover, where transitions are linear.

    With M the transition back to f's chart: p -> p/det, pull-back, M, push-forward."""
    src_vars = tuple(atlas.chart_vars(f.chart))
    if f.value.vars != src_vars:
        raise VariableMismatch(f"chart {f.chart!r} has variables {src_vars}, not {f.value.vars}")
    if target == f.chart:
        return f
    dst_vars = atlas.chart_vars(target)
    matrix = atlas.transition(target, f.chart)
    unscale = affine_forms(src_vars, ((G_ONE, G_ZERO, G_ZERO),
                                      (G_ZERO, det2(matrix).inverse(), G_ZERO)))
    linear = affine_forms(src_vars, [row + (G_ZERO,) for row in matrix])

    def move(c):
        if c.is_zero():
            return RationalFunction.zero(dst_vars)
        cover = sigma_pullback_pair(c.compose_linear(unscale), *src_vars, *src_vars)
        return pushforward_even_pair(cover.compose_linear(linear), *src_vars, *dst_vars)

    return KChartFunction(target, f.value.map_coefficients(move))


def star_on_K(order: int, f: KChartFunction, g: KChartFunction) -> KChartFunction:
    """The glued star product on one chart: the star of its one chart pair.

    The scalar term is the plain product and the first-order commutator
    matches the (z, p) bracket of the form dp^dz.
    """
    if f.chart != g.chart or f.value.vars != g.value.vars:
        raise ChartMismatch(f"operands live on {f.chart} and {g.chart}")
    ctx = MoyalContext(SymplecticSpace.cotangent((f.value.vars,)), order)
    return KChartFunction(f.chart, moyal_star(ctx, f.value, g.value))


def chart_independence_check(
    atlas: ProjectiveAtlas,
    f: KChartFunction,
    g: KChartFunction,
    other: str,
    order: int,
) -> bool:
    """transport(f*g) = transport(f)*transport(g), exactly up to `order`."""
    starred_then_moved = transport(atlas, star_on_K(order, f, g), other)
    moved_then_starred = star_on_K(
        order, transport(atlas, f, other), transport(atlas, g, other)
    )
    return hs_equal(starred_then_moved.value, moved_then_starred.value, order)


# -- atlas file format ----------------------------------------------------------------


def parse_atlas(text: str) -> ProjectiveAtlas:
    """Parse the line-oriented atlas format.

    Lines: `chart <id> <zvar> <pvar>` and
    `transition <from> <to> <a> <b> <c> <d>` with Gaussian-rational entries
    like `1`, `-1/2`, `i`, `2/3*i`, `1+2*i`; `#` starts a comment.
    Transitions are kept as written: a matrix and its nonzero multiples are
    one Mobius map.  Degenerate ones are held, for validation to report.
    """
    charts: Dict[str, Tuple[str, str]] = {}
    transitions: Dict[TransitionKey, Matrix] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "chart":
            if len(fields) != 4:
                raise AtlasFormatError(f"line {lineno}: chart needs an id and two variables")
            cid, zvar, pvar = fields[1:]
            if cid in charts:
                raise AtlasFormatError(f"line {lineno}: duplicate chart {cid!r}")
            charts[cid] = (zvar, pvar)
        elif fields[0] == "transition":
            if len(fields) != 7:
                raise AtlasFormatError(
                    f"line {lineno}: transition needs two charts and four entries"
                )
            src, dst = fields[1], fields[2]
            try:
                a, b, c, d = (parse_gaussian(t) for t in fields[3:])
            except Exception as exc:
                raise AtlasFormatError(f"line {lineno}: bad matrix entry ({exc})") from exc
            key = (src, dst)
            if key in transitions:
                raise AtlasFormatError(f"line {lineno}: duplicate transition {src}->{dst}")
            transitions[key] = ((a, b), (c, d))
        else:
            raise AtlasFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if not charts:
        raise AtlasFormatError("atlas declares no charts")
    return ProjectiveAtlas(charts=charts, transitions=transitions)


def load_atlas(path) -> ProjectiveAtlas:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_atlas(handle.read())
