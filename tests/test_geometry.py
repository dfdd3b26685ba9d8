from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moyalquot.errors import DegenerateMatrix, NotEven, VariableMismatch
from moyalquot.gaussian import GaussianRational
from moyalquot.geometry import (
    cotangent_lift,
    is_even,
    pushforward_even_pair,
    sigma_bindings,
    sigma_pullback_pair,
)
from moyalquot.moyal import (
    MoyalContext,
    SymplecticSpace,
    as_matrix,
    det2,
    mat_identity,
    mat_mul,
    poisson_bracket,
    proj_eq,
)
from moyalquot.polynomial import Polynomial
from moyalquot.rational import RationalFunction
from moyalquot.sampling import SampleStream
from oracles import form_pullback, omega_matrix, pullback_pair_oracle, pushforward_pair_oracle

ZP = ("z", "p")
XY = ("x", "y")
I = GaussianRational(0, 1)
# the cotangent chart (z, p) with its Liouville form dp^dz
CHART = SymplecticSpace.cotangent((ZP,))


def var(vs, name):
    return RationalFunction.variable(vs, name)


def pull(F):
    return sigma_pullback_pair(F, *ZP, *XY)


def push(E):
    return pushforward_even_pair(E, *XY, *ZP)


def jacobian(components, variables):
    """Rows d(component)/d(variable) of the map given by its components."""
    return [[c.derivative(v) for v in variables] for c in components]


# -- the Liouville form ------------------------------------------------------------


def test_pullback_examples():
    # the double cover pulls dp^dz back to dx^dy
    sb = sigma_bindings(ZP, XY)
    chart = omega_matrix(CHART)
    plane_space = SymplecticSpace.standard(XY)
    assert form_pullback(jacobian((sb["z"], sb["p"]), XY), chart) == omega_matrix(plane_space)
    # the identity map pulls the form back to itself
    ident = jacobian((var(ZP, "z"), var(ZP, "p")), ZP)
    assert form_pullback(ident, chart) == chart
    # the same identity as brackets: {z o sigma, p o sigma} on the plane is {z, p} = -1
    plane_bracket = poisson_bracket(MoyalContext(plane_space, 0), sb["z"], sb["p"])
    assert plane_bracket == RationalFunction.constant(XY, -1)


def test_liouville_is_d_of_tautological_form():
    # d(theta_z dz + theta_p dp) = (d_z theta_p - d_p theta_z) dz^dp with theta = p dz
    theta_z, theta_p = var(ZP, "p"), RationalFunction.zero(ZP)
    d_theta = theta_p.derivative("z") - theta_z.derivative("p")
    assert d_theta == omega_matrix(CHART)[0][1]


def test_liouville_translation_invariant():
    lift = cotangent_lift([[1, 1], [0, 1]], ZP)
    chart = omega_matrix(CHART)
    assert form_pullback(jacobian(lift, ZP), chart) == chart


# -- transitions as matrices ----------------------------------------------------------


M = as_matrix


def scaled(matrix, factor):
    return M([[v * factor for v in row] for row in matrix])


def test_mobius_rejects_degenerate():
    assert det2(M([[1, 2], [2, 4]])).is_zero()
    with pytest.raises(DegenerateMatrix):
        cotangent_lift([[1, 2], [2, 4]], ZP)
    with pytest.raises(DegenerateMatrix):
        cotangent_lift([[0, 0], [0, 0]], ZP)


def test_projective_equality():
    m = M([[1, 2], [3, 4]])
    assert proj_eq(m, M([[5 * I, 10 * I], [15 * I, 20 * I]]))
    assert proj_eq(m, scaled(m, GaussianRational(Fraction(1, 3), 2)))
    assert not proj_eq(m, M([[1, 2], [3, 5]]))
    assert not proj_eq(m, M([[2, 4], [3, 4]]))
    assert det2(m) == -2 and det2(scaled(m, 3)) == -18


def test_compose_and_inverse():
    a = M([[1, 1], [0, 1]])
    b = M([[1, 0], [2, 1]])
    ident = mat_identity(2)
    # the adjugate times any nonzero scalar is an inverse
    assert proj_eq(mat_mul(a, M([[3, -3], [0, 3]])), ident)
    assert proj_eq(mat_mul(M([[-2 * I, 2 * I], [0, -2 * I]]), a), ident)
    assert not proj_eq(mat_mul(a, b), ident)
    # z -> a(b(z)) = (3z + 1)/(2z + 1), also from scaled factors
    assert proj_eq(mat_mul(a, b), M([[3, 1], [2, 1]]))
    assert proj_eq(mat_mul(scaled(a, 2), scaled(b, I)), mat_mul(a, b))
    # the chart map of a composite is the composite of the chart maps
    inner = dict(zip(ZP, cotangent_lift(b, ZP)))
    assert cotangent_lift(mat_mul(a, b), ZP)[0] == cotangent_lift(a, ZP)[0].substitute(inner)


# -- cotangent lift ----------------------------------------------------------------


def test_lift_examples():
    ident = cotangent_lift(mat_identity(2), ZP)
    assert ident == (var(ZP, "z"), var(ZP, "p"))

    shift = cotangent_lift([[1, 1], [0, 1]], ZP)
    assert shift == (var(ZP, "z") + 1, var(ZP, "p"))

    flip = cotangent_lift([[0, I], [I, 0]], ZP)
    assert flip[0] == RationalFunction.one(ZP) / var(ZP, "z")
    assert flip[1] == -var(ZP, "p") * var(ZP, "z") ** 2


def test_lift_scale_invariance_and_homomorphism():
    s = SampleStream("geometry-lift")
    for _ in range(20):
        unit = s.mobius_det1_matrix()
        # determinants (3 + 2i)^2 and 2: neither of these maps is unimodular
        big = scaled(unit, GaussianRational(3, 2))
        assert cotangent_lift(big, ZP) == cotangent_lift(unit, ZP)
        m1 = M([[2 * v for v in unit[0]], list(unit[1])])
        m2 = s.mobius_det1_matrix()
        composed = cotangent_lift(mat_mul(m1, m2), ZP)
        outer = cotangent_lift(m1, ZP)
        inner = dict(zip(ZP, cotangent_lift(m2, ZP)))
        chained = (outer[0].substitute(inner), outer[1].substitute(inner))
        assert composed == chained


def test_lift_preserves_tautological_form():
    # (Z, P)^* (p dz) = P dZ = P Z_z dz + P Z_p dp must equal p dz
    s = SampleStream("geometry-liouville")
    chart = omega_matrix(CHART)
    for _ in range(10):
        big_z, big_p = cotangent_lift(s.mobius_det1_matrix(), ZP)
        assert big_p * big_z.derivative("z") == var(ZP, "p")
        assert (big_p * big_z.derivative("p")).is_zero()
        assert form_pullback(jacobian((big_z, big_p), ZP), chart) == chart


# -- the double cover ---------------------------------------------------------------


def test_sigma_pullback_examples():
    x, y = var(XY, "x"), var(XY, "y")
    assert pull(var(ZP, "z")) == x / y
    assert pull(var(ZP, "p")) == y * y * Fraction(-1, 2)
    assert pull(RationalFunction.one(ZP)) == RationalFunction.one(XY)


def test_sigma_pushforward_examples():
    x, y = var(XY, "x"), var(XY, "y")
    z, p = var(ZP, "z"), var(ZP, "p")
    assert push(x * x) == -2 * z * z * p
    assert push(x * y) == -2 * z * p
    with pytest.raises(NotEven):
        push(x)


def test_even_detection():
    x, y = var(XY, "x"), var(XY, "y")
    assert is_even(x * x + x * y)
    assert is_even(x / y)
    assert not is_even(x + 1)
    assert is_even((x * x + 1) / (y * y))
    assert not is_even((x * x + x) / y)


def test_round_trip_both_ways():
    s = SampleStream("geometry-roundtrip")
    for _ in range(20):
        F = s.rational_function(ZP, 2, 1)
        assert push(pull(F)) == F
    for _ in range(20):
        num = s.even_polynomial(XY, 4)
        den = s.even_polynomial(XY, 2)
        E = RationalFunction(num, den)
        assert pull(push(E)) == E


def test_sigma_equivariance_random_matrices():
    s = SampleStream("geometry-equivariance")
    x, y = var(XY, "x"), var(XY, "y")
    sb = sigma_bindings(ZP, XY)
    for _ in range(100):
        matrix = s.mobius_det1_matrix()
        (a, b), (c, d) = matrix
        lift_z, lift_p = cotangent_lift(matrix, ZP)
        after_lift = (lift_z.substitute(sb), lift_p.substitute(sb))
        linear = {"x": x * a + y * b, "y": x * c + y * d}
        after_linear = (sb["z"].substitute(linear), sb["p"].substitute(linear))
        assert after_lift == after_linear


def test_bracket_compatibility():
    chart_ctx = MoyalContext(CHART, 0)
    plane_ctx = MoyalContext(SymplecticSpace.standard(XY), 0)
    z, p = var(ZP, "z"), var(ZP, "p")
    assert poisson_bracket(chart_ctx, z, p) == RationalFunction.constant(ZP, -1)
    s = SampleStream("geometry-bracket")
    for _ in range(20):
        F = s.rational_function(ZP, 2, 1)
        G = s.rational_function(ZP, 2, 1)
        lhs = poisson_bracket(chart_ctx, F, G)
        assert lhs == push(poisson_bracket(plane_ctx, pull(F), pull(G)))


def test_pushforward_pair_inside_larger_tuple():
    vs = ("x", "y", "u")
    f = var(vs, "x") * var(vs, "y") * var(vs, "u")
    pushed = pushforward_even_pair(f, "x", "y", "z", "p")
    target = ("z", "p", "u")
    assert pushed == -2 * var(target, "z") * var(target, "p") * var(target, "u")
    with pytest.raises(NotEven):
        pushforward_even_pair(var(vs, "x"), "x", "y", "z", "p")


def test_pullback_of_fiber_pole():
    # a pole along the zero section stays a pole upstairs, not an error
    G = RationalFunction.one(ZP) / (var(ZP, "p") * 2)
    assert pull(G) == -RationalFunction.one(XY) / (var(XY, "y") ** 2)
    with pytest.raises(VariableMismatch):
        pull(RationalFunction.one(XY))


def test_pushforward_cancels_the_common_power_of_y_before_the_parity_check():
    # x/y maps to z*y/y: a parity check before cancelling y would reject it
    x, y = var(XY, "x"), var(XY, "y")
    assert push(x / y) == var(ZP, "z")
    assert push(y / x) == 1 / var(ZP, "z")
    with pytest.raises(NotEven):
        pushforward_even_pair(x * x / y, "x", "y", "z", "p")


def test_cover_maps_of_zero_take_the_new_names():
    pushed = pushforward_even_pair(RationalFunction.zero(XY), "x", "y", "z", "p")
    assert pushed.vars == ZP and pushed == RationalFunction.zero(ZP)
    pulled = sigma_pullback_pair(RationalFunction.zero(ZP), "z", "p", "x", "y")
    assert pulled.vars == XY and pulled == RationalFunction.zero(XY)


# -- the exponent rewrites against generic substitution -------------------------------


_coefficients = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def cover_cases(draw):
    """A rational function on 1-3 chart pairs (z_i, p_i), maybe one flat pair
    (u, v), and the index of the pair to move; its denominator carries a
    power of that p_i and sometimes a factor mixing z_i and p_i."""
    pairs = draw(st.integers(1, 3))
    vs = tuple(v for i in range(1, pairs + 1) for v in (f"z{i}", f"p{i}"))
    vs += ("u", "v") if draw(st.booleans()) else ()
    exponents = st.tuples(*[st.integers(0, 2)] * len(vs))

    def poly(size):
        return Polynomial(vs, draw(st.dictionaries(exponents, _coefficients, max_size=size)))

    num, den = poly(3), poly(2)
    if den.is_zero():
        den = Polynomial.one(vs)
    k = draw(st.integers(1, pairs))
    z, p = Polynomial.variable(vs, f"z{k}"), Polynomial.variable(vs, f"p{k}")
    den = den * p ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        den = den * (z + p * p * draw(_coefficients.filter(lambda c: not c.is_zero())))
    return RationalFunction(num, den), f"z{k}", f"p{k}"


def _twist(value, first, second, a, b, c):
    """value * first^a * second^b / second^c, keeping evenness iff a+b+c is even."""
    vs = value.vars
    x, y = RationalFunction.variable(vs, first), RationalFunction.variable(vs, second)
    return value * x ** a * y ** b / y ** c


def _push_both(value, names):
    """Both push-forwards of one pair: (result or NotEven) from each path."""
    outcomes = []
    for push in (pushforward_even_pair, pushforward_pair_oracle):
        try:
            outcomes.append(push(value, *names))
        except NotEven:
            outcomes.append(NotEven)
    return outcomes


@settings(max_examples=60, deadline=None)
@given(cover_cases(), st.booleans())
def test_pullback_pair_matches_substitution(case, rename):
    F, z, p = case
    x, y = ("x", "y") if rename else (z, p)
    assert sigma_pullback_pair(F, z, p, x, y) == pullback_pair_oracle(F, z, p, x, y)


@settings(max_examples=60, deadline=None)
@given(cover_cases(), st.booleans(), st.tuples(*[st.integers(0, 2)] * 3))
def test_pushforward_pair_matches_substitution(case, rename, twist):
    F, z, p = case
    # on the cover the pair is (z, p) itself, as in moyal_star, or (x, y)
    x, y = ("x", "y") if rename else (z, p)
    even = pullback_pair_oracle(F, z, p, x, y)
    fast, generic = _push_both(even, (x, y, z, p))
    assert fast == generic == F
    fast, generic = _push_both(_twist(even, x, y, *twist), (x, y, z, p))
    assert fast == generic
    assert (fast is NotEven) == (sum(twist) % 2 == 1 and not F.is_zero())
    # an arbitrary input, even or not, on the original names
    fast, generic = _push_both(F, (z, p, z, p))
    assert fast == generic
