"""Reference computations in sympy, made apart from moyalquot.

Nothing here imports moyalquot.  Operands and results cross over as the
program's canonical text, are parsed by sympy, and are evaluated with sympy's
exact Gaussian-rational arithmetic (the QQ_I domain), so a fault in the
program's arithmetic, rendering or gcd cannot hide in the reference.

The star product is evaluated at one exact point p from Taylor coefficients.
With c_a the coefficient of t^a in f(p + t), the Moyal product of the
standard form on pairs (x_1, y_1), ..., (x_n, y_n) is

    (f * g)(p) = sum_k (i h / 2)^k sum_{|a| = k} a! (-1)^{|a_y|} c^f_a c^g_{s(a)}

where s swaps the x and y entries of every pair.  That is the binomial
formula for (sum_pairs d_x (x) d_y - d_y (x) d_x)^k written out term by
term, a different route from the program's bidifferential cache.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

import sympy
from sympy.polys.domains import QQ_I

H = sympy.Symbol("h")
ZERO = QQ_I.zero
ONE = QQ_I.one
HALF_I = QQ_I(0, sympy.Rational(1, 2))

Series = Dict[Tuple[int, ...], object]  # multi-index -> QQ_I element


class Pole(ArithmeticError):
    """The chosen point is a pole of an operand or of the result."""


def symbols(names: Sequence[str]) -> Tuple[sympy.Symbol, ...]:
    return tuple(sympy.Symbol(n) for n in names)


def parse(text: str, names: Sequence[str]) -> sympy.Expr:
    """Program text (`^` powers, `i` the unit, `h` the parameter) as sympy."""
    local = {n: sympy.Symbol(n) for n in names}
    local["i"] = sympy.I
    local["h"] = H
    return sympy.parse_expr(text.replace("^", "**"), local_dict=local)


def _poly(expr: sympy.Expr, gens: Sequence[sympy.Symbol]) -> Series:
    return dict(sympy.Poly(expr, *gens, domain=QQ_I).as_dict(native=True))


def _below(e: Tuple[int, ...], k: int):
    """Multi-indices a <= e componentwise with |a| <= k."""
    if not e:
        yield ()
        return
    for a0 in range(min(e[0], k) + 1):
        for rest in _below(e[1:], k - a0):
            yield (a0,) + rest


def _shift(poly: Series, point: Sequence[object], k: int) -> Series:
    """Taylor coefficients of a polynomial at `point`, to total degree k."""
    out: Series = {}
    for e, c in poly.items():
        for a in _below(e, k):
            v = c
            for ei, ai, pi in zip(e, a, point):
                if ei:
                    v = v * comb(ei, ai) * pi ** (ei - ai)
            out[a] = out.get(a, ZERO) + v
    return out


def _mul(a: Series, b: Series, k: int) -> Series:
    """Product of two truncated series, dropping total degree above k."""
    bdeg = [(e, c, sum(e)) for e, c in b.items()]
    out: Series = {}
    for ea, ca in a.items():
        room = k - sum(ea)
        for eb, cb, db in bdeg:
            if db <= room:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, ZERO) + ca * cb
    return out


def taylor(expr: sympy.Expr, gens: Sequence[sympy.Symbol], point: Sequence[object], k: int) -> Series:
    """Taylor coefficients of a rational expression at `point`, to degree k."""
    num, den = sympy.fraction(sympy.together(expr))
    n = _shift(_poly(num, gens), point, k)
    d = _shift(_poly(den, gens), point, k)
    origin = (0,) * len(gens)
    d0 = d.get(origin, ZERO)
    if d0 == ZERO:
        raise Pole("operand has a pole at the point")
    minus_e = {e: -c / d0 for e, c in d.items() if e != origin}
    inverse: Series = {origin: ONE / d0}
    power: Series = {origin: ONE / d0}
    for _ in range(k):
        power = _mul(power, minus_e, k)
        for e, c in power.items():
            inverse[e] = inverse.get(e, ZERO) + c
    return _mul(n, inverse, k)


def series_at(expr: sympy.Expr, names: Sequence[str], point: Sequence[object], order: int) -> List[object]:
    """h^0 .. h^order coefficients at `point` of an expression polynomial in h.

    The point is substituted first, so only numbers are expanded.
    """
    values = {sympy.Symbol(n): QQ_I.to_sympy(v) for n, v in zip(names, point)}
    at = sympy.expand(expr.xreplace(values))
    if at.has(sympy.zoo, sympy.nan):
        raise Pole("result has a pole at the point")
    poly = sympy.Poly(at, H)
    return [QQ_I.from_sympy(poly.coeff_monomial(H ** m)) for m in range(order + 1)]


def star_at_point(
    f: Sequence[sympy.Expr],
    g: Sequence[sympy.Expr],
    gens: Sequence[sympy.Symbol],
    point: Sequence[object],
    order: int,
) -> List[object]:
    """h-coefficients of f * g at `point`; f, g are lists of h-coefficients.

    `gens` are ordered in pairs (x_1, y_1, x_2, y_2, ...) with {x_a, y_a} = 1.
    """
    tf = [taylor(c, gens, point, order) for c in f]
    tg = [taylor(c, gens, point, order) for c in g]
    out = []
    for m in range(order + 1):
        total = ZERO
        for i in range(min(m, len(tf) - 1) + 1):
            for j in range(min(m - i, len(tg) - 1) + 1):
                k = m - i - j
                total += HALF_I ** k * _pair_sum(tf[i], tg[j], k)
        out.append(total)
    return out


def _pair_sum(cf: Series, cg: Series, k: int) -> object:
    total = ZERO
    for a, c in cf.items():
        if sum(a) != k:
            continue
        swapped = []
        sign = 1
        weight = 1
        for pos in range(0, len(a), 2):
            swapped += [a[pos + 1], a[pos]]
            sign *= (-1) ** a[pos + 1]
            weight *= factorial(a[pos]) * factorial(a[pos + 1])
        other = cg.get(tuple(swapped))
        if other is not None:
            total += c * other * (sign * weight)
    return total


def value_at(expr: sympy.Expr, gens: Sequence[sympy.Symbol], point: Sequence[object]) -> object:
    """Exact value of a rational expression at a point, as a QQ_I element."""
    num, den = sympy.fraction(sympy.together(expr))
    n = _evaluate(_poly(num, gens), point)
    d = _evaluate(_poly(den, gens), point)
    if d == ZERO:
        raise Pole("result has a pole at the point")
    return n / d


def _evaluate(poly: Series, point: Sequence[object]) -> object:
    total = ZERO
    for e, c in poly.items():
        v = c
        for ei, pi in zip(e, point):
            if ei:
                v = v * pi ** ei
        total += v
    return total


def cover_bindings(chart_pairs, pull_pairs) -> Dict[sympy.Symbol, sympy.Expr]:
    """z = x / y and p = -y^2 / 2 for each (z, p) <- (x, y)."""
    out = {}
    for (z, p), (x, y) in zip(chart_pairs, pull_pairs):
        xs, ys = sympy.Symbol(x), sympy.Symbol(y)
        out[sympy.Symbol(z)] = xs / ys
        out[sympy.Symbol(p)] = -ys ** 2 / 2
    return out


def bracket(f: sympy.Expr, g: sympy.Expr, pairs: Sequence[Tuple[str, str, int]]) -> sympy.Expr:
    """Poisson bracket sum_pairs sign * (f_a g_b - f_b g_a)."""
    total = sympy.Integer(0)
    for a, b, sign in pairs:
        sa, sb = sympy.Symbol(a), sympy.Symbol(b)
        total += sign * (sympy.diff(f, sa) * sympy.diff(g, sb) - sympy.diff(f, sb) * sympy.diff(g, sa))
    return total


def is_zero(expr: sympy.Expr) -> bool:
    return sympy.cancel(sympy.together(expr)) == 0
