"""Constant symplectic spaces, Poisson brackets, and the Moyal-Weyl product.

The bracket convention is pinned by the normalization {x, y} = +1 on the
standard two-dimensional space with form dx^dy: writing pi for the stored
inverse of the form matrix (pi . omega = identity), the bracket contracts the
transposed bivector,

    {f, g} = sum_ab pi[b][a] (d_a f)(d_b g),

which on the standard space is f_x g_y - f_y g_x.  The bidifferential
operator D underlying the star product applies the same contraction to the
two tensor slots, and

    f * g = sum_k (i h / 2)^k / k!  D^k(f, g)

extended h-bilinearly to series and truncated at the context order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .errors import NameCollision, NotSymplectic, OrderTooLarge, VariableMismatch
from .gaussian import GaussianRational, ONE as G_ONE, ZERO as G_ZERO
from .polynomial import Polynomial
from .rational import RationalFunction
from .series import HSeries

Matrix = Tuple[Tuple[GaussianRational, ...], ...]


def as_matrix(rows: Sequence[Sequence[object]]) -> Matrix:
    return tuple(tuple(GaussianRational.coerce(v) for v in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] for t in range(k)), G_ZERO)
            for j in range(m)
        )
        for i in range(n)
    )

def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_identity(n: int) -> Matrix:
    return tuple(
        tuple(G_ONE if i == j else G_ZERO for j in range(n)) for i in range(n)
    )


def mat_inverse(a: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse; raises NotSymplectic when singular."""
    n = len(a)
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            raise NotSymplectic("form matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero():
                continue
            work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


class SymplecticSpace:
    """A variable tuple with a constant antisymmetric invertible form."""

    __slots__ = ("vars", "omega", "pi", "bivector", "pairs")

    def __init__(self, variables: Sequence[str], omega: Sequence[Sequence[object]]):
        vs = tuple(variables)
        if len(vs) % 2 or not vs:
            raise NotSymplectic(f"need an even positive number of variables, got {len(vs)}")
        if len(set(vs)) != len(vs):
            raise NameCollision(f"duplicate variable names in {vs}")
        form = as_matrix(omega)
        n = len(vs)
        if len(form) != n or any(len(row) != n for row in form):
            raise NotSymplectic("form matrix shape does not match the variables")
        for i in range(n):
            for j in range(n):
                if form[i][j] != -form[j][i]:
                    raise NotSymplectic("form matrix is not antisymmetric")
        self.vars = vs
        self.omega = form
        self.pi = mat_inverse(form)
        self.bivector = mat_transpose(self.pi)
        self.pairs = tuple(
            (a, b, self.bivector[a][b])
            for a in range(n)
            for b in range(n)
            if not self.bivector[a][b].is_zero()
        )

    @classmethod
    def block(cls, pairs: Sequence[Tuple[str, str, object]]) -> "SymplecticSpace":
        """Block-diagonal space from (var1, var2, omega(e1, e2)) triples."""
        names: List[str] = []
        for v1, v2, _ in pairs:
            names.extend((v1, v2))
        n = len(names)
        rows = [[G_ZERO] * n for _ in range(n)]
        for k, (_, _, sign) in enumerate(pairs):
            s = GaussianRational.coerce(sign)
            rows[2 * k][2 * k + 1] = s
            rows[2 * k + 1][2 * k] = -s
        return cls(names, rows)

    @classmethod
    def standard(cls, variables: Sequence[str]) -> "SymplecticSpace":
        """Interleaved (q1, p1, q2, p2, ...) with omega(q_k, p_k) = 1."""
        vs = tuple(variables)
        if len(vs) % 2:
            raise NotSymplectic("standard space needs an even number of variables")
        return cls.block([(vs[2 * k], vs[2 * k + 1], 1) for k in range(len(vs) // 2)])

    @property
    def dim(self) -> int:
        return len(self.vars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticSpace):
            return NotImplemented
        return self.vars == other.vars and self.omega == other.omega

    def __hash__(self):
        return hash((self.vars, self.omega))

    def __repr__(self) -> str:
        return f"SymplecticSpace({self.vars!r})"


class MoyalContext:
    """A symplectic space together with a truncation order."""

    __slots__ = ("space", "order")

    def __init__(self, space: SymplecticSpace, order: int):
        if order < 0:
            raise OrderTooLarge("truncation order must be nonnegative")
        self.space = space
        self.order = order

    def __repr__(self) -> str:
        return f"MoyalContext({self.space!r}, order={self.order})"


class LinearSymplectic:
    """A matrix acting on the variables, checked to preserve the form."""

    __slots__ = ("matrix", "space")

    def __init__(self, matrix: Sequence[Sequence[object]], space: SymplecticSpace):
        m = as_matrix(matrix)
        if len(m) != space.dim or any(len(row) != space.dim for row in m):
            raise NotSymplectic("matrix shape does not match the space")
        if mat_mul(mat_mul(mat_transpose(m), space.omega), m) != space.omega:
            raise NotSymplectic("matrix does not preserve the symplectic form")
        self.matrix = m
        self.space = space

    def compose(self, other: "LinearSymplectic") -> "LinearSymplectic":
        if self.space != other.space:
            raise NotSymplectic("composing maps of different spaces")
        return LinearSymplectic(mat_mul(self.matrix, other.matrix), self.space)

    def __repr__(self) -> str:
        return f"LinearSymplectic({self.matrix!r})"


def block_sum(a: SymplecticSpace, b: SymplecticSpace) -> SymplecticSpace:
    """Product space: concatenated variables, block-diagonal form."""
    if set(a.vars) & set(b.vars):
        raise NameCollision(f"shared names {sorted(set(a.vars) & set(b.vars))}")
    na, nb = a.dim, b.dim
    rows = []
    for i in range(na):
        rows.append(list(a.omega[i]) + [G_ZERO] * nb)
    for i in range(nb):
        rows.append([G_ZERO] * na + list(b.omega[i]))
    return SymplecticSpace(a.vars + b.vars, rows)


class _DerivTable:
    """Cache of iterated partial derivatives of one rational function."""

    __slots__ = ("vars", "table")

    def __init__(self, variables: Tuple[str, ...], root: RationalFunction):
        self.vars = variables
        self.table: Dict[Tuple[int, ...], RationalFunction] = {
            (0,) * len(variables): root
        }

    @property
    def root(self) -> RationalFunction:
        return self.table[(0,) * len(self.vars)]

    def get(self, alpha: Tuple[int, ...]) -> RationalFunction:
        cached = self.table.get(alpha)
        if cached is not None:
            return cached
        idx = next(i for i, e in enumerate(alpha) if e)
        parent = list(alpha)
        parent[idx] -= 1
        value = self.get(tuple(parent)).derivative(self.vars[idx])
        self.table[alpha] = value
        return value


def _check_function(space: SymplecticSpace, f: RationalFunction):
    if f.vars != space.vars:
        raise VariableMismatch(f"function over {f.vars} does not match space {space.vars}")


def _poly_degree_bound(f: RationalFunction) -> int:
    """Derivative order beyond which a polynomial vanishes; -1 if unbounded."""
    if f.den.is_one():
        return f.num.total_degree()
    return -1


def _bidiff(space: SymplecticSpace, tf: _DerivTable, tg: _DerivTable, k: int) -> RationalFunction:
    if k == 0:
        return tf.root * tg.root
    bf = _poly_degree_bound(tf.root)
    if 0 <= bf < k:
        return RationalFunction.zero(space.vars)
    bg = _poly_degree_bound(tg.root)
    if 0 <= bg < k:
        return RationalFunction.zero(space.vars)
    n = space.dim
    acc = RationalFunction.zero(space.vars)
    for combo in combinations_with_replacement(range(len(space.pairs)), k):
        alpha = [0] * n
        beta = [0] * n
        coeff = G_ONE
        mult = factorial(k)
        for idx, count in Counter(combo).items():
            a, b, value = space.pairs[idx]
            alpha[a] += count
            beta[b] += count
            coeff = coeff * (value ** count)
            mult //= factorial(count)
        fa = tf.get(tuple(alpha))
        if fa.is_zero():
            continue
        gb = tg.get(tuple(beta))
        if gb.is_zero():
            continue
        acc = acc + (coeff * mult) * (fa * gb)
    return acc


def poisson_bracket(ctx: MoyalContext, f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """{f, g} for the context form; {x, y} = 1 on the standard plane."""
    return bidiff_power(ctx, f, g, 1)


def bidiff_power(ctx: MoyalContext, f: RationalFunction, g: RationalFunction, k: int) -> RationalFunction:
    """The k-th power of the bidifferential operator, restricted to the diagonal."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    space = ctx.space if isinstance(ctx, MoyalContext) else ctx
    _check_function(space, f)
    _check_function(space, g)
    return _bidiff(space, _DerivTable(space.vars, f), _DerivTable(space.vars, g), k)


def _star_scalars(order: int) -> List[GaussianRational]:
    """(i/2)^k / k! for k = 0..order."""
    half_i = GaussianRational(0, Fraction(1, 2))
    out = [G_ONE]
    for k in range(1, order + 1):
        out.append(out[-1] * half_i / k)
    return out


def moyal_star(ctx: MoyalContext, f: HSeries, g: HSeries) -> HSeries:
    """Moyal-Weyl star product truncated at the context order."""
    space = ctx.space
    if f.vars != space.vars or g.vars != space.vars:
        raise VariableMismatch("operands do not live on the context space")
    if f.order < ctx.order or g.order < ctx.order:
        raise OrderTooLarge(
            f"operand orders {f.order}, {g.order} below context order {ctx.order}"
        )
    n = ctx.order
    scalars = _star_scalars(n)
    tables_f: Dict[int, _DerivTable] = {}
    tables_g: Dict[int, _DerivTable] = {}
    out = []
    for m in range(n + 1):
        acc = RationalFunction.zero(space.vars)
        for i in range(m + 1):
            fi = f.coeffs[i]
            if fi.is_zero():
                continue
            tf = tables_f.setdefault(i, _DerivTable(space.vars, fi))
            for j in range(m - i + 1):
                gj = g.coeffs[j]
                if gj.is_zero():
                    continue
                k = m - i - j
                tg = tables_g.setdefault(j, _DerivTable(space.vars, gj))
                term = _bidiff(space, tf, tg, k)
                if not term.is_zero():
                    acc = acc + scalars[k] * term
        out.append(acc)
    return HSeries(tuple(out))


def star_commutator(ctx: MoyalContext, f: HSeries, g: HSeries) -> HSeries:
    """f*g - g*f; its h coefficient is i{f0, g0}."""
    return moyal_star(ctx, f, g) - moyal_star(ctx, g, f)


def apply_symplectic(ctx: MoyalContext, G: LinearSymplectic, f: HSeries) -> HSeries:
    """Coefficient-wise pullback of f along the linear map."""
    space = ctx.space if isinstance(ctx, MoyalContext) else ctx
    if G.space != space:
        raise NotSymplectic("map was validated against a different space")
    if f.vars != space.vars:
        raise VariableMismatch("series does not live on the context space")
    bindings = {}
    for a, name in enumerate(space.vars):
        expr = Polynomial.zero(space.vars)
        for b, target in enumerate(space.vars):
            coeff = G.matrix[a][b]
            if not coeff.is_zero():
                expr = expr + Polynomial.variable(space.vars, target) * coeff
        bindings[name] = RationalFunction.from_polynomial(expr)
    return f.map_coefficients(lambda c: c.substitute(bindings))
