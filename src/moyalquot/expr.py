"""Expression parsing, lowering to series, and structured rendering.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := integer | 'i' | 'h' | identifier | '(' expr ')'
    integer := one or more ASCII digits 0-9

`i` is the imaginary unit and `h` the series parameter; `h` is only legal
where a series is expected, never in a denominator or negative power.
Lowering is exact: h-powers beyond the context order are an error rather
than being truncated away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .errors import (
    ExprSyntaxError,
    HInDenominator,
    OrderOverflow,
    UnknownIdentifier,
    ZeroDenominator,
)
from .gaussian import GaussianRational
from .rational import RationalFunction
from .series import HSeries


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: GaussianRational


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class HParam:
    pass


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: "Node"


Node = Union[Const, Var, HParam, Add, Sub, Mul, Div, Pow, Neg]


# -- tokenizer --------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


_OPS = set("+-*/^()")
# ASCII only: str.isdigit() also passes superscripts, which int() refuses
_DIGITS = set("0123456789")


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            tokens.append(_Token("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("ident", text[start:pos], start))
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser -----------------------------------------------------------------------


# Parentheses and unary minus nest the recursive descent; past this depth the
# input is rejected before the interpreter stack runs out.
MAX_NESTING = 100
# Lowering x^e takes |e| multiplications, so larger exponents are rejected.
MAX_EXPONENT = 1000


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Sequence[str], allow_h: bool):
        self.tokens = tokens
        self.index = 0
        self.depth = 0
        self.variables = set(variables)
        self.allow_h = allow_h

    def nested(self, parse, token: _Token) -> Node:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", token.pos)
        node = parse()
        self.depth -= 1
        return node

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, text: str):
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ExprSyntaxError(f"expected {text!r}", token.pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if token.text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if token.text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        token = self.peek()
        # unary minus binds below '^': -x^2 reads as -(x^2), so printed
        # canonical forms reparse to themselves
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Neg(self.nested(self.factor, token))
        node = self.base()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        token = start = self.peek()
        negative = False
        if token.kind == "op" and token.text == "-":
            self.advance()
            negative = True
            token = self.peek()
        if token.kind != "int":
            raise ExprSyntaxError("expected an integer exponent", token.pos)
        self.advance()
        digits = token.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ExprSyntaxError(
                f"exponent larger than {MAX_EXPONENT} in absolute value", start.pos
            )
        value = int(digits)
        return -value if negative else value

    def base(self) -> Node:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            try:
                return Const(GaussianRational(int(token.text)))
            except ValueError:
                # int() refuses a literal past the interpreter's digit limit
                raise ExprSyntaxError(
                    f"cannot read the {len(token.text)}-digit integer literal", token.pos
                ) from None
        if token.kind == "ident":
            self.advance()
            if token.text == "i":
                return Const(GaussianRational(0, 1))
            if token.text == "h":
                if not self.allow_h:
                    raise UnknownIdentifier(
                        f"'h' is not allowed here (offset {token.pos})"
                    )
                return HParam()
            if token.text not in self.variables:
                raise UnknownIdentifier(
                    f"unknown identifier {token.text!r} (offset {token.pos})"
                )
            return Var(token.text)
        if token.kind == "op" and token.text == "(":
            self.advance()
            node = self.nested(self.expr, token)
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value", token.pos)


def parse_expr(text: str, variables: Sequence[str], allow_h: bool = True) -> Node:
    """Parse expression text over the allowed variables."""
    return _Parser(_tokenize(text), variables, allow_h).parse()


# -- lowering ---------------------------------------------------------------------

# During lowering a value is an exact polynomial in h: a nonempty list of
# RationalFunction coefficients with no truncation applied.
_HPoly = List[RationalFunction]


def _trimmed(coeffs: _HPoly, variables: Tuple[str, ...]) -> _HPoly:
    out = list(coeffs)
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out or [RationalFunction.zero(variables)]


def _hmul(left: _HPoly, right: _HPoly, variables: Tuple[str, ...]) -> _HPoly:
    out = [RationalFunction.zero(variables)] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a.is_zero():
            continue
        for j, b in enumerate(right):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return _trimmed(out, variables)


def _binary(node: Node, left: _HPoly, right: _HPoly, variables: Tuple[str, ...]) -> _HPoly:
    """Combine lowered operands under the operator of an Add/Sub/Mul/Div node."""
    if isinstance(node, Mul):
        return _hmul(left, right, variables)
    if isinstance(node, Div):
        if len(right) > 1:
            raise HInDenominator("the series parameter appeared in a denominator")
        divisor = right[0]
        if divisor.is_zero():
            raise ZeroDenominator("division by zero")
        return [a / divisor for a in left]
    zero = RationalFunction.zero(variables)
    size = max(len(left), len(right))
    left += [zero] * (size - len(left))
    right += [zero] * (size - len(right))
    if isinstance(node, Add):
        return _trimmed([a + b for a, b in zip(left, right)], variables)
    return _trimmed([a - b for a, b in zip(left, right)], variables)


def _lower(node: Node, variables: Tuple[str, ...]) -> _HPoly:
    zero = RationalFunction.zero(variables)
    if isinstance(node, Const):
        return [RationalFunction.constant(variables, node.value)]
    if isinstance(node, Var):
        if node.name not in variables:
            raise UnknownIdentifier(f"unknown identifier {node.name!r}")
        return [RationalFunction.variable(variables, node.name)]
    if isinstance(node, HParam):
        return [zero, RationalFunction.one(variables)]
    if isinstance(node, Neg):
        return [-c for c in _lower(node.child, variables)]
    if isinstance(node, (Add, Sub, Mul, Div)):
        # chains of one precedence lean left; lowering them in a loop keeps
        # long flat sums and products off the stack
        kinds = (Add, Sub) if isinstance(node, (Add, Sub)) else (Mul, Div)
        links = []
        while isinstance(node, kinds):
            links.append(node)
            node = node.left
        value = _lower(node, variables)
        for link in reversed(links):
            value = _binary(link, value, _lower(link.right, variables), variables)
        return value
    if isinstance(node, Pow):
        base = _lower(node.base, variables)
        if node.exponent >= 0:
            result: _HPoly = [RationalFunction.one(variables)]
            for _ in range(node.exponent):
                result = _hmul(result, base, variables)
            return result
        if len(base) > 1:
            raise HInDenominator("negative power of a series in h")
        if base[0].is_zero():
            raise ZeroDenominator("negative power of zero")
        return [base[0] ** node.exponent]
    raise TypeError(f"unknown node {node!r}")


def lower_expr(node: Node, variables: Sequence[str], order: int) -> HSeries:
    """Evaluate an AST into an HSeries of exactly the given order."""
    vs = tuple(variables)
    coeffs = _trimmed(_lower(node, vs), vs)
    if len(coeffs) - 1 > order:
        raise OrderOverflow(
            f"expression has h-degree {len(coeffs) - 1}, above the order {order}"
        )
    zero = RationalFunction.zero(vs)
    coeffs = coeffs + [zero] * (order + 1 - len(coeffs))
    return HSeries(coeffs)


def lower_rational(node: Node, variables: Sequence[str]) -> RationalFunction:
    """Evaluate an h-free AST into a RationalFunction."""
    vs = tuple(variables)
    coeffs = _trimmed(_lower(node, vs), vs)
    if len(coeffs) > 1:
        raise HInDenominator("expected an h-free expression")
    return coeffs[0]


def parse_series(text: str, variables: Sequence[str], order: int) -> HSeries:
    return lower_expr(parse_expr(text, variables, allow_h=True), variables, order)


def parse_rational(text: str, variables: Sequence[str]) -> RationalFunction:
    return lower_rational(parse_expr(text, variables, allow_h=False), variables)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a constant Gaussian-rational literal such as `-1/2` or `1+2*i`."""
    from .errors import AtlasFormatError

    value = parse_rational(text, ())
    if not value.is_constant():
        raise AtlasFormatError(f"{text!r} is not a constant")
    return value.constant_value()


# -- structured rendering -----------------------------------------------------------


def series_document(series: HSeries, space: str, order: int) -> dict:
    """A JSON-ready document with one entry per h-power, in canonical text."""
    return {
        "space": space,
        "order": order,
        "coefficients": [
            {
                "h_power": power,
                "numerator": str(c.num),
                "denominator": str(c.den),
            }
            for power, c in enumerate(series.coeffs)
        ],
    }


def rational_document(value: RationalFunction, space: str) -> dict:
    return {
        "space": space,
        "numerator": str(value.num),
        "denominator": str(value.den),
    }
