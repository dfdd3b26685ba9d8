"""Expression parsing, lowering to series, and structured rendering.

Grammar (whitespace insensitive, no implicit multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := integer | 'i' | 'h' | identifier | '(' expr ')'
    integer := one or more ASCII digits 0-9

`i` is the imaginary unit and `h` the series parameter; `h` is only legal
where a series is expected, never in a denominator or negative power.
Parsing checks the whole text and yields a postfix program; lowering runs
that program on a stack of exact polynomials in h, so every syntax error is
reported before any value is computed.  Lowering is exact: h-powers beyond
the context order are an error rather than being truncated away.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb
from typing import List, Sequence, Tuple

from .errors import (
    DomainError,
    ExprSyntaxError,
    HInDenominator,
    OrderOverflow,
    UnknownIdentifier,
    ZeroDenominator,
)
from .gaussian import GaussianRational
from .rational import RationalFunction
from .series import HSeries, h_product


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
# Bounds on each product, quotient and power, checked on the operands before
# any arithmetic: terms per numerator or denominator, bits per coefficient.
MAX_TERMS = 2000
MAX_BITS = 100_000


# An instruction is (op, arg): ("const", GaussianRational), ("var", name),
# ("h", None), ("neg", None), ("^", exponent), or a binary operator
# ("+", None), ("-", None), ("*", None), ("/", None) on the top two values.
Program = Tuple[Tuple[str, object], ...]


class _Parser:
    def __init__(self, tokens: List[_Token], variables: Sequence[str], allow_h: bool):
        self.tokens = tokens
        self.index = 0
        self.depth = 0
        self.variables = set(variables)
        self.allow_h = allow_h
        self.program: List[Tuple[str, object]] = []

    def nested(self, parse, token: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", token.pos)
        parse()
        self.depth -= 1

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> Program:
        self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
        return tuple(self.program)

    def chain(self, operators: str, operand) -> None:
        """operand (op operand)*, each op emitted after its right operand."""
        operand()
        token = self.peek()
        while token.kind == "op" and token.text in operators:
            self.advance()
            operand()
            self.program.append((token.text, None))
            token = self.peek()

    def expr(self) -> None:
        self.chain("+-", self.term)

    def term(self) -> None:
        self.chain("*/", self.factor)

    def factor(self) -> None:
        token = self.peek()
        # unary minus binds below '^': -x^2 reads as -(x^2), so printed
        # canonical forms reparse to themselves
        if token.kind == "op" and token.text == "-":
            self.advance()
            self.nested(self.factor, token)
            self.program.append(("neg", None))
            return
        self.base()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            self.program.append(("^", self.integer()))

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

    def base(self) -> None:
        token = self.advance()
        if token.kind == "int":
            try:
                self.program.append(("const", GaussianRational(int(token.text))))
            except ValueError:
                # int() refuses a literal past the interpreter's digit limit
                raise ExprSyntaxError(
                    f"cannot read the {len(token.text)}-digit integer literal", token.pos
                ) from None
        elif token.kind == "ident" and token.text == "i":
            self.program.append(("const", GaussianRational(0, 1)))
        elif token.kind == "ident" and token.text == "h":
            if not self.allow_h:
                raise UnknownIdentifier(f"'h' is not allowed here (offset {token.pos})")
            self.program.append(("h", None))
        elif token.kind == "ident":
            if token.text not in self.variables:
                raise UnknownIdentifier(
                    f"unknown identifier {token.text!r} (offset {token.pos})"
                )
            self.program.append(("var", token.text))
        elif token.kind == "op" and token.text == "(":
            self.nested(self.expr, token)
            close = self.advance()
            if close.kind != "op" or close.text != ")":
                raise ExprSyntaxError("expected ')'", close.pos)
        else:
            raise ExprSyntaxError("expected a value", token.pos)


def parse_expr(text: str, variables: Sequence[str], allow_h: bool = True) -> Program:
    """Parse expression text over the allowed variables into a postfix program."""
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


def _binary(op: str, left: _HPoly, right: _HPoly, variables: Tuple[str, ...]) -> _HPoly:
    """Combine two lowered operands under one of + - * /."""
    if op == "*":
        return _trimmed(h_product(left, right), variables)
    if op == "/":
        if len(right) > 1:
            raise HInDenominator("the series parameter appeared in a denominator")
        divisor = right[0]
        if divisor.is_zero():
            raise ZeroDenominator("division by zero")
        return [a / divisor for a in left]
    pairs = zip_longest(left, right, fillvalue=RationalFunction.zero(variables))
    if op == "+":
        return _trimmed([a + b for a, b in pairs], variables)
    return _trimmed([a - b for a, b in pairs], variables)


def _power(base: _HPoly, exponent: int, variables: Tuple[str, ...]) -> _HPoly:
    if exponent >= 0:
        result: _HPoly = [RationalFunction.one(variables)]
        for _ in range(exponent):
            result = _trimmed(h_product(result, base), variables)
        return result
    if len(base) > 1:
        raise HInDenominator("negative power of a series in h")
    if base[0].is_zero():
        raise ZeroDenominator("negative power of zero")
    return [base[0] ** exponent]


def _check_size(factors: Sequence[Tuple[_HPoly, int]], nvars: int) -> None:
    """Refuse the product of value^times over `factors` past MAX_TERMS or MAX_BITS:
    terms multiply, capped by C(deg + n, n) per power of h; degrees and bits add."""
    terms, degree, hdegree, bits = 1, 0, 0, 0
    for value, times in factors:
        polys = [p for c in value for p in (c.num, c.den)]
        terms *= sum(max(len(c.num.terms), len(c.den.terms)) for c in value) ** times
        degree += times * max(p.total_degree() for p in polys)
        hdegree += times * (len(value) - 1)
        bits += times * max([max(abs(v.a), abs(v.b), v.den).bit_length()
                             for p in polys for v in p.terms.values()] + [0])
    if min(terms, (hdegree + 1) * comb(degree + nvars, nvars)) > MAX_TERMS:
        raise DomainError(f"expression too large: a product could pass {MAX_TERMS} terms")
    if bits > MAX_BITS:
        raise DomainError(f"expression too large: a coefficient could pass {MAX_BITS} bits")


def _lower(program: Program, variables: Tuple[str, ...]) -> _HPoly:
    """Run a postfix program on a stack of values."""
    stack: List[_HPoly] = []
    for op, arg in program:
        if op == "const":
            stack.append([RationalFunction.constant(variables, arg)])
        elif op == "var":
            if arg not in variables:
                raise UnknownIdentifier(f"unknown identifier {arg!r}")
            stack.append([RationalFunction.variable(variables, arg)])
        elif op == "h":
            stack.append([RationalFunction.zero(variables), RationalFunction.one(variables)])
        elif op == "neg":
            stack.append([-c for c in stack.pop()])
        elif op == "^":
            _check_size([(stack[-1], abs(arg))], len(variables))
            stack.append(_power(stack.pop(), arg, variables))
        else:
            if op in "*/":
                _check_size([(stack[-2], 1), (stack[-1], 1)], len(variables))
            right = stack.pop()
            stack.append(_binary(op, stack.pop(), right, variables))
    return stack.pop()


def lower_expr(program: Program, variables: Sequence[str], order: int) -> HSeries:
    """Evaluate a parsed program into an HSeries of exactly the given order."""
    vs = tuple(variables)
    coeffs = _trimmed(_lower(program, vs), vs)
    if len(coeffs) - 1 > order:
        raise OrderOverflow(
            f"expression has h-degree {len(coeffs) - 1}, above the order {order}"
        )
    zero = RationalFunction.zero(vs)
    coeffs = coeffs + [zero] * (order + 1 - len(coeffs))
    return HSeries(coeffs)


def parse_series(text: str, variables: Sequence[str], order: int) -> HSeries:
    return lower_expr(parse_expr(text, variables, allow_h=True), variables, order)


def parse_rational(text: str, variables: Sequence[str]) -> RationalFunction:
    """Parse h-free expression text into a RationalFunction."""
    vs = tuple(variables)
    return _lower(parse_expr(text, vs, allow_h=False), vs)[0]


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a constant Gaussian-rational literal such as `-1/2` or `1+2*i`."""
    return parse_rational(text, ()).constant_value()


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
