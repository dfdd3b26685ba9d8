"""Command-line surface: star products, brackets, transport, validation.

Exit codes: 0 success, 1 verification failure, 2 parse/lowering error,
3 domain error, 4 usage error, 5 internal error (any other exception,
reported on one line).  An operand that starts with '-' must follow '--',
and an option value that does is joined to its option: --support=-1,2.
--d and --r below 1 are usage errors on every command.
The default truncation order comes from --order, then the MOYALQUOT_ORDER
environment variable, then 6; an order above MAX_ORDER is a usage error,
and so is a space, suite or point with more than MAX_VARIABLES variables
(2*d*r).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from typing import Optional, Sequence

from .atlas import (
    KChartFunction,
    ProjectiveAtlas,
    atlas_validate,
    load_atlas,
    standard_cp1_atlas,
    transport,
)
from .errors import (
    DomainError,
    ParseFailure,
    UsageFailure,
)
from .expr import (
    parse_gaussian,
    parse_rational,
    parse_series,
    rational_document,
    series_document,
)
from .moyal import MoyalContext, SymplecticSpace, moyal_star, poisson_bracket
from .quot import ProductContext, SymSeries, quot_cell_star
from .quot import QuotCellPoint, quot_point_validate
from .suites import SuiteConfig, run_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5

DEFAULT_ORDER = 6
# the x*y star at this order takes well under a second; rational stars below
# it have no bound yet
MAX_ORDER = 1000
# the 2*d*r variables of --space flatN|product, of verify and of a
# validate-point point, 2 * (d + flat pairs).  Polynomial stars
# and `verify theorem1 --samples 1` grow about quadratically with them; at this
# many the latter takes 0.02-0.04 s for every d <= 6 on a 2-core machine.
# Stars of rational operands that leave the Laurent kernel are not bounded by
# it.
MAX_VARIABLES = 128
DEFAULT_SAMPLES = 100


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the error taxonomy."""

    def error(self, message):
        raise UsageFailure(message)


_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_MISSING_VALUE = re.compile(r"^argument (--[\w-]+): expected one argument$")


def _dash_hint(argv: Sequence[str], message: str) -> str:
    """Point at '--' or '=' when argparse took a token starting with '-' for an option."""
    missing = _MISSING_VALUE.match(message)
    if missing:
        option = missing.group(1)
        for token, value in zip(argv, argv[1:]):
            if token == option and value.startswith("-"):
                return (
                    f" (an option value that starts with '-' must be joined to its option"
                    f" with '=', as in: {option}={value})"
                )
        return ""
    if not message.startswith(("the following arguments are required", "unrecognized")):
        return ""
    for token in argv:
        if token == "--":
            break
        if (
            token.startswith("-")
            and not token.startswith("--")
            and token not in ("-", "-h")
            and not _NEGATIVE_NUMBER.match(token)
        ):
            return (
                f" (an operand that starts with '-', such as {token!r}, must follow"
                " '--', as in: moyalquot star -- -x y)"
            )
    return ""


def _positive_int(text: str) -> int:
    """The argparse type of --d and --r."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="moyalquot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--space",
            choices=("flat2", "flatN", "kchart", "product"),
            default="flat2",
        )
        p.add_argument("--d", type=_positive_int, default=2)
        p.add_argument("--r", type=_positive_int, default=2)

    star = sub.add_parser("star", help="star product of two expressions")
    add_common(star)
    star.add_argument("--order", type=int, default=None)
    star.add_argument("left")
    star.add_argument("right")

    poisson = sub.add_parser("poisson", help="Poisson bracket of two expressions")
    add_common(poisson)
    poisson.add_argument("left")
    poisson.add_argument("right")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    verify.add_argument("--order", type=int, default=None)
    verify.add_argument("--d", type=_positive_int, default=2)
    verify.add_argument("--r", type=_positive_int, default=2)
    verify.add_argument("--atlas", default=None)

    tr = sub.add_parser("transport", help="move a chart function to another chart")
    tr.add_argument("expression")
    tr.add_argument("--atlas", default=None)
    tr.add_argument("--from", dest="source", required=True)
    tr.add_argument("--to", dest="target", required=True)
    tr.add_argument("--order", type=int, default=None)

    va = sub.add_parser("validate-atlas", help="validate an atlas file")
    va.add_argument("atlas")

    vp = sub.add_parser("validate-point", help="validate open-cell point coordinates")
    vp.add_argument("--d", type=_positive_int, default=None)
    vp.add_argument("--r", type=_positive_int, default=None)
    vp.add_argument("--support", required=True, help="comma-separated entries")
    vp.add_argument("--covectors", required=True, help="comma-separated entries")
    vp.add_argument("--flat", default="", help="comma-separated pairs, flattened")

    for p in sub.choices.values():
        p.add_argument("--output", choices=("text", "structured"), default="text")
    return parser


def _check_variables(count: int, flags: str) -> None:
    if count > MAX_VARIABLES:
        raise UsageFailure(f"{flags} gives {count} variables, more than {MAX_VARIABLES}")


def _resolve_order(value: Optional[int]) -> int:
    name = "--order"
    if value is None:
        name = "MOYALQUOT_ORDER"
        raw = os.environ.get(name)
        if raw is None:
            return DEFAULT_ORDER
        try:
            value = int(raw)
        except ValueError:
            raise UsageFailure(f"{name} must be an integer, got {raw!r}")
    if value < 0:
        raise UsageFailure(f"{name} must be nonnegative")
    if value > MAX_ORDER:
        raise UsageFailure(f"{name} must be at most {MAX_ORDER}, got {value}")
    return value


def _load_atlas_arg(path: Optional[str]) -> ProjectiveAtlas:
    if path is None:
        return standard_cp1_atlas()
    try:
        return load_atlas(path)
    except OSError as exc:
        raise UsageFailure(f"cannot read atlas file: {exc}")


def _emit(args, text: str, document: dict) -> None:
    if args.output == "structured":
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _space(args) -> SymplecticSpace:
    """The space of --space: flat pairs, or chart pairs taken through the cover."""
    if args.space == "flat2":
        return SymplecticSpace.standard(("x", "y"))
    if args.space == "kchart":
        return SymplecticSpace.cotangent((("z", "p"),))
    if args.space == "flatN":
        _check_variables(2 * args.d, f"--d {args.d}")
        return SymplecticSpace.standard([f"{v}{k}" for k in range(1, args.d + 1) for v in "xy"])
    _check_variables(2 * args.d * args.r, f"--d {args.d} --r {args.r}")
    return ProductContext(d=args.d, r=args.r, order=0).space


def _cmd_star(args) -> int:
    order = _resolve_order(args.order)
    space = _space(args)
    left = parse_series(args.left, space.vars, order)
    right = parse_series(args.right, space.vars, order)
    if args.space == "product":
        ctx = ProductContext(d=args.d, r=args.r, order=order)
        result = quot_cell_star(ctx, SymSeries(left), SymSeries(right)).value
    else:
        result = moyal_star(MoyalContext(space, order), left, right)
    _emit(args, str(result), series_document(result, args.space, order))
    return EXIT_OK


def _cmd_poisson(args) -> int:
    space = _space(args)
    left = parse_rational(args.left, space.vars)
    right = parse_rational(args.right, space.vars)
    result = poisson_bracket(MoyalContext(space, 0), left, right)
    _emit(args, str(result), rational_document(result, args.space))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_variables(2 * args.d * args.r, f"--d {args.d} --r {args.r}")
    cfg = SuiteConfig(
        seed=args.seed,
        samples=args.samples,
        order=_resolve_order(args.order),
        d=args.d,
        r=args.r,
        atlas=_load_atlas_arg(args.atlas) if args.atlas is not None else None,
    )
    report = run_suite(args.suite, cfg)
    _emit(args, report.render_text(), report.to_document())
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def _cmd_transport(args) -> int:
    order = _resolve_order(args.order)
    atlas = _load_atlas_arg(args.atlas)
    source_vars = atlas.chart_vars(args.source)
    series = parse_series(args.expression, source_vars, order)
    moved = transport(atlas, KChartFunction(args.source, series), args.target)
    _emit(
        args,
        str(moved.value),
        series_document(moved.value, f"chart:{moved.chart}", order),
    )
    return EXIT_OK


def _cmd_validate_atlas(args) -> int:
    atlas = _load_atlas_arg(args.atlas)
    report = atlas_validate(atlas)
    _emit(args, report.render_text(), report.to_document())
    return EXIT_OK if report.valid else EXIT_DOMAIN


def _parse_entries(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_gaussian(piece) for piece in text.split(","))


def _cmd_validate_point(args) -> int:
    support = _parse_entries(args.support)
    covectors = _parse_entries(args.covectors)
    flat_values = _parse_entries(args.flat)
    if len(flat_values) % 2:
        raise UsageFailure("--flat needs an even number of entries (u, v pairs)")
    flat = tuple(zip(flat_values[::2], flat_values[1::2]))
    # the duplicate-support check compares every pair of support entries
    _check_variables(2 * (len(support) + len(flat)),
                     f"a point with d = {len(support)} and {len(flat)} flat pairs")
    if args.d is not None and len(support) != args.d:
        raise UsageFailure(f"--d {args.d} does not match {len(support)} support entries")
    if args.r is not None:
        # without --d, d is the number of support entries
        expected = len(support) * (args.r - 1)
        if len(flat) != expected:
            given = f"--d {args.d}" if args.d is not None else f"d = {len(support)},"
            raise UsageFailure(
                f"{given} --r {args.r} needs {expected} flat pairs, got {len(flat)}"
            )
    report = quot_point_validate(QuotCellPoint(support, covectors, flat))
    _emit(args, report.render_text(), report.to_document())
    return EXIT_OK if report.valid else EXIT_DOMAIN


_COMMANDS = {
    "star": _cmd_star,
    "poisson": _cmd_poisson,
    "verify": _cmd_verify,
    "transport": _cmd_transport,
    "validate-atlas": _cmd_validate_atlas,
    "validate-point": _cmd_validate_point,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageFailure as exc:
        print(f"usage error: {exc}{_dash_hint(argv, str(exc))}", file=sys.stderr)
        return EXIT_USAGE
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        # the boundary of the process: one line instead of a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
