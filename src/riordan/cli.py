"""Command-line front end.

Series arguments are either a preset name or a JSON array giving the
coefficients by degree, each entry an integer or a ``"p/q"`` string, e.g.
``[1,-1]`` for ``1 - x``.  Literals are read as polynomials and padded with
exact zeros up to the working precision.

Exit codes: 0 on success, 2 for argument/literal parse failures, 3 for
mathematical domain errors (zero constant divisor, wrong order, missing
precision, a ``--depth`` or ``--precision`` below its minimum).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from .fixpoint import (
    AffineMap,
    IterationTrace,
    column_scheme,
    iterate_crossed,
    iterate_fixed,
    reciprocal,
)
from .reversion import invert_series
from .series import Series, SeriesError
from .triangles import RiordanMatrix, build_triangle

__all__ = ["main"]


class SeriesParseError(ValueError):
    """A series literal or preset could not be parsed."""


def _geometric(precision: int) -> Series:
    return reciprocal(Series.one(precision), Series([1, -1], precision), precision)


def _arithgeo(precision: int) -> Series:
    return reciprocal(Series.one(precision), Series([1, -2, 1], precision), precision)


PRESETS: dict[str, Callable[[int], Series]] = {
    "one": lambda p: Series([1], p),                  # 1
    "pascal_g": lambda p: Series([1, -1], p),         # 1 - x
    "curious_g": lambda p: Series([-1, 2], p),        # 2x - 1
    "geometric": _geometric,                          # 1/(1-x)
    "arithgeo": _arithgeo,                            # 1/(1-x)^2
    # the paper's name for arithgeo: the f of its remainder triangle T(f|curious_g)
    "curious_f": _arithgeo,                           # 1/(1-x)^2
}


def parse_series_arg(text: str, precision: int, name: str) -> Series:
    """Resolve a preset name or parse a JSON coefficient literal."""
    if text in PRESETS:
        return PRESETS[text](precision)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeriesParseError(f"--{name}: not a preset and not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise SeriesParseError(f"--{name}: literal must be a non-empty JSON array")
    for i, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise SeriesParseError(
                f"--{name}: entry {i} must be an integer or a 'p/q' string"
            )
    try:
        return Series(raw, max(precision, len(raw) - 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise SeriesParseError(f"--{name}: {exc}") from exc


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_series(s: Series, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(s.to_strings())
    if fmt == "csv":
        return ",".join(s.to_strings())
    return str(s)


def render_matrix(t: RiordanMatrix, fmt: str) -> str:
    if fmt == "json":
        return t.to_json()
    if fmt == "csv":
        return t.to_csv()
    return t.to_pretty()


def render_trace(trace: IterationTrace, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([it.to_strings() for it in trace])
    if fmt == "csv":
        return "\n".join(",".join(it.to_strings()) for it in trace)
    return "\n".join(str(it) for it in trace)


def render_pair(a: Series, z: Series, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"A": a.to_strings(), "Z": z.to_strings()})
    if fmt == "csv":
        return "A," + ",".join(a.to_strings()) + "\nZ," + ",".join(z.to_strings())
    return f"A = {a}\nZ = {z}"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_triangle(args: argparse.Namespace) -> int:
    f = parse_series_arg(args.f, args.depth - 1, "f")
    g = parse_series_arg(args.g, args.depth - 1, "g")
    print(render_matrix(build_triangle(f, g, args.depth), args.format))
    return 0


def cmd_recip(args: argparse.Namespace) -> int:
    f = parse_series_arg(args.f, args.precision, "f")
    g = parse_series_arg(args.g, args.precision, "g")
    print(render_series(reciprocal(f, g, args.precision), args.format))
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    omega = parse_series_arg(args.omega, args.precision + 1, "omega")
    print(render_series(invert_series(omega, args.precision), args.format))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    steps = args.steps
    if steps < 1:
        raise SeriesParseError("--steps: must be at least 1")
    if args.scheme == "geometric":
        p = steps
        trace = iterate_fixed(
            AffineMap(Series.x(p), Series.one(p)), Series.zero(p), steps
        )
    elif args.scheme == "curious":
        p = 2 * steps
        trace = iterate_fixed(
            AffineMap(Series([0, 2, -1], p), Series.one(p)), Series.zero(p), steps
        )
    else:
        n = 2 if args.scheme == "arithgeo" else args.n
        if n < 2:
            raise SeriesParseError("--n: column index must be at least 2")
        p = steps
        one = Series.one(p)
        g = Series([1, -1], p)
        # previous column of the binomial triangle: x^(n-2)/(1-x)^(n-1)
        prev = reciprocal(one, g ** (n - 1), p).shift(n - 2)
        trace = iterate_crossed(column_scheme(one, g, n, prev), Series.zero(p), steps)
    print(render_trace(trace, args.format))
    return 0


def cmd_azseq(args: argparse.Namespace) -> int:
    depth = args.precision + 1
    f = parse_series_arg(args.f, depth - 1, "f")
    g = parse_series_arg(args.g, depth - 1, "g")
    pair = build_triangle(f, g, depth).a_z_sequences()
    print(render_pair(pair.a_seq, pair.z_seq, args.format))
    return 0


def cmd_inverse(args: argparse.Namespace) -> int:
    f = parse_series_arg(args.f, args.depth - 1, "f")
    g = parse_series_arg(args.g, args.depth - 1, "g")
    print(render_matrix(build_triangle(f, g, args.depth).inverse(), args.format))
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    f1 = parse_series_arg(args.f1, args.depth - 1, "f1")
    g1 = parse_series_arg(args.g1, args.depth - 1, "g1")
    f2 = parse_series_arg(args.f2, args.depth - 1, "f2")
    g2 = parse_series_arg(args.g2, args.depth - 1, "g2")
    t1 = build_triangle(f1, g1, args.depth)
    t2 = build_triangle(f2, g2, args.depth)
    print(render_matrix(t1 @ t2, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="pretty",
        help="output format (default: pretty)",
    )

    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact series division, reversion and Riordan triangles.",
        epilog="Series arguments: a preset (%s) or a JSON array like [1,-1] "
               "with integer or 'p/q' string entries, coefficients by degree."
               % ", ".join(sorted(PRESETS)),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", parents=[common], help="build T(f|g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("recip", parents=[common], help="series quotient f/g")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--precision", type=int, default=10)
    p.set_defaults(func=cmd_recip)

    p = sub.add_parser("invert", parents=[common], help="compositional inverse")
    p.add_argument("--omega", required=True)
    p.add_argument("--precision", type=int, default=10)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("trace", parents=[common], help="show iteration traces")
    p.add_argument(
        "--scheme", choices=("geometric", "arithgeo", "column", "curious"),
        required=True,
    )
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--n", type=int, default=3,
                   help="column index for --scheme column (default: 3)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("azseq", parents=[common], help="A- and Z-sequences of T(f|g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--precision", type=int, default=10)
    p.set_defaults(func=cmd_azseq)

    p = sub.add_parser("inverse", parents=[common], help="group inverse of T(f|g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("product", parents=[common], help="group product of two triangles")
    p.add_argument("--f1", required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=cmd_product)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # azseq needs one degree past the constant term of A
        minima = {"depth": 1, "precision": 1 if args.command == "azseq" else 0}
        for name, minimum in minima.items():
            if getattr(args, name, minimum) < minimum:
                raise ValueError(f"--{name}: must be at least {minimum}")
        return args.func(args)
    except SeriesParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
