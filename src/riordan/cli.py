"""Command-line front end: one row of :data:`COMMANDS` per subcommand.

Each subcommand declares its flags once, as a table of :class:`Flag`, read two ways:
:func:`build_parser` adds them to argparse, and :func:`main` reads a plain argv,
``command --flag value ...`` with each flag spelled in full, straight off the table.
Every other argv (help, an abbreviation, ``--flag=value``, a repeated flag, a usage
error) goes to argparse, so usage, help and error text are argparse's.

Series arguments are either a preset name or a non-empty JSON array giving
the coefficients by degree, e.g. ``[1,-1]`` for ``1 - x``: each entry an
integer of at most 4300 digits or a ``"p/q"``, ``"1.5"`` or ``"1e5"``
string, with an exponent of at most 4300 in magnitude.  Literals are read
as polynomials and padded with exact zeros up to the working precision.

Exit codes: 0 on success, 2 for argument/literal parse failures (a literal
nested past the recursion limit and a size flag over ``MAX_SIZE`` included),
3 for mathematical domain errors (zero constant divisor, wrong order, missing
precision, a ``--depth`` or ``--precision`` below its minimum, an output
coefficient over 4300 digits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .fixpoint import reciprocal
from .reversion import invert_series
from .series import Series, SeriesError, _integer_mul_add, _literal, format_polynomial
from .triangles import RiordanMatrix, SequencePair

__all__ = ["main"]

# the largest --depth, --precision or --steps: a dense product at 200 takes 1-2 seconds,
# and the cost grows a little faster than the cube of the size
MAX_SIZE = 200


class SeriesParseError(ValueError):
    """A series literal or preset could not be parsed."""


PRESETS: dict[str, Callable[[int], Series]] = {
    "one": lambda p: Series([1], p),                    # 1
    "pascal_g": lambda p: Series([1, -1], p),           # 1 - x
    "curious_g": lambda p: Series([-1, 2], p),          # 2x - 1
    "geometric": lambda p: Series([1] * (p + 1), p),    # 1/(1-x) = sum x^n
    "arithgeo": lambda p: Series(range(1, p + 2), p),   # 1/(1-x)^2 = sum (n+1) x^n
}
# the paper's name for arithgeo: the f of its remainder triangle T(f|curious_g)
PRESETS["curious_f"] = PRESETS["arithgeo"]


def parse_series_arg(text: str, precision: int, name: str) -> Series:
    """Resolve a preset name or parse a JSON coefficient literal."""
    if text in PRESETS:
        return PRESETS[text](precision)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeriesParseError(f"--{name}: not a preset and not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an integer over 4300 digits, deep nesting
        raise SeriesParseError(f"--{name}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise SeriesParseError(f"--{name}: literal must be a non-empty JSON array")
    try:
        return Series([_literal(item, f"--{name}:") for item in raw], max(precision, len(raw) - 1))
    except ValueError as exc:
        raise SeriesParseError(str(exc)) from exc


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

class OutputTooLarge(ValueError):
    """A result coefficient has more digits than Python turns into a string."""


def _checked(render: Callable[..., str]) -> Callable[..., str]:
    """``render``, raising :class:`OutputTooLarge` where ``str`` of a long integer fails."""
    @functools.wraps(render)
    def checked(value, fmt: str) -> str:
        try:
            return render(value, fmt)
        except ValueError as exc:  # the only ValueError rendering can raise
            raise OutputTooLarge(f"the output has a coefficient over {sys.get_int_max_str_digits()}"
                                 " digits, Python's limit for printing an integer") from exc
    return checked


@_checked
def render_series(s: Series, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(s.to_strings())
    if fmt == "csv":
        return ",".join(s.to_strings())
    return str(s)


@_checked
def render_matrix(t: RiordanMatrix, fmt: str) -> str:
    if fmt == "json":
        return t.to_json()
    if fmt == "csv":
        return t.to_csv()
    return t.to_pretty()


@_checked
def render_trace(rows: list[list[int]], fmt: str) -> str:
    """The integer iterates of a crossed iteration, each coefficient printed as its ``str``."""
    iterates = [list(map(str, row)) for row in rows]
    if fmt == "json":
        return json.dumps(iterates)
    if fmt == "csv":
        return "\n".join(map(",".join, iterates))
    return "\n".join(map(format_polynomial, iterates))


@_checked
def render_pair(pair: SequencePair, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"A": pair.a_seq.to_strings(), "Z": pair.z_seq.to_strings()})
    if fmt == "csv":
        return "A," + ",".join(pair.a_seq.to_strings()) + "\nZ," + ",".join(pair.z_seq.to_strings())
    return f"A = {pair.a_seq}\nZ = {pair.z_seq}"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

class Flag(NamedTuple):
    """The option ``--name``: a string, an ``int``, or one of ``kind`` when ``kind`` is a
    tuple; required when it has no ``default``."""

    name: str
    kind: type | tuple[str, ...] = str
    default: object = None
    help: str | None = None


def _flag_table(*flags: Flag) -> dict[str, Flag]:
    """A subcommand's flags by option string, in ``--help`` order: ``--format`` first."""
    return {f"--{flag.name}": flag for flag in (
        Flag("format", ("json", "csv", "pretty"), "pretty", "output format (default: pretty)"),
        *flags)}


@dataclass(frozen=True)
class Command:
    """A subcommand that parses its series flags at the degree its size flag
    reaches (``size - 1`` for ``--depth``, ``size`` for ``--precision``) and
    prints ``output(fmt, size, *series)``; it exits 3 below ``floor``."""

    help: str
    series: tuple[str, ...]
    size: str
    floor: int
    output: Callable[..., str]

    @functools.cached_property
    def flags(self) -> dict[str, Flag]:
        return _flag_table(*map(Flag, self.series), Flag(self.size, int, 10, f"at most {MAX_SIZE}"))

    def run(self, args: argparse.Namespace) -> str:
        size = getattr(args, self.size)
        if size > MAX_SIZE:
            raise SeriesParseError(f"--{self.size}: must be at most {MAX_SIZE}")
        if size < self.floor:
            raise ValueError(f"--{self.size}: must be at least {self.floor}")
        degree = size - 1 if self.size == "depth" else size
        series = [parse_series_arg(getattr(args, flag), degree, flag) for flag in self.series]
        return self.output(args.format, size, *series)


class Trace:
    """``riordan trace``, whose ``--steps`` and ``--n`` floors are usage errors (exit 2).
    Every scheme it prints is an integer map ``t -> slope*t + offset`` from the zero start,
    so it steps the crossed iteration on integers and prints them: no Fraction is built."""

    help = "show iteration traces"
    flags = _flag_table(Flag("scheme", ("geometric", "arithgeo", "column", "curious")),
                        Flag("steps", int, 6, f"at most {MAX_SIZE}"),
                        Flag("n", int, 3, "column index for --scheme column (default: 3)"))

    def run(self, args: argparse.Namespace) -> str:
        steps = args.steps
        if steps > MAX_SIZE:
            raise SeriesParseError(f"--steps: must be at most {MAX_SIZE}")
        if steps < 1:
            raise SeriesParseError("--steps: must be at least 1")
        if args.scheme in ("geometric", "curious"):
            # t -> x*t + 1, or t -> (2x - x^2)*t + 1, whose iterates reach degree 2*steps
            p = steps if args.scheme == "geometric" else 2 * steps
            slope = [0, 1] if args.scheme == "geometric" else [0, 2, -1]
            offset = [1] + [0] * p
        else:
            n = 2 if args.scheme == "arithgeo" else args.n
            if n < 2:
                raise SeriesParseError("--n: column index must be at least 2")
            p = steps
            # column n of the binomial triangle is the division by 1 - x of x times column
            # n - 1, x^(n-1)/(1-x)^(n-1) = sum C(m-1, n-2) x^m (math.comb is 0 for m < n - 2);
            # step m reads the offset through degree m, and at step 0 the slope x acts on the
            # zero start as the scheme's T_0(x) = 0 does
            slope = [0, 1]
            offset = [0] + [math.comb(m, n - 2) for m in range(p)]
        rows = [[0] * (p + 1)]
        for m in range(steps):
            cut = offset[: m + 1] + [0] * (p - m)
            rows.append(_integer_mul_add((1, slope), (1, rows[-1]), (1, cut), p)[1])
        return render_trace(rows, args.format)


# outputs look names up when they run, so a name rebound later (by a tracer) is called;
# the matrices triangle, inverse and product print are constructed, never built: they print
# straight from the kernel's integers
COMMANDS: dict[str, Command | Trace] = {
    "triangle": Command("build T(f|g)", ("f", "g"), "depth", 1,
                        lambda fmt, n, f, g: render_matrix(RiordanMatrix(f, g, n), fmt)),
    "recip": Command("series quotient f/g", ("f", "g"), "precision", 0,
                     lambda fmt, n, f, g: render_series(reciprocal(f, g, n), fmt)),
    "invert": Command("compositional inverse", ("omega",), "precision", 0,
                      lambda fmt, n, omega: render_series(invert_series(omega, n), fmt)),
    "trace": Trace(),
    # A needs one degree past its constant term
    "azseq": Command("A- and Z-sequences of T(f|g)", ("f", "g"), "precision", 1,
                     lambda fmt, n, f, g: render_pair(
                         RiordanMatrix(f, g, n + 1).a_z_sequences(), fmt)),
    # inverse, azseq and @ read only their operands' (f, g, depth): those matrices are
    # constructed, never built
    "inverse": Command("group inverse of T(f|g)", ("f", "g"), "depth", 1,
                       lambda fmt, n, f, g: render_matrix(RiordanMatrix(f, g, n).inverse(), fmt)),
    "product": Command("group product of two triangles", ("f1", "g1", "f2", "g2"), "depth", 1,
                       lambda fmt, n, f1, g1, f2, g2: render_matrix(
                           RiordanMatrix(f1, g1, n) @ RiordanMatrix(f2, g2, n), fmt)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact series division, reversion and Riordan triangles.",
        epilog="Series arguments: a preset (%s) or a JSON array like [1,-1] "
               "with integer or 'p/q' string entries, coefficients by degree."
               % ", ".join(sorted(PRESETS)),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option, flag in command.flags.items():
            p.add_argument(option, type=int if flag.kind is int else None,
                           choices=flag.kind if isinstance(flag.kind, tuple) else None,
                           default=flag.default, required=flag.default is None, help=flag.help)
    return parser


# an argv the plain reader leaves goes to one parser, built on the first such argv: building
# it costs more than most commands
_parser = functools.cache(build_parser)


def _read_plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace that ``build_parser().parse_args(argv)`` returns, for an argv
    ``command --flag value ...`` whose flags are the command's, each spelled in full and
    given at most once, every required one among them, whose values do not start with
    ``-``, whose ints ``int()`` reads, as argparse's ``type=int`` does, and whose choices are
    in range; None for every other argv."""
    command = COMMANDS.get(argv[0]) if len(argv) % 2 else None
    if command is None:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv) or not given.keys() <= command.flags.keys():
        return None
    values = {"command": argv[0]}
    for option, flag in command.flags.items():
        value = given.get(option)
        if value is None:
            if flag.default is None:
                return None
            values[flag.name] = flag.default
        elif value[:1] == "-":
            return None
        elif flag.kind is int:
            try:
                values[flag.name] = int(value)
            except ValueError:
                return None
        elif flag.kind is str or value in flag.kind:
            values[flag.name] = value
        else:
            return None
    return argparse.Namespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        print(COMMANDS[args.command].run(args))
        return 0
    except (SeriesError, ValueError) as exc:
        prefix = f"{args.command}: " if isinstance(exc, OutputTooLarge) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, SeriesParseError) else 3


if __name__ == "__main__":
    sys.exit(main())
