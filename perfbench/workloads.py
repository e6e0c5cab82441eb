"""Seeded job streams for the benchmark workloads, and the checks on their results.

A job spec is plain data made from the seed alone; the library never sees
the seed.  :func:`prepare` turns a spec into a zero-argument call into the
library's public API and a check for its result.  Checks are the
benchmark's own: they use this module's Fraction arithmetic, except that
CLI output is compared with the library's result for the same input.  A
check returns the job's canonical output (bytes, hashed for the golden
digests) or raises :class:`CheckError`.

Jobs come in blocks.  In a block every kind of job runs with sparse
small-integer parameters and with dense rational ones, at fixed sizes
spread over the workload's size range; the seed draws the coefficients,
presets, formats, checked columns and order.  So a run covers the same
spread of work whatever the seed and wherever it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

__all__ = [
    "WORKLOADS",
    "CheckError",
    "Job",
    "cli_argv",
    "make_blocks",
    "prepare",
    "run_cli",
    "truncated_product",
    "warmup_jobs",
]

WORKLOADS = ("quotients", "reversion", "cli_mix")

QUOTIENT_P = (32, 96)        # reciprocal(f, g, P) and build_triangle(f, g, P + 1)
INVERT_P = (12, 28)          # invert_series(omega, P)
LAGRANGE_N = (10, 20)        # verify_lagrange(omega, n)
CLI_SIZE = (6, 24)           # --depth / --precision / --steps
STRATA = 8                   # sizes per (kind, sparse or dense) in a quotients/reversion block
CLI_COMMANDS = ("triangle", "recip", "invert", "trace", "azseq", "inverse", "product")
CLI_FORMATS = ("json", "csv", "pretty")
PRESETS = ("one", "pascal_g", "curious_g", "geometric", "arithgeo", "curious_f")

# argv that the CLI must refuse, with the exit code it must give:
# 3 for a mathematical domain error, 2 for a parse or usage error.
INVALID_ARGV = (
    (("triangle", "--f", "one", "--g", "[0,1]", "--depth", "{n}"), 3),
    (("recip", "--f", "one", "--g", "[0,1,-1]", "--precision", "{n}"), 3),
    (("invert", "--omega", "[1,1]", "--precision", "{n}"), 3),
    (("azseq", "--f", "[0,1]", "--g", "one", "--precision", "{n}"), 3),
    (("inverse", "--f", "one", "--g", "[0,2]", "--depth", "{n}"), 3),
    (("triangle", "--f", "one", "--g", "notapreset", "--depth", "{n}"), 2),
    (("recip", "--f", "[1.5]", "--g", "one", "--precision", "{n}"), 2),
    (("recip", "--f", '["1/0"]', "--g", "one", "--precision", "{n}"), 2),
    (("product", "--f1", "one", "--g1", "one", "--f2", "one", "--depth", "{n}"), 2),
    (("inverse", "--f", "one", "--g", "pascal_g", "--depth", "{n}", "--format", "xml"), 2),
    (("trace", "--scheme", "column", "--steps", "0"), 2),
)


class CheckError(Exception):
    """A job's result failed the benchmark's correctness check."""


@dataclass(frozen=True)
class Job:
    """One call into the library.

    ``kind`` names the entry point (or ``"cli"``), ``size`` is its P, n or
    depth, ``args`` holds the inputs as plain data and ``sample`` is a
    seeded pick used by sampled checks.
    """

    kind: str
    size: int
    args: tuple
    sample: int = 0


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------

def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _unit(rng: random.Random, dense: bool) -> tuple[Fraction, ...]:
    """A polynomial of degree <= 6 with a nonzero constant term.

    Dense: degree 6, every coefficient a rational with denominator 1..3.
    Sparse: constant +-1 and one or two further terms +-1 or +-2.
    """
    if dense:
        c0 = Fraction(0)
        while not c0:
            c0 = _rational(rng)
        return (c0,) + tuple(_rational(rng) for _ in range(6))
    cs = [Fraction(rng.choice((1, -1)))] + [Fraction(0)] * 6
    for d in rng.sample(range(1, 7), rng.randint(1, 2)):
        cs[d] = Fraction(rng.choice((1, -1, 2, -2)))
    while not cs[-1]:
        cs.pop()
    return tuple(cs)


def _sizes(lo: int, hi: int, k: int, lane: float) -> list[int]:
    """``k`` sizes spread over ``lo..hi``, one in each of ``k`` equal-width
    strata, ``lane`` (a fraction of a stratum) into it.

    Sizes are the same in every block and for every seed: job cost grows as
    a high power of its size, so drawn sizes would let the seed and the
    number of blocks a run completes, not the program, set the percentiles.
    """
    width = (hi - lo + 1) / k
    return [lo + int((i + lane) * width) for i in range(k)]


def _quotients_block(rng: random.Random) -> list[Job]:
    jobs = []
    for lane, (kind, dense) in enumerate(product(("reciprocal", "build_triangle"), (False, True))):
        for p in _sizes(*QUOTIENT_P, STRATA, lane / 4):
            f, g = _unit(rng, dense), _unit(rng, dense)
            jobs.append(Job(kind, p, (f, g), rng.randint(1, p)))
    rng.shuffle(jobs)
    return jobs


def _reversion_block(rng: random.Random) -> list[Job]:
    jobs = []
    kinds = (("invert_series", INVERT_P), ("verify_lagrange", LAGRANGE_N))
    for lane, ((kind, size_range), dense) in enumerate(product(kinds, (False, True))):
        for p in _sizes(*size_range, STRATA, lane / 4):
            jobs.append(Job(kind, p, ((Fraction(0),) + _unit(rng, dense),)))
    rng.shuffle(jobs)
    return jobs


def _series_arg(rng: random.Random) -> tuple:
    """A CLI series argument: a preset, or a sparse or dense literal."""
    if rng.random() < 0.5:
        return ("preset", rng.choice(PRESETS))
    return ("literal", _unit(rng, rng.random() < 0.5))


def _cli_block(rng: random.Random) -> list[Job]:
    """Every subcommand in every format, plus one argv the CLI must refuse."""
    jobs = []
    for lane, command in enumerate(CLI_COMMANDS):
        sizes = _sizes(*CLI_SIZE, len(CLI_FORMATS), lane / len(CLI_COMMANDS))
        rng.shuffle(sizes)
        for fmt, n in zip(CLI_FORMATS, sizes):
            if command == "invert":
                spec = (("literal", (Fraction(0),) + _unit(rng, rng.random() < 0.5)),)
            elif command == "trace":
                spec = (rng.choice(("geometric", "arithgeo", "column", "curious")),
                        rng.randint(2, 5))
            elif command == "product":
                spec = tuple(_series_arg(rng) for _ in range(4))
            else:
                spec = (_series_arg(rng), _series_arg(rng))
            jobs.append(Job("cli", n, (command, fmt, spec)))
    template, code = rng.choice(INVALID_ARGV)
    jobs.append(Job("cli", rng.randint(*CLI_SIZE), ("invalid", template, code)))
    rng.shuffle(jobs)
    return jobs


_BLOCKS = {
    "quotients": _quotients_block,
    "reversion": _reversion_block,
    "cli_mix": _cli_block,
}


def make_blocks(workload: str, seed: int, count: int) -> list[list[Job]]:
    """The first ``count`` blocks of the workload's job stream for ``seed``.

    The stream is prefix-stable: fewer blocks are a prefix of more.
    """
    rng = random.Random(f"{workload}:{seed}")
    return [_BLOCKS[workload](rng) for _ in range(count)]


def warmup_jobs(workload: str) -> list[Job]:
    """Small fixed jobs that run each code path once before timing starts."""
    sparse = (Fraction(1), Fraction(-1), Fraction(-1))
    dense = tuple(Fraction(c, 3) for c in (2, -1, 4, 1, -2, 3, -4))
    if workload == "quotients":
        return [Job(kind, 16, (f, f)) for kind in ("reciprocal", "build_triangle")
                for f in (sparse, dense)]
    if workload == "reversion":
        return [Job(kind, 8, ((Fraction(0),) + f,))
                for kind in ("invert_series", "verify_lagrange") for f in (sparse, dense)]
    spec = (("preset", "pascal_g"), ("literal", dense))
    specs = {
        "invert": (("literal", (Fraction(0),) + sparse),),
        "trace": ("column", 3),
        "product": spec + spec,
    }
    return [Job("cli", CLI_SIZE[0], (command, fmt, specs.get(command, spec)))
            for command in CLI_COMMANDS for fmt in CLI_FORMATS]


# ----------------------------------------------------------------------
# the benchmark's own exact arithmetic on coefficient lists
# ----------------------------------------------------------------------

def truncated_product(a, b, n: int) -> list[Fraction]:
    """Product of two coefficient lists, truncated to degree ``n``."""
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _padded(cs, n: int) -> list[Fraction]:
    cs = list(cs[: n + 1])
    return cs + [Fraction(0)] * (n + 1 - len(cs))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _canonical(kind: str, value) -> bytes:
    return json.dumps([kind, value], separators=(",", ":")).encode()


def _strings(cs) -> list[str]:
    return [str(c) for c in cs]


# ----------------------------------------------------------------------
# preparing jobs: the call, and the check of its result
# ----------------------------------------------------------------------

def prepare(job: Job, rd):
    """Return ``(call, check)`` for ``job`` against the library module ``rd``.

    ``call()`` runs the job through the public API; ``check(result)``
    verifies the result and returns its canonical output.  Every library
    name is looked up when ``call`` runs, so wrappers patched in later are
    seen.
    """
    return _PREPARE[job.kind](job, rd)


def _prepare_reciprocal(job: Job, rd):
    f, g = job.args
    p = job.size
    fs, gs = rd.Series(f, p), rd.Series(g, p)

    def check(q):
        cs = q.coefficients
        _expect(len(cs) == p + 1, f"quotient has precision {len(cs) - 1}, wanted {p}")
        _expect(truncated_product(cs, g, p) == _padded(f, p), "q*g != f")
        return _canonical(job.kind, _strings(cs))

    return (lambda: rd.reciprocal(fs, gs, p)), check


def _prepare_build_triangle(job: Job, rd):
    f, g = job.args
    depth = job.size + 1
    fs, gs = rd.Series(f, depth - 1), rd.Series(g, depth - 1)

    def check(t):
        rows = t.entries
        _expect(len(rows) == depth and all(len(r) == n + 1 for n, r in enumerate(rows)),
                "triangle has the wrong shape")
        # column k, without its k leading zeros, times g^(k+1) is f
        # through degree depth-1-k
        for k in (0, job.sample):
            m = depth - 1 - k
            acc = [rows[n][k] for n in range(k, depth)]
            for _ in range(k + 1):
                acc = truncated_product(acc, g, m)
            _expect(acc == _padded(f, m), f"column {k} times g^{k + 1} != x^{k} f")
        return _canonical(job.kind, [_strings(r) for r in rows])

    return (lambda: rd.build_triangle(fs, gs, depth)), check


def _prepare_invert_series(job: Job, rd):
    (omega,) = job.args
    p = job.size
    ws = rd.Series(omega, p + 1)

    def check(y):
        cs = y.coefficients
        _expect(len(cs) == p + 1 and not cs[0], "inverse has the wrong shape")
        # omega(y) by Horner: omega is a polynomial of degree <= 7
        acc = [Fraction(0)] * (p + 1)
        for c in reversed(omega):
            acc = truncated_product(acc, cs, p)
            acc[0] += c
        _expect(acc == _padded((0, 1), p), "omega(y) != x")
        return _canonical(job.kind, _strings(cs))

    return (lambda: rd.invert_series(ws, p)), check


def _prepare_verify_lagrange(job: Job, rd):
    (omega,) = job.args
    n = job.size
    ws = rd.Series(omega, n + 1)

    def check(report):
        _expect(report.max_n == n, f"report covers max_n={report.max_n}, wanted {n}")
        _expect(report.ok, f"{len(report.violations)} Lagrange violations")
        return _canonical(job.kind, report.to_json_dict())

    return (lambda: rd.verify_lagrange(ws, n)), check


# ----------------------------------------------------------------------
# CLI jobs
# ----------------------------------------------------------------------

def _literal(cs) -> str:
    return json.dumps([int(c) if c.denominator == 1 else str(c) for c in cs])


def _arg_text(arg) -> str:
    kind, value = arg
    return value if kind == "preset" else _literal(value)


def _arg_series(rd, arg, p: int):
    """The series the CLI should read from ``arg`` at precision ``p``."""
    kind, value = arg
    if kind == "literal":
        return rd.Series(value, p)
    cs = {
        "one": [1],
        "pascal_g": [1, -1],
        "curious_g": [-1, 2],
        "geometric": [1] * (p + 1),
        "arithgeo": list(range(1, p + 2)),
        "curious_f": list(range(1, p + 2)),
    }[value]
    return rd.Series(cs, p)


def cli_argv(job: Job) -> list[str]:
    n = str(job.size)
    if job.args[0] == "invalid":
        return [a.replace("{n}", n) for a in job.args[1]]
    command, fmt, spec = job.args
    if command == "trace":
        scheme, column = spec
        argv = ["trace", "--scheme", scheme, "--steps", n]
        if scheme == "column":
            argv += ["--n", str(column)]
    else:
        names = {"invert": ("omega",), "product": ("f1", "g1", "f2", "g2")}.get(command, ("f", "g"))
        size_flag = "--depth" if command in ("triangle", "inverse", "product") else "--precision"
        argv = [command]
        for name, arg in zip(names, spec):
            argv += [f"--{name}", _arg_text(arg)]
        argv += [size_flag, n]
    return argv + ["--format", fmt]


def run_cli(rd, argv: list[str]) -> tuple[int, str]:
    """``riordan.cli.main(argv)`` with its output captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rd.cli.main(argv)
        except SystemExit as exc:  # argparse refuses usage errors this way
            code = exc.code
    return code, out.getvalue()


def _cli_reference(rd, command: str, n: int, spec):
    """The library's own result for a CLI call, as the JSON output's shape."""
    S = rd.Series
    if command == "recip":
        return rd.reciprocal(_arg_series(rd, spec[0], n), _arg_series(rd, spec[1], n), n).coefficients
    if command == "invert":
        return rd.invert_series(_arg_series(rd, spec[0], n + 1), n).coefficients
    if command == "trace":
        scheme, column = spec
        if scheme in ("geometric", "curious"):
            p = n if scheme == "geometric" else 2 * n
            slope = S.x(p) if scheme == "geometric" else S([0, 2, -1], p)
            trace = rd.iterate_fixed(rd.AffineMap(slope, S.one(p)), S.zero(p), n)
        else:
            k = 2 if scheme == "arithgeo" else column
            one, g = S.one(n), S([1, -1], n)
            prev = rd.reciprocal(one, g ** (k - 1), n).shift(k - 2)
            trace = rd.iterate_crossed(rd.column_scheme(one, g, k, prev), S.zero(n), n)
        return [it.coefficients for it in trace]
    if command == "azseq":
        t = rd.build_triangle(_arg_series(rd, spec[0], n), _arg_series(rd, spec[1], n), n + 1)
        pair = t.a_z_sequences()
        return {"A": pair.a_seq.coefficients, "Z": pair.z_seq.coefficients}
    triangles = [
        rd.build_triangle(_arg_series(rd, f, n - 1), _arg_series(rd, g, n - 1), n)
        for f, g in zip(spec[::2], spec[1::2])
    ]
    if command == "inverse":
        result = triangles[0].inverse()
    elif command == "product":
        result = triangles[0] @ triangles[1]
    else:
        result = triangles[0]
    return {"depth": n, "rows": result.entries}


def _exact(value):
    """Parse the string coefficients of JSON output back to Fractions."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, list):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    return value


def _as_lists(value):
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def _prepare_cli(job: Job, rd):
    argv = cli_argv(job)
    invalid = job.args[0] == "invalid"
    expected_code = job.args[2] if invalid else 0

    def check(result):
        code, stdout = result
        _expect(code == expected_code, f"{argv}: exit {code}, wanted {expected_code}")
        if not invalid:
            _expect(bool(stdout.strip()), f"{argv}: no output")
            command, fmt, spec = job.args
            if fmt == "json":
                got = json.loads(stdout)
                if command in ("triangle", "inverse", "product"):
                    got = {"depth": got["depth"], "rows": got["rows"]}
                want = _as_lists(_cli_reference(rd, command, job.size, spec))
                _expect(_exact(got) == want, f"{argv}: output differs from the library's result")
        return _canonical(job.kind, {"argv": argv, "code": code, "stdout": stdout})

    return (lambda: run_cli(rd, argv)), check


_PREPARE = {
    "reciprocal": _prepare_reciprocal,
    "build_triangle": _prepare_build_triangle,
    "invert_series": _prepare_invert_series,
    "verify_lagrange": _prepare_verify_lagrange,
    "cli": _prepare_cli,
}
