"""Tests for the command-line interface: output formats, round trips and
exit codes."""

import fractions
import json
import sys

import pytest

from riordan import cli, series, triangles
from riordan.cli import main
from riordan.fixpoint import AffineMap, column_scheme, iterate_crossed, reciprocal
from riordan.series import Series
from riordan.triangles import build_triangle, from_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# triangle
# ----------------------------------------------------------------------

def test_triangle_pascal_csv(capsys):
    code, out, _ = run(capsys, "triangle", "--f", "one", "--g", "[1,-1]",
                       "--depth", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "1,1", "1,2,1", "1,3,3,1", "1,4,6,4,1"]


def test_triangle_identity(capsys):
    code, out, _ = run(capsys, "triangle", "--f", "one", "--g", "one",
                       "--depth", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "0,1", "0,0,1"]


def test_triangle_remainder_presets(capsys):
    code, out, _ = run(capsys, "triangle", "--f", "curious_f", "--g", "curious_g",
                       "--depth", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "-1",
        "-4,1",
        "-11,6,-1",
        "-26,23,-8,1",
        "-57,72,-39,10,-1",
        "-120,201,-150,59,-12,1",
    ]


def test_triangle_json_round_trip(capsys):
    code, out, _ = run(capsys, "triangle", "--f", "curious_f", "--g", "curious_g",
                       "--depth", "6", "--format", "json")
    assert code == 0
    parsed = from_json_dict(json.loads(out))
    p = 5
    f = reciprocal(Series.one(p), Series([1, -2, 1], p), p)
    assert parsed == build_triangle(f, Series([-1, 2], p), 6)


def test_triangle_bad_literal_names_argument(capsys):
    code, _, err = run(capsys, "triangle", "--f", "one", "--g", "[oops]")
    assert code == 2
    assert "--g" in err


@pytest.mark.parametrize("literal", [
    "[" * 5000,                    # nested past the recursion limit
    "[" + "9" * 4301 + "]",        # past the 4300-digit limit on integer strings
    '["1e-99999999"]',             # an exponent that would build 10**99999999
    '["1/0"]',                     # a zero denominator
], ids=["deep", "long_integer", "huge_exponent", "zero_denominator"])
def test_unreadable_literal_exits_2_and_names_the_flag(capsys, literal):
    code, out, err = run(capsys, "recip", "--f", literal, "--g", "one")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --f:")
    assert "Traceback" not in err


def test_string_entries_with_small_exponents_still_parse(capsys):
    code, out, _ = run(capsys, "recip", "--f", '["1e5", "1.5", "-2E-3"]', "--g", "one",
                       "--precision", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["100000", "3/2", "-1/500"]


def test_triangle_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "triangle", "--f", "one", "--g", "[0,1]")
    assert code == 3
    assert "division domain" in err


# ----------------------------------------------------------------------
# recip
# ----------------------------------------------------------------------

def test_recip_geometric_pretty(capsys):
    code, out, _ = run(capsys, "recip", "--f", "one", "--g", "[1,-1]",
                       "--precision", "4")
    assert code == 0
    assert out.strip() == "1+x+x^2+x^3+x^4"


def test_recip_arithgeo_literal(capsys):
    code, out, _ = run(capsys, "recip", "--f", "[0,1]", "--g", "[1,-2,1]",
                       "--precision", "4")
    assert code == 0
    assert out.strip() == "x+2x^2+3x^3+4x^4"


def test_recip_zero_constant_divisor(capsys):
    code, _, err = run(capsys, "recip", "--f", "one", "--g", "[0,1]")
    assert code == 3
    assert "division domain" in err


@pytest.mark.parametrize("argv", [
    ("recip", "--f", '["1e4300"]', "--g", "one", "--precision", "2"),
    ("triangle", "--f", '["1e4300"]', "--g", "one", "--depth", "2"),
    # the inverse's f is 1/f = 10**-4300, and the product's block is printed unbuilt
    ("inverse", "--f", '["1e4300"]', "--g", "one", "--depth", "2"),
    ("product", "--f1", '["1e4300"]', "--g1", "one", "--f2", "one", "--g2", "pascal_g",
     "--depth", "2"),
])
@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_output_past_the_digit_limit_names_the_output(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == (f"error: {argv[0]}: the output has a coefficient over "
                   f"{sys.get_int_max_str_digits()} digits, Python's limit for printing an integer\n")


def test_recip_json_round_trip(capsys):
    code, out, _ = run(capsys, "recip", "--f", "one", "--g", "[1,-1]",
                       "--precision", "6", "--format", "json")
    assert code == 0
    assert Series(json.loads(out)) == Series([1] * 7)


# ----------------------------------------------------------------------
# invert
# ----------------------------------------------------------------------

def test_invert_catalan(capsys):
    code, out, _ = run(capsys, "invert", "--omega", "[0,1,-1]",
                       "--precision", "5")
    assert code == 0
    assert out.strip() == "x+x^2+2x^3+5x^4+14x^5"


def test_invert_identity(capsys):
    code, out, _ = run(capsys, "invert", "--omega", "[0,1]", "--precision", "5")
    assert code == 0
    assert out.strip() == "x"


def test_invert_wrong_order(capsys):
    code, _, err = run(capsys, "invert", "--omega", "[1,1]")
    assert code == 3
    assert "not invertible: order must be 1" in err


def test_invert_reads_the_literal_through_precision_and_no_further(capsys):
    # omega is parsed at --precision, and a longer literal keeps its tail unread
    for literal in ("[0,1,-1]", "[0,1,-1,5,7]"):
        assert run(capsys, "invert", "--omega", literal, "--precision", "2") == (0, "x+x^2\n", "")


def test_invert_json_round_trip(capsys):
    code, out, _ = run(capsys, "invert", "--omega", "[0,1,-1]",
                       "--precision", "5", "--format", "json")
    assert code == 0
    assert Series(json.loads(out)) == Series(["0", "1", "1", "2", "5", "14"])


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------

def test_trace_geometric(capsys):
    code, out, _ = run(capsys, "trace", "--scheme", "geometric", "--steps", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0"
    assert lines[-1] == "1+x+x^2+x^3"


def test_trace_arithgeo_fixed_map(capsys):
    code, out, _ = run(capsys, "trace", "--scheme", "curious", "--steps", "3")
    assert code == 0
    assert out.splitlines()[-1] == "1+2x+3x^2-4x^3+x^4"


def test_trace_arithgeo(capsys):
    code, out, _ = run(capsys, "trace", "--scheme", "arithgeo", "--steps", "4")
    assert code == 0
    assert out.splitlines()[-1] == "x+2x^2+3x^3"


def test_trace_column_n(capsys):
    code, out, _ = run(capsys, "trace", "--scheme", "column", "--n", "3",
                       "--steps", "5")
    assert code == 0
    assert out.splitlines()[-1] == "x^2+3x^3+6x^4"


def test_trace_column_n_against_the_full_previous_column(capsys):
    steps = 5
    g = Series([1, -1], steps)
    for n in range(2, steps + 4):
        prev = reciprocal(Series.one(steps), g ** (n - 1), steps).shift(n - 2)
        scheme = column_scheme(Series.one(steps), g, n, prev)
        expected = [str(s) for s in iterate_crossed(scheme, Series.zero(steps), steps)]
        code, out, _ = run(capsys, "trace", "--scheme", "column", "--n", str(n),
                           "--steps", str(steps))
        assert code == 0
        assert out.splitlines() == expected, n


def test_trace_column_n_huge_index(capsys):
    # only degrees below --steps are read, so the index costs nothing
    code, huge, _ = run(capsys, "trace", "--scheme", "column", "--n", "1000000000000",
                        "--steps", "3")
    assert code == 0
    assert huge == run(capsys, "trace", "--scheme", "column", "--n", "5", "--steps", "3")[1]


@pytest.mark.parametrize("scheme", ["geometric", "arithgeo", "curious", "column"])
def test_trace_prints_from_integers_alone(capsys, scheme):
    # the iterates are printed from the crossed iteration's integers: no code of the
    # fractions module runs, and no Series or step AffineMap is made
    watched = {Series.__init__.__code__, Series._of.__func__.__code__,
               AffineMap.__post_init__.__code__}
    ran = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_filename == fractions.__file__ or code in watched):
            ran.append(code.co_name)

    for fmt in ("json", "csv", "pretty"):
        sys.setprofile(profile)
        try:
            code = main(["trace", "--scheme", scheme, "--steps", "12", "--format", fmt])
        finally:
            sys.setprofile(None)
        assert code == 0 and capsys.readouterr().out
        assert ran == []


def test_trace_json_round_trip(capsys):
    code, out, _ = run(capsys, "trace", "--scheme", "geometric", "--steps", "3",
                       "--format", "json")
    assert code == 0
    iterates = [Series(entry) for entry in json.loads(out)]
    assert iterates[-1] == Series([1, 1, 1], 3)


def test_trace_bad_steps(capsys):
    code, _, err = run(capsys, "trace", "--scheme", "geometric", "--steps", "0")
    assert code == 2
    assert "--steps" in err


def test_trace_bad_column_index(capsys):
    code, _, err = run(capsys, "trace", "--scheme", "column", "--n", "1")
    assert code == 2
    assert "--n" in err


# ----------------------------------------------------------------------
# azseq
# ----------------------------------------------------------------------

def test_azseq_pascal(capsys):
    code, out, _ = run(capsys, "azseq", "--f", "one", "--g", "[1,-1]",
                       "--precision", "6")
    assert code == 0
    assert out.splitlines() == ["A = 1+x", "Z = 1"]


def test_azseq_identity(capsys):
    code, out, _ = run(capsys, "azseq", "--f", "one", "--g", "one",
                       "--precision", "4")
    assert code == 0
    assert out.splitlines() == ["A = 1", "Z = 0"]


def test_azseq_shifted_divisor_defining_property(capsys):
    code, out, _ = run(capsys, "azseq", "--f", "one", "--g", "[2,1]",
                       "--precision", "8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    a = Series(obj["A"])
    z = Series(obj["Z"])
    t = build_triangle(Series.one(8), Series([2, 1], 8), 9)
    for n in range(t.depth - 1):
        assert t.entry(n + 1, 0) == sum(z[j] * t.entry(n, j) for j in range(n + 1))
        for k in range(n + 1):
            assert t.entry(n + 1, k + 1) == sum(
                a[j] * t.entry(n, k + j) for j in range(n - k + 1))


# ----------------------------------------------------------------------
# inverse / product
# ----------------------------------------------------------------------

def test_inverse_subcommand_signed_pascal(capsys):
    code, out, _ = run(capsys, "inverse", "--f", "one", "--g", "[1,-1]",
                       "--depth", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "-1,1", "1,-2,1", "-1,3,-3,1"]


def test_inverse_json_round_trip(capsys):
    code, out, _ = run(capsys, "inverse", "--f", "curious_f", "--g", "curious_g",
                       "--depth", "5", "--format", "json")
    assert code == 0
    parsed = from_json_dict(json.loads(out))
    p = 4
    f = reciprocal(Series.one(p), Series([1, -2, 1], p), p)
    assert parsed == build_triangle(f, Series([-1, 2], p), 5).inverse()


def test_product_subcommand_pascal_squared(capsys):
    code, out, _ = run(capsys, "product", "--f1", "one", "--g1", "pascal_g",
                       "--f2", "one", "--g2", "pascal_g",
                       "--depth", "5", "--format", "json")
    assert code == 0
    parsed = from_json_dict(json.loads(out))
    assert parsed == build_triangle(Series.one(4), Series([1, -2], 4), 5)


@pytest.mark.parametrize("argv, message", [
    (("inverse", "--f", "one", "--g", "[0,2]"), "divisor has zero constant term"),
    (("azseq", "--f", "[0,1]", "--g", "one"), "f must have a nonzero constant term"),
    (("product", "--f1", "one", "--g1", "one", "--f2", "one", "--g2", "[0,1]"),
     "divisor has zero constant term"),
])
def test_group_commands_refuse_a_zero_constant_term_with_exit_3(capsys, argv, message):
    # the matrices these commands never build still check their parameters
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: division domain error: {message}\n"


@pytest.mark.parametrize("argv, runs", [
    (("triangle", "--f", "one", "--g", "pascal_g"), 1),
    (("inverse", "--f", "one", "--g", "pascal_g"), 0),
    (("azseq", "--f", "one", "--g", "pascal_g"), 0),
    (("product", "--f1", "one", "--g1", "pascal_g", "--f2", "arithgeo", "--g2", "[2,1]"), 1),
], ids=["triangle", "inverse", "azseq", "product"])
def test_group_commands_build_only_the_blocks_they_read(capsys, monkeypatch, argv, runs):
    # inverse, azseq and product read only (f, g, depth) of their inputs, and the matrices
    # triangle, inverse and product print are never built: in each format, the one kernel
    # run for the output converts its columns to strings, an inverse's rows are filled by
    # the row rule of the table its parameters came from with no kernel run, and no row or
    # column of a block becomes Fractions
    converters, fractions = [], []
    original = triangles._division_columns

    def counting(*args):
        converters.append(args[-1])
        return original(*args)

    def recorded(*args):
        fractions.append(args)
        return series._fractions(*args)

    monkeypatch.setattr(triangles, "_division_columns", counting)
    monkeypatch.setattr(triangles, "_fractions", recorded)
    for fmt in ("json", "csv", "pretty"):
        converters.clear()
        code, _, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert converters == [series._strings] * runs
        assert fractions == []


@pytest.mark.parametrize("argv, message", [
    (("triangle", "--f", "one", "--g", "one", "--depth", "0"), "--depth: must be at least 1"),
    (("inverse", "--f", "one", "--g", "one", "--depth", "0"), "--depth: must be at least 1"),
    (("product", "--f1", "one", "--g1", "one", "--f2", "one", "--g2", "one",
      "--depth", "0"), "--depth: must be at least 1"),
    (("recip", "--f", "one", "--g", "one", "--precision", "-1"),
     "--precision: must be at least 0"),
    (("invert", "--omega", "[0,1]", "--precision", "-1"), "--precision: must be at least 0"),
    (("azseq", "--f", "one", "--g", "one", "--precision", "-1"),
     "--precision: must be at least 1"),
    (("azseq", "--f", "one", "--g", "one", "--precision", "0"),
     "--precision: must be at least 1"),
])
def test_size_below_minimum_names_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("size", [cli.MAX_SIZE + 1, 10 ** 20])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_size_over_the_cap_exits_2_before_any_work(capsys, command, size):
    # a call at the cap itself takes seconds, so only the rejection is run here
    spec = cli.COMMANDS[command]
    if isinstance(spec, cli.Command):
        flag, argv = f"--{spec.size}", [a for name in spec.series for a in (f"--{name}", "one")]
    else:
        flag, argv = "--steps", ["--scheme", "column"]
    code, out, err = run(capsys, command, *argv, flag, str(size))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {flag}: must be at most {cli.MAX_SIZE}"


# ----------------------------------------------------------------------
# argparse-level failures
# ----------------------------------------------------------------------

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["recip", "--f", "one"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    "triangle", "recip", "invert", "trace", "azseq", "inverse", "product",
])
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: riordan {command}" in capsys.readouterr().out


def test_main_builds_the_parser_once(capsys):
    # a plain argv is read off the flag table; the first argv left to argparse builds the
    # parser, and every later one reuses it
    cli._parser.cache_clear()
    assert run(capsys, "recip", "--f", "one", "--g", "pascal_g")[0] == 0
    assert run(capsys, "invert", "--omega", "[0,1,-1]")[0] == 0
    assert cli._parser.cache_info().misses == 0
    assert run(capsys, "invert", "--omega=[0,1,-1]")[0] == 0
    assert run(capsys, "recip", "--f", "one", "--g", "pascal_g", "--prec", "3")[0] == 0
    assert cli._parser.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert cli.build_parser() is not cli.build_parser()


def test_main_reads_sys_argv_on_both_paths(capsys, monkeypatch):
    cli._parser.cache_clear()
    outputs = []
    for argv in (["invert", "--omega", "[0,1,-1]", "--precision", "5"],
                 ["invert", "--omega=[0,1,-1]", "--precision", "5"]):
        monkeypatch.setattr(sys, "argv", ["riordan", *argv])
        assert main() == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ["x+x^2+2x^3+5x^4+14x^5\n"] * 2
    assert cli._parser.cache_info().misses == 1  # the second argv went to argparse


@pytest.mark.parametrize("argv", [
    ["triangle", "--f", "one", "--g", "[1,-1]", "--depth", "5", "--format", "csv"],
    ["recip", "--g", "pascal_g", "--f", "[0,1]"],
    ["invert", "--format", "json", "--omega", ""],
    ["trace", "--scheme", "column", "--n", "007", "--steps", "6"],
    ["azseq", "--f", "one", "--g", "one"],
    ["inverse", "--f", "one", "--g", "pascal_g", "--depth", "0"],
    ["product", "--f1", "one", "--g1", "one", "--f2", "x", "--g2", "one", "--depth", "9" * 640],
    # int spellings beyond ASCII digits: int() reads each, as argparse's type=int does
    ["recip", "--f", "one", "--g", "one", "--precision", " 6"],
    ["invert", "--omega", "[0,1]", "--precision", "+6"],
    ["azseq", "--f", "one", "--g", "one", "--precision", "6_0"],
    ["trace", "--scheme", "column", "--n", "\u0665"],
])
def test_the_plain_reader_reads_each_subcommand_as_argparse_does(argv):
    assert cli._read_plain(argv) == cli.build_parser().parse_args(argv)
