"""Property tests of the series ring (``*``, ``+`` and ``-`` against plain Fraction
sums and convolution), of the Riordan group (products, inverses, shifts and the
JSON round trip) and its action on series, at depths 1..8, of
compositional inversion, at precisions 1..10, with sparse
small-integer and dense rational parameters, of the division kernel,
at precisions 0..40, on cofactors with random zero patterns, of its
integer-to-text boundary, on integers of any sign and size, and of the
command line: every argv exits 0, 2 or 3, the plain reader returns argparse's
Namespace or leaves the argv to it, and a literal reads back its series.

Every example is derandomized, so the suite draws the same cases on every
run."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from riordan import cli
from riordan.fixpoint import _integer_columns, reciprocal
from riordan.reversion import invert_series, verify_lagrange
from riordan.series import Series, _strings
from riordan.triangles import build_triangle, from_json_dict, identity

from oracles import coeffs, convolve, divide, divided_columns, division_scale, matrix_vector
from test_triangles import composed_product

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

SPARSE = st.sampled_from((0, 0, 0, -1, 1, 2)).map(F)
DENSE = st.fractions(min_value=-4, max_value=4, max_denominator=3)


# primes near 10**4 and two Mersenne primes: every denominator coprime to every other
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 2**61 - 1, 2**89 - 1)
RING_KINDS = (
    SPARSE,
    DENSE,
    st.integers(-9, 9).map(F),  # integers only: the operands' scale is 1
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
)


@st.composite
def ring_operands(draw):
    """Two series of independent precisions 0..12, each on its own coefficient kind."""
    def series():
        kind = draw(st.sampled_from(RING_KINDS))
        return Series(draw(st.lists(kind, min_size=1, max_size=13)), draw(st.integers(0, 12)))

    return series(), series()


@settings(PROPERTY, max_examples=200)
@given(ring_operands())
@example((Series.zero(5), Series([F(1, 3), -2, F(5, 7)], 3)))  # an all-zero operand
@example((Series.zero(4), Series.zero(6)))
@example((Series([3, -1, 0, 4], 8), Series([-2, 5, 7], 6)))  # all integers
@example((Series([F(-1, p) for p in PRIMES]), Series([F(p + 1, q) for p, q in zip(PRIMES, PRIMES[1:])])))
def test_ring_operations_match_fraction_arithmetic(pair):
    a, b = pair
    p = min(a.precision, b.precision)
    ac, bc = coeffs(a), coeffs(b)
    product = convolve(ac, bc, p)
    for got, expected in (
        (a * b, product),
        (b * a, product),
        (a + b, [x + y for x, y in zip(ac, bc)]),
        (a - b, [x - y for x, y in zip(ac, bc)]),
    ):
        assert got.precision == p
        assert coeffs(got) == expected
        assert all(type(c) is F for c in got.coefficients)


@st.composite
def panels(draw, matrices, extra=0):
    """A depth, ``matrices`` Riordan matrices of that depth and a series
    ``h``, all on one coefficient kind and at precision ``depth - 1 + extra``."""
    depth = draw(st.integers(1, 8))
    kind = draw(st.sampled_from((SPARSE, DENSE)))
    size = depth - 1 + extra

    def series(nonzero_constant):
        head = draw(kind.filter(bool) if nonzero_constant else kind)
        return Series([head] + draw(st.lists(kind, min_size=size, max_size=size)))

    ts = [build_triangle(series(True), series(True), depth) for _ in range(matrices)]
    return ts, series(False)


@PROPERTY
@given(panels(3))
def test_product_is_associative(panel):
    (a, b, c), _ = panel
    assert (a @ b) @ c == a @ (b @ c)


@PROPERTY
@given(panels(1))
def test_identity_on_both_sides(panel):
    (a,), _ = panel
    one = identity(a.depth)
    assert a @ one == a
    assert one @ a == a


@PROPERTY
@given(panels(2))
def test_apply_of_a_product_is_apply_twice(panel):
    (a, b), h = panel
    assert (a @ b).apply(h) == a.apply(b.apply(h))


@PROPERTY
@given(panels(1))
def test_apply_is_a_matrix_vector_product(panel):
    (t,), h = panel
    expected = matrix_vector(coeffs(t.f), coeffs(t.g), coeffs(h), t.depth - 1)
    assert coeffs(t.apply(h)) == expected


@PROPERTY
@given(panels(2))
def test_product_parameters_match_the_composition_formulas(panel):
    (a, b), _ = panel
    ab = a @ b
    assert (ab.f, ab.g) == composed_product(a, b)  # coefficients and precision


@PROPERTY
@given(panels(1))
def test_inverse_on_both_sides(panel):
    (t,), _ = panel
    inv = t.inverse()
    assert t @ inv == identity(t.depth) == inv @ t


@PROPERTY
@given(panels(1))
def test_inverse_via_sequences_is_the_inverse(panel):
    (t,), _ = panel
    assume(t.depth >= 2)  # the sequences need two rows
    assert t.inverse_via_sequences() == t.inverse()


@PROPERTY
@given(panels(1, extra=3), st.integers(1, 3))
def test_shift_round_trip(panel, m):
    (t,), _ = panel
    p = t.depth + m - 1  # the precision a prepend of m columns needs
    t = build_triangle(t.f.truncate(p), t.g.truncate(p), t.depth)
    assert t.shift(m).shift(-m) == t


@PROPERTY
@given(panels(1))
def test_json_round_trip(panel):
    (t,), _ = panel
    assert from_json_dict(json.loads(t.to_json())) == t


@st.composite
def order_one(draw):
    """A precision ``p`` in 1..10 and an order-1 ``omega`` at ``p + 1``."""
    p = draw(st.integers(1, 10))
    kind = draw(st.sampled_from((SPARSE, DENSE)))
    tail = draw(st.lists(kind, min_size=p, max_size=p))
    return Series([F(0), draw(kind.filter(bool))] + tail), p


@PROPERTY
@given(order_one())
def test_reversion_is_two_sided(case):
    omega, p = case
    y = invert_series(omega, p)
    assert omega.truncate(p).compose(y) == Series.x(p)
    assert y.compose(omega.truncate(p)) == Series.x(p)
    for k in range(p + 1):
        assert invert_series(omega, k) == y.truncate(k)


@PROPERTY
@given(order_one(), st.lists(DENSE, min_size=1, max_size=3))
def test_reversion_reads_omega_only_through_its_degree(case, tail):
    omega, p = case
    cut = omega.truncate(p)
    longer = Series(coeffs(cut) + tail)
    assert invert_series(longer, p) == invert_series(cut, p)
    assert verify_lagrange(longer, p) == verify_lagrange(cut, p)


TAP = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def quotients(draw):
    """A precision ``p`` in 0..40, a cofactor ``g`` whose constant may be
    fractional or negative and whose nonzero taps sit at random degrees (so
    with gaps before, between and after them), and ``f`` of any order."""
    p = draw(st.integers(0, 40))
    g = [draw(TAP.filter(bool))] + [F(0)] * p
    if p:  # taps within a short reach repeat their scale pattern well inside p
        reach = draw(st.sampled_from((min(p, 4), min(p, 8), p)))
        for j in draw(st.lists(st.integers(1, reach), max_size=6, unique=True)):
            g[j] = draw(TAP.filter(bool))
    order = draw(st.integers(0, p + 1))
    f = [F(0)] * order + draw(st.lists(DENSE, min_size=p + 1 - order, max_size=p + 1 - order))
    return Series(f), Series(g), p


@PROPERTY
@given(quotients())
def test_division_kernel_matches_back_substitution(case):
    f, g, p = case
    fc, gc = coeffs(f), coeffs(g)
    assert coeffs(reciprocal(f, g, p)) == divide(fc, gc, p)
    head = [fc[0] or F(1)] + fc[1:]  # a triangle needs f0 != 0
    t = build_triangle(Series(head), g, p + 1)
    assert [coeffs(t.column_series(k)) for k in range(p + 1)] == divided_columns(head, gc, p, p + 1)
    # the scale is delta_m = lcm_j den(g_j/g0)*delta_(m-j), whatever the zero pattern
    assert _integer_columns(f, g, p, 1)[2] == division_scale(gc, p)



# numerators and positive denominators past any fixed width, with 0, 1 and -1 among them
HUGE = 1 << 400
NUMERATORS = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-9, 9), st.integers(-HUGE, HUGE))
DENOMINATORS = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, HUGE))


@settings(PROPERTY, max_examples=200)
@given(st.lists(st.tuples(NUMERATORS, DENOMINATORS), max_size=12), st.booleans())
@example([(0, 7), (-6, 4), (-HUGE, HUGE), (HUGE + 1, 1)], False)
@example([(0, 1), (-5, 1), (-HUGE, 1)], False)
def test_strings_are_the_strings_of_the_reduced_fractions(pairs, unit):
    # the kernel's integer-to-text boundary prints what str(Fraction(n, d)) prints, for a
    # list of unit denominators (no gcd) and any other; nums may be an iterator
    nums = [n for n, _ in pairs]
    dens = [1] * len(pairs) if unit else [d for _, d in pairs]
    want = [str(F(n, d)) for n, d in zip(nums, dens)]
    assert _strings(nums, dens) == want
    assert _strings(iter(nums), dens) == want


SIZES = st.one_of(st.integers(-2, 30), st.sampled_from((cli.MAX_SIZE + 1, 10 ** 20)))
LITERALS = st.one_of(
    st.sampled_from(sorted(cli.PRESETS)),
    st.lists(SPARSE, min_size=1, max_size=8).map(lambda cs: json.dumps([int(c) for c in cs])),
    st.lists(DENSE, min_size=1, max_size=8).map(lambda cs: json.dumps([str(c) for c in cs])),
    st.sampled_from(("[1.5]", "[true]", "[[1]]", '["1/0"]', "[]", "{1", "x", '["1/2", null]')),
)


# values the plain reader leaves to argparse: a leading dash, int spellings that int()
# accepts and an ASCII-digit test does not, a digit int() refuses, and 4301 digits, one past
# int()'s limit; and a leading zero, which both read
UNUSUAL_VALUES = ("-1", "--g", "+5", " 5", "5_0", "\u0665", "\u00b2", "9" * 4301, "007")


@st.composite
def argvs(draw):
    """An argv for ``riordan``: a known or unknown subcommand, each of its
    flags present or missing, sizes in -2..30 or over the cap, literals valid
    or not, any format, and now and then a flag no subcommand has.  Now and
    then a flag is spelled as only argparse reads it (``--flag=value``, an
    abbreviation, twice, or with an unusual value) and a ``-h`` or ``--`` is put in."""
    command = draw(st.sampled_from((*cli.COMMANDS, "frobnicate")))
    spec = cli.COMMANDS.get(command)
    if isinstance(spec, cli.Command):
        flags = [(f"--{name}", LITERALS) for name in spec.series] + [(f"--{spec.size}", SIZES)]
    else:
        schemes = st.sampled_from(("geometric", "arithgeo", "column", "curious", "spiral"))
        flags = [("--scheme", schemes), ("--steps", SIZES), ("--n", SIZES)]
    flags += [("--format", st.sampled_from(("json", "csv", "pretty") * 3 + ("xml",))),
              ("--bogus", st.just("1"))]
    argv = [command]
    for flag, values in flags:
        if draw(st.integers(0, 19)) >= (1 if flag == "--bogus" else 19):
            continue
        value = str(draw(values))
        spelling = draw(st.integers(0, 39))
        if spelling == 0:
            argv.append(f"{flag}={value}")
        elif spelling == 1 and len(flag) > 3:  # --prec picks one flag, --s under trace two
            argv += [flag[: draw(st.integers(3, len(flag) - 1))], value]
        elif spelling == 2:
            argv += [flag, value, flag, str(draw(values))]
        elif spelling == 3:
            argv += [flag, draw(st.sampled_from(UNUSUAL_VALUES))]
        else:
            argv += [flag, value]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(("-h", "--"))))
    return argv


@settings(PROPERTY, max_examples=200)
@given(argvs())
def test_cli_exits_0_2_or_3_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's help, on stdout, and usage errors, on stderr
            streams = bool(out.getvalue()), err.getvalue().startswith("usage: ")
            assert (exc.code, *streams) in ((0, True, False), (2, False, True))
            return
    assert code in (0, 2, 3)
    assert bool(out.getvalue()) == (code == 0)
    assert err.getvalue().startswith("error: ") == (code != 0)


@settings(PROPERTY, max_examples=300)
@given(argvs())
@example(["recip", "--prec", "3", "--f", "one", "--g", "one"])
@example(["trace", "--scheme", "column", "--s", "5"])
@example(["invert", "--omega=[0,1]"])
@example(["recip", "--f", "one", "--g", "one", "--format", "xml", "--format", "json"])
@example(["azseq", "--f", "one", "--g", "one", "-h"])
@example(["azseq", "--f", "one", "--", "--g", "one"])
@example(["recip", "--f", "-1", "--g", "one"])
@example(["recip", "--f", "--g", "--g", "one"])
@example(["trace", "--scheme", "column", "--n", "\u0665"])
@example(["trace", "--scheme", "column", "--n", "\u00b2"])
@example(["trace", "--scheme", "column", "--n", "9" * 4301])
def test_the_plain_reader_returns_argparses_namespace_or_none(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = cli._parser().parse_args(argv)
        except SystemExit:  # help or a usage error: the reader must leave the argv
            parsed = None
    read = cli._read_plain(argv)
    assert read is None or read == parsed


@PROPERTY
@given(st.sampled_from((SPARSE, DENSE)).flatmap(lambda kind: st.lists(kind, min_size=1,
                                                                      max_size=12)))
def test_cli_literal_reads_back_its_series(coefficients):
    s = Series(coefficients)
    assert cli.parse_series_arg(json.dumps(s.to_strings()), s.precision, "f") == s
