"""Property tests of the Riordan group (products, inverses, shifts and the
JSON round trip) and its action on series, at depths 1..8, of
compositional inversion, at precisions 1..10, with sparse
small-integer and dense rational parameters, of the division kernel,
at precisions 0..40, on cofactors with random zero patterns, and of the
command line: every argv exits 0, 2 or 3, and a literal reads back its series.

Every example is derandomized, so the suite draws the same cases on every
run."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from riordan import cli
from riordan.fixpoint import _integer_columns, reciprocal
from riordan.reversion import invert_series
from riordan.series import Series
from riordan.triangles import build_triangle, from_json_dict, identity

from oracles import coeffs, divide, divided_columns, division_scale, list_power
from test_triangles import composed_product

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

SPARSE = st.sampled_from((0, 0, 0, -1, 1, 2)).map(F)
DENSE = st.fractions(min_value=-4, max_value=4, max_denominator=3)


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
    p = t.depth - 1
    fc, gc, hc = coeffs(t.f), coeffs(t.g), coeffs(h)
    columns = [divide([F(0)] * k + fc, list_power(gc, k + 1, p), p) for k in range(p + 1)]
    expected = [sum((columns[k][n] * hc[k] for k in range(n + 1)), F(0)) for n in range(p + 1)]
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


SIZES = st.one_of(st.integers(-2, 30), st.sampled_from((cli.MAX_SIZE + 1, 10 ** 20)))
LITERALS = st.one_of(
    st.sampled_from(sorted(cli.PRESETS)),
    st.lists(SPARSE, min_size=1, max_size=8).map(lambda cs: json.dumps([int(c) for c in cs])),
    st.lists(DENSE, min_size=1, max_size=8).map(lambda cs: json.dumps([str(c) for c in cs])),
    st.sampled_from(("[1.5]", "[true]", "[[1]]", '["1/0"]', "[]", "{1", "x", '["1/2", null]')),
)


@st.composite
def argvs(draw):
    """An argv for ``riordan``: a known or unknown subcommand, each of its
    flags present or missing, sizes in -2..30 or over the cap, literals valid
    or not, any format, and now and then a flag no subcommand has."""
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
        if draw(st.integers(0, 19)) < (1 if flag == "--bogus" else 19):
            argv += [flag, str(draw(values))]
    return argv


@settings(PROPERTY, max_examples=200)
@given(argvs())
def test_cli_exits_0_2_or_3_on_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2
            return
    assert code in (0, 2, 3)
    assert bool(out.getvalue()) == (code == 0)
    assert err.getvalue().startswith("error: ") == (code != 0)


@PROPERTY
@given(st.sampled_from((SPARSE, DENSE)).flatmap(lambda kind: st.lists(kind, min_size=1,
                                                                      max_size=12)))
def test_cli_literal_reads_back_its_series(coefficients):
    s = Series(coefficients)
    assert cli.parse_series_arg(json.dumps(s.to_strings()), s.precision, "f") == s
