"""Tests for Riordan matrix construction, the group operations, A/Z
sequences, shifts and serialization."""

import functools
import json
import math
import random
from fractions import Fraction as F
from itertools import chain

import pytest

from riordan import fixpoint, reversion, triangles
from riordan.fixpoint import _integer_columns, reciprocal
from riordan.reversion import invert_series, verify_lagrange
from riordan.series import DomainError, PrecisionError, Series
from riordan.triangles import (
    appell,
    associated,
    bell,
    build_triangle,
    from_classical,
    from_json_dict,
    identity,
)

from oracles import (
    AG_MATRIX,
    ag_triangle,
    coeffs,
    compositional_inverse,
    convolve,
    divide,
    divided_columns,
    invert_lower_triangular,
    list_power,
    matmul_lower,
    matrix_vector,
    past_precision,
    pascal,
    random_fraction,
    random_matrix,
    random_series,
    shifted_entry_oracle,
)
from test_fixpoint import KERNEL_COFACTORS


def rows_as_int(t):
    return [[int(e) for e in row] for row in t.entries]


def sparse_series(rng, precision):
    """Small integer, mostly zero coefficients and a nonzero constant term."""
    tail = [rng.choice((0, 0, 0, -1, 1, 2)) for _ in range(precision)]
    return Series([rng.choice((-2, -1, 1, 2))] + tail)


def composed_product(a, b):
    """The parameters ``(f1 * f2(x/g1), g1 * g2(x/g1))`` of ``a @ b``, each
    substitution a Horner ``Series.compose``: the reference path for
    ``RiordanMatrix.product``."""
    p = a.depth - 1
    x_over_g = reciprocal(Series.one(p), a.g, p).shift(1)
    return (a.f.truncate(p) * b.f.compose(x_over_g),
            a.g.truncate(p) * b.g.compose(x_over_g))


def composed_apply(t, h):
    """``(f/g) * h(x/g)`` from the classical pair by ``Series.compose``: the
    reference path for ``RiordanMatrix.apply``."""
    d, x_over_g = t.to_classical()
    return d * h.compose(x_over_g)


def composed_inverse(t):
    """``(1/f(w), 1/g(w))`` with ``w`` the oracle's compositional inverse of
    ``x/g`` and each substitution a Horner ``Series.compose``: the reference
    path for ``RiordanMatrix.inverse``."""
    p = t.depth - 1
    x_over_g = reciprocal(Series.one(p), t.g, p).shift(1)
    w = Series(compositional_inverse(coeffs(x_over_g), p))
    return (reciprocal(Series.one(p), t.f.compose(w), p),
            reciprocal(Series.one(p), t.g.compose(w), p))


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_pascal_rows():
    t = pascal(5)
    assert rows_as_int(t) == [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1], [1, 4, 6, 4, 1]]


def test_identity_matrix():
    t = build_triangle(Series.one(3), Series.one(3), 4)
    assert rows_as_int(t) == [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1]]
    assert t == identity(4)


def test_arithgeo_remainder_triangle():
    assert rows_as_int(ag_triangle()) == AG_MATRIX


def test_zero_constant_terms_rejected():
    with pytest.raises(DomainError):
        build_triangle(Series([0, 1], 3), Series.one(3), 4)
    with pytest.raises(DomainError):
        build_triangle(Series.one(3), Series([0, 1], 3), 4)


def test_precision_checked():
    with pytest.raises(PrecisionError):
        build_triangle(Series.one(2), Series([1, -1], 9), 10)


def test_columns_match_independent_division():
    rng = random.Random(31)
    depth = 8
    for _ in range(5):
        t = random_matrix(rng, depth)
        fc, gc = coeffs(t.f), coeffs(t.g)
        for k in range(depth):
            expected = divide(([F(0)] * k) + fc, list_power(gc, k + 1, depth - 1),
                              depth - 1)
            assert coeffs(t.column_series(k)) == expected


@pytest.mark.parametrize("g0", (1, -1, 3, F(-3, 2), F(2, 3)))
def test_columns_match_oracle_at_bigint_sizes(g0):
    # every column x^k f / g^(k+1) at depth 40, against back substitution
    # by the oracle's power g^(k+1), built one convolution per column
    rng = random.Random(32)
    depth = 40
    p = depth - 1
    taps = [random_fraction(rng, maxden=7) for _ in range(2 * p)]
    f = Series([random_fraction(rng, maxden=7, nonzero=True)] + taps[:p])
    g = Series([g0] + taps[p:])
    t = build_triangle(f, g, depth)
    power = [F(1)] + [F(0)] * p
    for k in range(depth):
        power = convolve(power, coeffs(g), p)
        assert coeffs(t.column_series(k)) == divide([F(0)] * k + coeffs(f), power, p)
    assert all(type(e) is F for row in t.entries for e in row)
    wide = build_triangle(past_precision(f, p), past_precision(g, p), depth)
    assert wide.entries == t.entries


@pytest.mark.parametrize("make", [
    identity,
    lambda depth: appell(Series.one(3), depth),
    lambda depth: bell(Series([1, 1], 3), depth),
    lambda depth: associated(Series([1, 1], 3), depth),
    lambda depth: from_classical(Series.one(3), Series([0, 1], 4), depth),
], ids=["identity", "appell", "bell", "associated", "from_classical"])
@pytest.mark.parametrize("depth", [0, -1])
def test_constructors_reject_depth_below_one(make, depth):
    with pytest.raises(ValueError, match=r"^depth must be at least 1$"):
        make(depth)


def test_depth_one_is_the_constant_quotient():
    t = build_triangle(Series([F(2, 3), F(1, 49)]), Series([F(-3, 2), 5]), 1)
    assert t.entries == ((F(-4, 9),),)
    assert type(t.entries[0][0]) is F


def test_entry_and_row_access():
    t = pascal(5)
    assert t.entry(4, 2) == 6
    assert t.entry(1, 3) == 0  # above the diagonal
    assert t.row(2) == (1, 2, 1)
    with pytest.raises(IndexError):
        t.entry(5, 0)
    # above the diagonal, but past the last column
    with pytest.raises(IndexError, match=r"^entry \(0, 99\) outside a depth-5 matrix$"):
        t.entry(0, 99)
    for n in (-1, 5):
        with pytest.raises(IndexError, match=f"^row {n} outside a depth-5 matrix$"):
            t.row(n)


CLASSICAL_AT_5 = r"^classical construction at depth 5 needs d at precision 4 and h at 5$"


@pytest.mark.parametrize("build, error, message", [
    (lambda: pascal(5).column_series(5), IndexError, r"^column 5 outside a depth-5 matrix$"),
    (lambda: pascal(5).column_series(-1), IndexError, r"^column -1 outside a depth-5 matrix$"),
    (lambda: from_classical(Series.one(3), Series([0, 1], 5), 5), PrecisionError, CLASSICAL_AT_5),
    (lambda: from_classical(Series.one(4), Series([0, 1], 4), 5), PrecisionError, CLASSICAL_AT_5),
], ids=["column past the depth", "negative column", "short d", "short h"])
def test_column_and_classical_reads_are_bounded(build, error, message):
    with pytest.raises(error, match=message):
        build()


# ----------------------------------------------------------------------
# entries built on first read
# ----------------------------------------------------------------------

def sparse_gapped_dense(rng, depth):
    """Parameters ``(f, g)`` for a depth-``depth`` matrix: a sparse pair, a pair with a
    gap of zeros after the constant term, and a dense pair."""
    p = depth - 1

    def sparse(gap):
        cs = [random_fraction(rng, nonzero=True)] + [F(0)] * p
        for i in rng.sample(range(gap + 1, depth), min(2, p - gap)):
            cs[i] = random_fraction(rng, nonzero=True)
        return Series(cs)

    return [(sparse(0), sparse(0)), (sparse(depth // 2), sparse(depth // 2)),
            (random_series(rng, p, True), random_series(rng, p, True))]


def test_entries_built_on_first_read_equal_the_eager_build():
    rng = random.Random(21)
    for depth in range(1, 16):
        for f, g in sparse_gapped_dense(rng, depth):
            lazy, eager = triangles.RiordanMatrix(f, g, depth), build_triangle(f, g, depth)
            assert "entries" not in vars(lazy) and "entries" in vars(eager)
            assert lazy == eager and hash(lazy) == hash(eager)
            assert lazy.entries == eager.entries


@pytest.mark.parametrize("read", [
    lambda m: m.inverse(),
    lambda m: m.a_z_sequences(),
    lambda m: m.inverse_via_sequences(),
    lambda m: pascal(m.depth) @ m,
    lambda m: m @ pascal(m.depth),
    lambda m: m.apply(Series([1, F(-1, 2), 0, 3], m.depth - 1)),
    lambda m: m.to_classical(),
], ids=["inverse", "a_z_sequences", "inverse_via_sequences", "right operand of @",
        "left operand of @", "apply", "to_classical"])
def test_parameter_operations_leave_the_entries_unbuilt(read):
    rng = random.Random(22)
    for depth in (2, 5, 9):
        for f, g in sparse_gapped_dense(rng, depth):
            m = triangles.RiordanMatrix(f, g, depth)
            result = read(m)
            assert "entries" not in vars(m)
            assert result == read(build_triangle(f, g, depth))


def test_build_triangle_builds_the_entries_at_once():
    # the quotients benchmark times build_triangle: its entries must not wait for a reader
    assert "entries" in vars(build_triangle(Series([1, 2], 3), Series([3, -1], 3), 4))
    assert "entries" in vars(pascal(1))


@pytest.mark.parametrize("f, g, depth, error, message", [
    (Series([0, 1], 3), Series([1, 1], 3), 4, DomainError,
     "division domain error: f must have a nonzero constant term"),
    (Series([1, 1], 3), Series([0, 1], 3), 4, DomainError,
     "division domain error: divisor has zero constant term"),
    (Series.one(3), Series.one(3), 0, ValueError, "depth must be at least 1"),
    (Series.one(3), Series.one(3), -2, ValueError, "depth must be at least 1"),
    (Series.one(2), Series([1, -1], 3), 4, PrecisionError,
     "division to degree 3 needs both operands at that precision"),
    (Series.one(3), Series([1, -1], 2), 4, PrecisionError,
     "division to degree 3 needs both operands at that precision"),
], ids=["f0", "g0", "depth0", "depth-2", "f-precision", "g-precision"])
def test_construction_checks_the_parameters_before_any_entry(monkeypatch, f, g, depth,
                                                              error, message):
    def no_build(*args):
        raise AssertionError("an entry was built before the parameters were checked")

    monkeypatch.setattr(triangles, "_division_columns", no_build)
    for make in (triangles.RiordanMatrix, build_triangle):
        with pytest.raises(error) as raised:
            make(f, g, depth)
        assert type(raised.value) is error and str(raised.value) == message


# ----------------------------------------------------------------------
# the linear-map action
# ----------------------------------------------------------------------

def test_apply_one_gives_first_column():
    t = pascal(6)
    assert t.apply(Series.one(6)) == Series([1] * 6)


def test_apply_identity_matrix():
    h = Series([3, 1, 4, 1, 5, 9])
    assert identity(6).apply(h) == h.truncate(5)


def test_apply_matches_matrix_vector_product():
    rng = random.Random(32)
    depth = 7
    for _ in range(5):
        t = random_matrix(rng, depth)
        h = random_series(rng, depth)
        got = t.apply(h)
        for n in range(depth):
            expected = sum((t.entry(n, k) * h[k] for k in range(n + 1)), F(0))
            assert got[n] == expected


def test_apply_pascal_sums_first_two_columns():
    t = pascal(6)
    got = t.apply(Series([1, 1], 6))
    expected = Series([t.entry(n, 0) + t.entry(n, 1) for n in range(6)])
    assert got == expected


def matrix_times(t, hc):
    """The entry block times the coefficient list ``hc``, in plain Fraction sums."""
    return [sum((t.entry(n, k) * hc[k] for k in range(n + 1)), F(0)) for n in range(t.depth)]


MIXED_ROWS = {  # rows whose entries have different denominators
    "bell": bell(Series([1, F(1, 3), 2, F(-2, 7)]).pad(9), 10),
    "from_classical": from_classical(Series([F(1, 2), F(-1, 3), 0, F(5, 11)], 9),
                                     Series([0, 1, F(2, 5), 0, F(-1, 7)], 10), 10),
}


@pytest.mark.parametrize("name", MIXED_ROWS)
@pytest.mark.parametrize("hc", [
    [F(1, 2), 0, 0, F(-3, 5), 0, 0, 0, 4, 0, F(7, 9)],  # zero gaps
    [0, 0, 0, 0, 0, 0, 0, 0, 0, F(1, 13)],  # only the last row reads h
    [0] * 10,
    [3, -1, 4, 1, -5, 9, 2, -6, 5, 3],  # integers
], ids=["gaps", "last", "zero", "integers"])
def test_apply_on_rows_of_mixed_denominators(name, hc):
    t = MIXED_ROWS[name]
    assert len({e.denominator for e in t.row(9)}) > 1
    got = t.apply(Series(hc))
    assert got.precision == t.depth - 1
    assert coeffs(got) == matrix_times(t, [F(c) for c in hc])
    assert all(type(c) is F for c in got.coefficients)


def test_apply_reads_h_only_through_the_last_row():
    t = MIXED_ROWS["bell"]
    h = Series([F(1, 2), 0, 3, 0, 0, F(-1, 4), 0, 0, 0, 1])
    assert t.apply(past_precision(h, 9)) == t.apply(h)
    assert t.apply(Series(coeffs(h) + [F(1, 10**30)], 14)).precision == 9


def test_apply_needs_h_through_the_last_row():
    with pytest.raises(PrecisionError, match="apply needs the argument at precision 9"):
        MIXED_ROWS["bell"].apply(Series([1, 2, 3], 8))


@pytest.mark.parametrize("make_series", [
    sparse_series,
    functools.partial(random_series, nonzero_constant=True),
], ids=["sparse", "dense"])
def test_apply_and_product_match_the_composition_formulas(make_series):
    rng = random.Random(45)
    top = 24
    f1, g1, f2, g2, h = (make_series(rng, top) for _ in range(5))
    for depth in range(1, top + 2):
        p = depth - 1
        a = build_triangle(f1.truncate(p), g1.truncate(p), depth)
        b = build_triangle(f2.truncate(p), g2.truncate(p), depth)
        ab = a @ b
        # Series equality compares the coefficient tuples, so precision too
        assert (ab.f, ab.g) == composed_product(a, b)
        assert a.apply(h) == composed_apply(a, h)


@pytest.mark.parametrize("g1", [
    [F(-3, 2), 1, F(2, 5)],
    # the taps g_j/g0 have no common base, so the kernel's scale takes the window path
    coeffs(KERNEL_COFACTORS["gapped"]),
    [F(-3, 2), 0, F(1, 5), 0, 0, F(2, 7)],
], ids=["g0=-3/2", "gapped", "g0=-3/2 gapped"])
@pytest.mark.parametrize("depth", [1, 2, 30])
def test_product_and_apply_from_the_parameters(g1, depth):
    # @ and apply sum the kernel's integer columns of the left operand: neither operand
    # builds its entries, and the sums equal the composition and the divided columns
    p = depth - 1
    rng = random.Random(48)
    a = triangles.RiordanMatrix(random_series(rng, p, nonzero_constant=True), Series(g1, p), depth)
    b = triangles.RiordanMatrix(Series([F(1, 2), 0, 0, -3, 0, F(2, 9)], p),
                                Series([-2, 0, F(5, 3), 0, 0, 0, 1], p), depth)
    h = Series([0, 0, F(-4, 7), 0, 1, 0, 0, 0, F(1, 3)], p)
    ab, got = a @ b, a.apply(h)
    assert "entries" not in vars(a) and "entries" not in vars(b)
    assert (ab.f, ab.g) == composed_product(a, b)
    assert got.precision == p
    assert coeffs(got) == matrix_vector(coeffs(a.f), coeffs(a.g), coeffs(h), p)


@pytest.mark.parametrize("make_series", [
    sparse_series,
    functools.partial(random_series, nonzero_constant=True),
], ids=["sparse", "dense"])
@pytest.mark.parametrize("extra", [0, 3], ids=["exact", "longer"])
def test_inverse_and_a_z_match_the_composition_formula(make_series, extra):
    rng = random.Random(46)
    top = 24
    f, g = (make_series(rng, top + extra) for _ in range(2))
    for depth in range(1, top + 2):
        # parameters at precision depth - 1 + extra
        t = build_triangle(f.truncate(depth - 1 + extra), g.truncate(depth - 1 + extra), depth)
        f_inv, g_inv = composed_inverse(t)
        inv = t.inverse()
        # Series equality compares the coefficient tuples, so precision too
        assert (inv.f, inv.g) == (f_inv, g_inv)
        if depth >= 2:
            pair = t.a_z_sequences()
            z_seq = (g_inv - f_inv * (t.f[0] / t.g[0])).shift(-1)
            assert (pair.a_seq, pair.z_seq) == (g_inv, z_seq)


@pytest.mark.parametrize("g", [[F(-3, 2), 1, F(2, 5)], [1, 0, 0, -2],
                               [F(-2, 3), 0, F(1, 5), 0, -1]],
                         ids=["quadratic", "cubic", "gapped"])
def test_inverse_and_a_z_of_polynomial_cofactors_at_depth_40(g):
    # the reversion of x/g runs on g's deg g + 1 taps only
    depth = 40
    t = build_triangle(Series([1, F(1, 3), 2], depth - 1), Series(g, depth - 1), depth)
    f_inv, g_inv = composed_inverse(t)
    inv = t.inverse()
    assert (inv.f, inv.g) == (f_inv, g_inv)
    pair = t.a_z_sequences()
    z_seq = (g_inv - f_inv * (t.f[0] / t.g[0])).shift(-1)
    assert (pair.a_seq, pair.z_seq) == (g_inv, z_seq)


@pytest.mark.parametrize("build", [
    lambda rng, depth: bell(random_series(rng, depth - 1, nonzero_constant=True), depth),
    lambda rng, depth: associated(random_series(rng, depth - 1, nonzero_constant=True), depth),
    lambda rng, depth: from_classical(random_series(rng, depth - 1, nonzero_constant=True),
                                      random_series(rng, depth - 1, nonzero_constant=True).shift(1),
                                      depth),
], ids=["bell", "associated", "from_classical"])
def test_inverse_and_a_z_of_dense_cofactors_at_depth_30(build):
    # g = 1/d, 1/h or x/h is dense, with denominators that grow with the degree
    t = build(random.Random(47), 30)
    f_inv, g_inv = composed_inverse(t)
    inv = t.inverse()
    assert (inv.f, inv.g) == (f_inv, g_inv)
    pair = t.a_z_sequences()
    z_seq = (g_inv - f_inv * (t.f[0] / t.g[0])).shift(-1)
    assert (pair.a_seq, pair.z_seq) == (g_inv, z_seq)


def result_coefficients(*results):
    """Every coefficient of the given series and matrices: parameters and entries."""
    for r in results:
        if isinstance(r, Series):
            yield from r.coefficients
        else:
            yield from chain(r.f.coefficients, r.g.coefficients, *r.entries)


@pytest.mark.parametrize("f", [[1, -1, 0, 3], [F(2, 3), F(-1, 2), 0, F(5, 7)]],
                         ids=["integer f", "rational f"])
@pytest.mark.parametrize("g", [[-1, 1, 0, 2], [-2, 0, 1, -1], [F(-3, 2), 1, F(2, 5)],
                               [1, -1], [1] * 12, [2, -1, 0, 1], [F(1, 2), 1, 0, -1]],
                         ids=["g0=-1", "g0=-2", "g0=-3/2", "1-x", "1/(1-x)", "g0=2", "g0=1/2"])
def test_results_are_reduced_fractions_that_match_the_oracles(f, g):
    # the sign of g0 goes to the numerators, so every denominator the kernel and the
    # table hand to series._fractions is positive, and the int path gives the same values
    depth = 12
    p = depth - 1
    fs, gs, h = Series(f, p), Series(g, p), Series([F(1, 3), -2, 0, 1], p)
    fc, gc = coeffs(fs), coeffs(gs)
    t = build_triangle(fs, gs, depth)
    ab, inv, pair = t @ t, t.inverse(), t.a_z_sequences()
    x_over_g = [F(0)] + divide([F(1)], gc, p)
    w, quotient, image = invert_series(Series(x_over_g), p), reciprocal(fs, gs, p), t.apply(h)
    for c in result_coefficients(t, ab, inv, pair.a_seq, pair.z_seq, w, quotient, image):
        assert type(c) is F and c.denominator > 0
    rows = [list(row) for row in t.entries]
    columns = divided_columns(fc, gc, p, depth)
    assert rows == [[columns[k][n] for k in range(n + 1)] for n in range(depth)]
    assert coeffs(quotient) == columns[0]
    assert coeffs(image) == matrix_vector(fc, gc, coeffs(h), p)
    assert [list(row) for row in ab.entries] == matmul_lower(rows, rows)
    assert [list(row) for row in inv.entries] == invert_lower_triangular(rows)
    assert coeffs(w) == compositional_inverse(x_over_g, p)
    assert (inv.f, inv.g) == composed_inverse(t)
    assert pair.a_seq == inv.g


def test_integer_results_take_the_int_path_of_fraction(monkeypatch):
    # where every denominator is 1 the package builds its Fractions by Fraction(n), with
    # no gcd: no call through series.Fraction passes a denominator of 1 (or -1, a sign
    # that was not folded into the numerator); the recorder is no type, so the runs
    # avoid the scalar operations, which test isinstance(..., Fraction)
    depth = 40
    p = depth - 1
    a = build_triangle(Series([1], p), Series([1, -1], p), depth)
    b = triangles.RiordanMatrix(Series([1, 0, 0, -2], p), Series([-1, 0, 1], p), depth)
    c = triangles.RiordanMatrix(Series([2, -1, 3], p), Series([1] * depth), depth)
    h = Series([3, 0, -1, 2], p)
    runs = [lambda: build_triangle(Series([1], p), Series([1, -1], p), depth).entries,
            lambda: build_triangle(Series([1, 0, 0, -2], p), Series([-1, 0, 1], p), depth).entries,
            lambda: reciprocal(Series([1, 2], p), Series([-1, 1, 0, 3], p), p),
            lambda: invert_series(Series([0, 1, -1], p), p),
            lambda: b.apply(h), lambda: (a @ b).entries, lambda: (b @ c).entries,
            lambda: b.inverse().entries, lambda: c.inverse().entries]
    expected = [run() for run in runs]
    calls = []

    def recorder(*args):
        calls.append(args)
        return F(*args)

    monkeypatch.setattr("riordan.series.Fraction", recorder)
    for run, want in zip(runs, expected):
        assert run() == want
    assert [args for args in calls if len(args) == 2 and args[1] in (1, -1)] == []
    assert len(calls) >= depth * (depth + 1) // 2  # the entries did pass the recorder


DENSE_DEPTH = 60
# d = 1 + x/3 + 2x^2 - 2x^3/7 and friends: 1/d, 1/h and x/h are dense, with
# denominators that grow with the degree, and the group operations pass
# such parameters on
DENSE_D = Series([1, F(1, 3), 2, F(-2, 7)], DENSE_DEPTH - 1)
DENSE_H = Series([F(-3, 2), 1, F(2, 5)], DENSE_DEPTH - 1)
DENSE_CLASSICAL_H = Series([0, 2, F(1, 7), -1], DENSE_DEPTH)


def assert_columns_divide(t):
    """Every column of ``t`` is ``x**k f / g**(k+1)`` by back substitution."""
    p = t.depth - 1
    expected = divided_columns(coeffs(t.f), coeffs(t.g), p, t.depth)
    assert [coeffs(t.column_series(k)) for k in range(t.depth)] == expected


def test_dense_group_operations_at_depth_60():
    p = DENSE_DEPTH - 1
    d, h = coeffs(DENSE_D), coeffs(DENSE_H)
    b = bell(DENSE_D, DENSE_DEPTH)
    a = associated(DENSE_H, DENSE_DEPTH)
    c = from_classical(DENSE_D, DENSE_CLASSICAL_H, DENSE_DEPTH)
    h_over_x = coeffs(DENSE_CLASSICAL_H)[1:]
    assert (coeffs(b.f), coeffs(b.g)) == ([1] + [0] * p, divide([F(1)], d, p))
    assert coeffs(a.f) == coeffs(a.g) == divide([F(1)], h, p)
    assert (coeffs(c.f), coeffs(c.g)) == (divide(d, h_over_x, p), divide([F(1)], h_over_x, p))
    ab = b @ a
    assert (ab.f, ab.g) == composed_product(b, a)
    shifted = ab.shift(-3)
    assert shifted.entries == tuple(row[3:] for row in ab.entries[3:])
    for t in (b, a, c, ab, shifted):
        assert_columns_divide(t)
    # composed_inverse checks the inverse at depth 30; here the group law does
    assert c @ c.inverse() == identity(DENSE_DEPTH)


def test_kernel_integers_stay_near_the_size_of_the_entries():
    # a scale of (L*g0)**(n+1) made the kernel's integers 6582 bits long
    # here, against entries of at most 117 bits
    p = DENSE_DEPTH - 1
    g = reciprocal(Series.one(p), DENSE_D, p)
    t = build_triangle(Series.one(p), g, DENSE_DEPTH)
    entry_bits = max(max(e.numerator.bit_length(), e.denominator.bit_length())
                     for row in t.entries for e in row)
    _, _, delta, columns = _integer_columns(Series.one(p), g, p, DENSE_DEPTH)
    assert max(v.bit_length() for v in chain(delta, *columns)) <= 2 * entry_bits


def bits(values):
    """The largest bit length of a numerator or denominator in ``values``, nested
    tuples and lists of integers and Fractions."""
    if isinstance(values, (tuple, list)):
        return max(map(bits, values), default=0)
    return max(F(values).numerator.bit_length(), F(values).denominator.bit_length())


def test_table_integers_stay_near_the_size_of_the_results(monkeypatch):
    # a row scale of s**(2n-k), s = L*omega_1 with L the lcm of omega's denominators,
    # made reversion's integers 19302 bits long for 112-bit results on x/g read dense;
    # a scale of L**n, L = lcm den(g_0..g_p), made the group inverse's 5808 bits long
    # for 195-bit parameters on bell(1 + x/3 + 2x^2)
    p = 60
    omega = Series([0] + divide([F(1)], [F(-3, 2), F(1), F(2, 5)], p - 1))
    table = reversion._power_table(omega, p)  # delta, taps and rows included
    assert bits(table) <= 2 * bits(invert_series(omega, p).coefficients)

    seen = record_table_calls(monkeypatch)
    t = bell(Series([1, F(1, 3), 2], p), p + 1)
    f_inv, g_inv = reversion._inverse_parameters(t.f, t.g, p)
    # g's scale, then omega's (x + x^2/3 + 2x^3 reads 3 taps), then the omega-side rows
    assert [name for name, _, _ in seen] == ["_scale_rows", "_scale_rows", "_fill_table"]
    assert seen[2][1][1] == -1
    assert bits([out for _, _, out in seen]) <= 2 * bits(f_inv.coefficients + g_inv.coefficients)


def record_table_calls(monkeypatch):
    """Record ``(name, args, result)`` of every ``_scale_rows`` and ``_fill_table`` call
    made through :mod:`riordan.reversion`."""
    seen = []
    for name in ("_scale_rows", "_fill_table"):
        def recorded(*args, name=name, original=getattr(reversion, name)):
            seen.append((name, args, original(*args)))
            return seen[-1][2]

        monkeypatch.setattr(reversion, name, recorded)
    return seen


@pytest.mark.parametrize("build, sign", [
    (lambda: bell(Series([1, F(1, 3), 2], 11), 12), -1),
    (lambda: associated(Series([1, F(1, 3), 2], 11), 12), -1),
    (lambda: from_classical(Series([1, 2], 11), Series([0, 1, F(1, 3), 2], 12), 12), -1),
    (lambda: build_triangle(Series([1, F(1, 3), 2], 11), Series([1] * 12), 12), -1),
    (lambda: build_triangle(Series([1, F(1, 3), 2], 11), Series([F(-3, 2), 1, F(2, 5)], 11), 12),
     1),
], ids=["bell", "associated", "from_classical", "geometric_g", "short_g"])
def test_group_inverse_fills_the_shorter_side_of_the_table(monkeypatch, build, sign):
    # a dense g whose omega = x/g is short fills the omega rule's rows, a short g its own
    t = build()
    f_inv, g_inv = composed_inverse(t)
    seen = record_table_calls(monkeypatch)
    inv = t.inverse()
    assert [args[1] for name, args, _ in seen if name == "_fill_table"] == [sign]
    assert (inv.f, inv.g) == (f_inv, g_inv)
    pair = t.a_z_sequences()
    z_seq = (g_inv - f_inv * (t.f[0] / t.g[0])).shift(-1)
    assert (pair.a_seq, pair.z_seq) == (g_inv, z_seq)


def test_inverse_parameters_make_one_division_of_f_and_no_reversion(monkeypatch):
    # x/w and (1/f)(w) come off one integer table; only the input f is divided, by one
    # integer column of the division kernel
    calls = {"_integer_columns": [], "reciprocal": [], "invert_series": []}
    for name in calls:
        original = getattr(reversion, name)

        def counting(*args, name=name, original=original):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(reversion, name, counting)
    for t in (pascal(8), ag_triangle(6), random_matrix(random.Random(48), 9)):
        calls.update({name: [] for name in calls})
        reversion._inverse_parameters(t.f, t.g, t.depth - 1)
        assert len(calls["_integer_columns"]) == 1
        one, divisor, p, count = calls["_integer_columns"][0]
        assert (one, divisor, p, count) == (Series.one(t.depth - 1), t.f, t.depth - 1, 1)
        assert divisor is t.f
        assert calls["reciprocal"] == calls["invert_series"] == []


@pytest.mark.parametrize("run, checks", [
    (lambda t, u: reciprocal(t.f, t.g, t.depth - 1), 1),
    (lambda t, u: build_triangle(t.f, t.g, t.depth), 1),
    (lambda t, u: t.inverse(), 1),
    (lambda t, u: t.a_z_sequences(), 0),
    (lambda t, u: t @ u, 1),
], ids=["reciprocal", "build_triangle", "inverse", "a_z_sequences", "product"])
def test_each_entry_checks_its_operands_once(monkeypatch, run, checks):
    # the kernel checks nothing: reciprocal checks its operands, and every other path
    # into the kernel starts at a constructed matrix, whose constructor checked them at
    # the same precision; only a matrix the call builds is checked again
    rng = random.Random(35)
    pairs = [(pascal(7), ag_triangle(7)), (random_matrix(rng, 8), random_matrix(rng, 8))]
    calls = []
    original = fixpoint._check_division

    def counting(*args):
        calls.append(args)
        return original(*args)

    # _check_division is bound in fixpoint and in triangles
    monkeypatch.setattr(fixpoint, "_check_division", counting)
    monkeypatch.setattr(triangles, "_check_division", counting)
    for t, u in pairs:
        calls.clear()
        run(t, u)
        assert len(calls) == checks


def test_triangles_decodes_no_integer_format():
    # the kernel's columns are summed in fixpoint and the (1, w) table is read in
    # reversion, each beside the code that makes it; triangles only calls them
    for name in ("_integer_columns", "_step", "_table", "_fill_table", "_scale_rows",
                 "_integral"):
        assert not hasattr(triangles, name), name
    assert not hasattr(triangles.RiordanMatrix, "_inverse_parameters")
    assert triangles._apply is fixpoint._apply
    # one integer recurrence: the (1, w) table steps its rows by the division kernel's step
    assert reversion._step is fixpoint._step
    assert triangles._inverse_parameters is reversion._inverse_parameters
    # perfbench's tracer patches these two bindings in triangles
    assert triangles.reciprocal is fixpoint.reciprocal
    assert triangles.invert_series is reversion.invert_series


@pytest.mark.parametrize("call", [
    lambda: ag_triangle(6).apply(Series([3, 1, 4, 1, 5, 9])),
    lambda: ag_triangle(6) @ pascal(6),
    lambda: invert_series(Series([0, 1, -1, 2], 13), 12),
    lambda: verify_lagrange(Series([0, 1, -1, 2], 13), 12),
    lambda: ag_triangle(6).inverse(),
    lambda: ag_triangle(6).a_z_sequences(),
    lambda: ag_triangle(6).inverse_via_sequences(),
], ids=["apply", "product", "invert_series", "verify_lagrange",
        "inverse", "a_z_sequences", "inverse_via_sequences"])
def test_entry_and_table_paths_make_no_horner_composition(monkeypatch, call):
    seen = []
    compose = Series.compose

    def counting_compose(self, inner):
        seen.append(inner)
        return compose(self, inner)

    monkeypatch.setattr(Series, "compose", counting_compose)
    call()
    assert seen == []
    composed_apply(pascal(3), Series.one(2))
    assert len(seen) == 1  # the wrapper does see a composition


# ----------------------------------------------------------------------
# group structure
# ----------------------------------------------------------------------

def test_pascal_squared():
    t = pascal()
    assert t @ t == build_triangle(Series.one(9), Series([1, -2], 9), 10)


def test_product_with_identity():
    t = ag_triangle(6)
    assert t @ identity(6) == t
    assert identity(6) @ t == t


def test_pascal_powers_parameter_form():
    t = pascal()
    acc = t
    for n in range(2, 8):
        acc = acc @ t
        assert acc == build_triangle(Series.one(9), Series([1, -n], 9), 10)


def test_parameter_product_matches_numeric_product():
    rng = random.Random(33)
    for _ in range(6):
        a = random_matrix(rng, 7)
        b = random_matrix(rng, 7)
        numeric = matmul_lower([list(r) for r in a.entries],
                               [list(r) for r in b.entries])
        assert [list(r) for r in (a @ b).entries] == numeric


def test_product_depth_mismatch():
    with pytest.raises(ValueError):
        pascal(5).product(pascal(6))


def test_product_associative_random():
    rng = random.Random(34)
    a, b, c = (random_matrix(rng, 6) for _ in range(3))
    assert (a @ b) @ c == a @ (b @ c)


def test_inverse_of_identity():
    assert identity(5).inverse() == identity(5)


def test_inverse_of_pascal_is_signed_pascal():
    inv = pascal(8).inverse()
    for n in range(8):
        for k in range(n + 1):
            assert inv.entry(n, k) == (-1) ** (n - k) * math.comb(n, k)
    # parameter form T(1|1+x)
    assert inv == build_triangle(Series.one(7), Series([1, 1], 7), 8)


def test_inverse_matches_numeric_inversion_oracle():
    rng = random.Random(35)
    for _ in range(5):
        t = random_matrix(rng, 7)
        inv = t.inverse()
        numeric = invert_lower_triangular([list(r) for r in t.entries])
        assert [list(r) for r in inv.entries] == numeric


def test_product_with_inverse_is_identity():
    t = ag_triangle(6)
    assert t @ t.inverse() == identity(6)
    assert t.inverse() @ t == identity(6)


def test_inverse_of_linear_divisor():
    # T(1 | a+bx)^-1 == T(1 | (1-bx)/a)
    rng = random.Random(44)
    for _ in range(5):
        a = random_fraction(rng, nonzero=True)
        b = random_fraction(rng)
        t = build_triangle(Series.one(7), Series([a, b], 7), 8)
        expected = build_triangle(Series.one(7), Series([1 / a, -b / a], 7), 8)
        assert t.inverse() == expected


def test_factorization_into_toeplitz_and_renewal():
    rng = random.Random(36)
    for _ in range(5):
        depth = 7
        f = random_series(rng, depth - 1, nonzero_constant=True)
        g = random_series(rng, depth - 1, nonzero_constant=True)
        whole = build_triangle(f, g, depth)
        toeplitz = build_triangle(f, Series.one(depth - 1), depth)
        renewal = build_triangle(Series.one(depth - 1), g, depth)
        assert whole == toeplitz @ renewal


# ----------------------------------------------------------------------
# A/Z sequences
# ----------------------------------------------------------------------

def test_pascal_a_z():
    pair = pascal().a_z_sequences()
    assert pair.a_seq == Series([1, 1], 9)
    assert pair.z_seq == Series([1], 8)


def test_identity_a_z():
    pair = identity(6).a_z_sequences()
    assert pair.a_seq == Series.one(5)
    assert pair.z_seq == Series.zero(4)


def assert_defining_recurrences(t):
    pair = t.a_z_sequences()
    a, z = pair.a_seq, pair.z_seq
    for n in range(t.depth - 1):
        assert t.entry(n + 1, 0) == sum(
            (z[j] * t.entry(n, j) for j in range(n + 1)), F(0))
        for k in range(n + 1):
            assert t.entry(n + 1, k + 1) == sum(
                (a[j] * t.entry(n, k + j) for j in range(n - k + 1)), F(0))


def test_a_z_defining_recurrences_random():
    rng = random.Random(37)
    for _ in range(6):
        assert_defining_recurrences(random_matrix(rng, 8))


def test_inverse_via_sequences_matches_inverse():
    rng = random.Random(38)
    cases = [pascal(8), ag_triangle(6), identity(5)]
    cases += [random_matrix(rng, 7) for _ in range(4)]
    for t in cases:
        assert t.inverse_via_sequences() == t.inverse()


def test_a_z_needs_depth_two():
    with pytest.raises(ValueError):
        identity(1).a_z_sequences()


# ----------------------------------------------------------------------
# shifts
# ----------------------------------------------------------------------

def test_shift_prepends_ag_triangle():
    shifted = ag_triangle(6, precision=8).shift(1)
    assert shifted.depth == 7
    assert rows_as_int(shifted) == [
        [1],
        [2, -1],
        [3, -4, 1],
        [4, -11, 6, -1],
        [5, -26, 23, -8, 1],
        [6, -57, 72, -39, 10, -1],
        [7, -120, 201, -150, 59, -12, 1],
    ]


def test_shift_zero_is_identity():
    t = pascal(6)
    assert t.shift(0) is t


def test_shift_round_trip():
    t = ag_triangle(6, precision=8)
    assert t.shift(1).shift(-1) == t
    assert t.shift(-2).shift(2) == t


def test_shift_entry_formula():
    rng = random.Random(39)
    depth = 6
    for _ in range(4):
        t = random_matrix(rng, depth, extra=4)
        fc, gc = coeffs(t.f), coeffs(t.g)
        for m in (-2, -1, 0, 1, 2):
            shifted = t.shift(m)
            assert shifted.depth == depth + m
            for n in range(shifted.depth):
                for k in range(n + 1):
                    assert shifted.entry(n, k) == shifted_entry_oracle(fc, gc, m, n, k)


def test_shift_parameter_is_f_times_g_to_the_m():
    # the new f is f*g**m at all the precision the parameters share, for either sign,
    # so a shift and its opposite give f back at that precision
    rng = random.Random(33)
    cases = [random_matrix(rng, 6, extra=4) for _ in range(4)]
    cases += [build_triangle(Series(f, p), Series(g, p), 6) for f, g, p in (
        ([1, 2, -1], [-1, 2], 9),
        ([F(2, 3), 1], [F(-3, 2), 1, F(2, 5)], 8),
        ([F(-5, 7), 0, 3], [-1, 0, F(1, 2)], 6),
    )]
    for t in cases:
        p = min(t.f.precision, t.g.precision)
        fc, gc = coeffs(t.f), coeffs(t.g)
        for m in (-3, -2, -1, 1, 2, 3):
            if p < t.depth + m - 1:
                continue  # a prepend past the stored precision
            power = list_power(gc, abs(m), p)
            expected = convolve(fc, power, p) if m > 0 else divide(fc, power, p)
            shifted = t.shift(m)
            assert shifted.f == Series(expected)
            assert shifted.shift(-m).f == t.f.truncate(p)


def test_shift_depth_error():
    with pytest.raises(DomainError):
        pascal(3).shift(-3)


def test_shift_prepend_needs_precision():
    with pytest.raises(PrecisionError):
        pascal(10).shift(1)  # parameters stored at precision 9 only


# ----------------------------------------------------------------------
# subgroups and the classical bridge
# ----------------------------------------------------------------------

def test_appell_is_toeplitz():
    rng = random.Random(40)
    d = random_series(rng, 5, nonzero_constant=True)
    t = appell(d, 6)
    for n in range(6):
        for k in range(n + 1):
            assert t.entry(n, k) == d[n - k]


def test_bell_element():
    # classical Pascal pair is (1/(1-x), x/(1-x)): Bell with d = 1/(1-x)
    d = Series([1] * 10)
    assert bell(d, 10) == pascal()


def test_associated_element():
    rng = random.Random(41)
    h = random_series(rng, 6, nonzero_constant=True)
    t = associated(h, 7)
    r = reciprocal(Series.one(6), h.truncate(6), 6)
    assert t == build_triangle(r, r, 7)


def test_classical_round_trip_pascal():
    t = pascal(8)
    d, h = t.to_classical()
    assert d == Series([1] * 8)          # 1/(1-x)
    assert h == Series([0] + [1] * 8)    # x/(1-x)
    assert from_classical(d, h, 8) == t


def test_classical_round_trip_random():
    rng = random.Random(42)
    for _ in range(4):
        t = random_matrix(rng, 6)
        d, h = t.to_classical()
        assert from_classical(d, h, 6) == t


def test_from_classical_needs_order_one():
    with pytest.raises(DomainError):
        from_classical(Series.one(5), Series.one(5), 5)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_json_round_trip():
    t = ag_triangle(6)
    again = from_json_dict(json.loads(t.to_json()))
    assert again == t


def test_matrix_equality_hash_and_repr_read_the_block():
    # parameters at different precisions that give the same block are one matrix
    a, b = pascal(3), build_triangle(Series.one(5), Series([1, -1], 5), 3)
    assert repr(a) == ("RiordanMatrix(f=Series(['1', '0', '0']), "
                       "g=Series(['1', '-1', '0']), depth=3)")
    assert a == b and hash(a) == hash(b)
    assert a != 5 and a != pascal(4)


def test_json_rejects_tampered_rows():
    obj = pascal(4).to_json_dict()
    obj["rows"][2][1] = "99"
    with pytest.raises(ValueError):
        from_json_dict(obj)


@pytest.mark.parametrize("obj", ["fgdepthrows", 5, None, True, ["f", "g", "depth", "rows"]],
                         ids=["str", "int", "none", "bool", "list"])
def test_json_rejects_a_document_that_is_not_an_object(monkeypatch, obj):
    def no_build(*args):
        raise AssertionError("the triangle was built from a document that is not an object")

    monkeypatch.setattr(triangles, "build_triangle", no_build)
    message = f"^matrix JSON must be an object, not {type(obj).__name__}$"
    with pytest.raises(ValueError, match=message):
        from_json_dict(obj)


@pytest.mark.parametrize("field", ["f", "g", "depth", "rows"])
def test_json_names_a_missing_field(field):
    obj = pascal(4).to_json_dict()
    del obj[field]
    with pytest.raises(ValueError, match=f"^matrix JSON has no '{field}' field$"):
        from_json_dict(obj)


@pytest.mark.parametrize("depth", [2.7, 2.0, "2", True, None])
def test_json_rejects_a_depth_that_is_not_an_integer(depth):
    obj = pascal(2).to_json_dict()
    obj["depth"] = depth
    with pytest.raises(ValueError, match="^matrix JSON field 'depth' must be an integer"):
        from_json_dict(obj)


@pytest.mark.parametrize("field, value", [
    ("rows", 5), ("f", 5), ("g", None), ("rows", [5, 6, 7]), ("f", "1"),
], ids=["rows_int", "f_int", "g_none", "rows_of_ints", "f_string"])
def test_json_rejects_a_field_that_is_not_a_list(field, value):
    obj = pascal(3).to_json_dict()
    obj[field] = value
    with pytest.raises(ValueError, match=f"^matrix JSON field '{field}' must be a list"):
        from_json_dict(obj)


@pytest.mark.parametrize("value", [None, {}, [], 1.0, True],
                         ids=["none", "dict", "list", "float", "bool"])
@pytest.mark.parametrize("field", ["f", "g", "rows"])
def test_json_rejects_an_entry_that_is_not_an_integer_or_a_string(field, value):
    obj = pascal(3).to_json_dict()  # T(1|1-x): f_0, g_0 and rows[1][0] are all "1"
    (obj["rows"][1] if field == "rows" else obj[field])[0] = value
    with pytest.raises(ValueError, match=f"^matrix JSON field '{field}' entries must be"):
        from_json_dict(obj)


@pytest.mark.parametrize("entry", ["1/0", "1e999999999", "oops"],
                         ids=["zero_denominator", "huge_exponent", "not_a_number"])
@pytest.mark.parametrize("field", ["f", "g", "rows"])
def test_json_rejects_an_entry_fraction_cannot_read(field, entry):
    # Fraction raises ZeroDivisionError on "1/0" and builds 10**999999999 for "1e999999999"
    obj = {"f": ["1"], "g": ["1"], "depth": 1, "rows": [["1"]]}
    (obj["rows"][0] if field == "rows" else obj[field])[0] = entry
    with pytest.raises(ValueError, match=f"^matrix JSON field '{field}' entries must"):
        from_json_dict(obj)


@pytest.mark.parametrize("field, value", [("f", []), ("g", ["0"]), ("f", [0, "1"]), ("g", [])],
                         ids=["f_empty", "g_zero", "f_zero", "g_empty"])
def test_json_names_a_parameter_without_a_constant_term(monkeypatch, field, value):
    def no_build(*args):
        raise AssertionError("the triangle was built from a parameter without a constant term")

    monkeypatch.setattr(triangles, "build_triangle", no_build)
    obj = {"f": ["1"], "g": ["1"], "depth": 1, "rows": [["1"]], field: value}
    with pytest.raises(ValueError, match=f"^matrix JSON field '{field}' must start with a nonzero"):
        from_json_dict(obj)


@pytest.mark.parametrize("depth, rows", [
    (400, []),
    (10 ** 18, []),
    (3, [["1"], ["1", "1"]]),
    (2, [["1"], ["1", "1"], ["1", "2", "1"]]),
    (3, [["1"], ["1", "1", "0"], ["1", "2", "1"]]),
    (3, [["1"], ["1"], ["1", "2", "1"]]),
], ids=["empty", "huge_depth", "row_missing", "row_extra", "row_long", "row_short"])
def test_json_checks_the_rows_shape_before_building_the_triangle(monkeypatch, depth, rows):
    def no_build(*args):
        raise AssertionError("the triangle was built before the rows' shape was checked")

    monkeypatch.setattr(triangles, "build_triangle", no_build)
    obj = {"f": ["1/3"] * 400, "g": ["2/7", "1/5"] * 200, "depth": depth, "rows": rows}
    with pytest.raises(ValueError, match="^matrix JSON field 'rows' must hold"):
        from_json_dict(obj)


@pytest.mark.parametrize("depth", [0, -2])
def test_json_names_a_depth_below_one(monkeypatch, depth):
    obj = identity(3).to_json_dict()

    def no_build(*args):
        raise AssertionError("the triangle was built at a depth below 1")

    monkeypatch.setattr(triangles, "build_triangle", no_build)
    obj["depth"] = depth
    with pytest.raises(ValueError, match=f"^matrix JSON field 'depth' must be an integer, at "
                                         f"least 1, not {depth}$"):
        from_json_dict(obj)


@pytest.mark.parametrize("field, value", [("f", ["1"]), ("g", ["1", "0"])],
                         ids=["f_one", "g_two"])
def test_json_names_a_parameter_shorter_than_the_depth(monkeypatch, field, value):
    obj = identity(3).to_json_dict()

    def no_build(*args):
        raise AssertionError("the triangle was built from a parameter shorter than the depth")

    monkeypatch.setattr(triangles, "build_triangle", no_build)
    obj[field] = value
    with pytest.raises(ValueError, match=f"^matrix JSON field '{field}' must hold at least 3 "
                                         f"coefficients, not {len(value)}$"):
        from_json_dict(obj)


def test_json_accepts_integer_entries():
    obj = pascal(3).to_json_dict()
    obj["f"][0] = obj["g"][0] = obj["rows"][1][0] = 1
    assert from_json_dict(obj) == pascal(3)


def test_csv_format():
    assert pascal(3).to_csv() == "1\n1,1\n1,2,1"


def test_pretty_format_is_aligned():
    text = ag_triangle(3).to_pretty()
    assert text.splitlines()[0].strip() == "-1"
    assert "-11" in text.splitlines()[2]
