"""Tests for the contraction maps and the crossed-iteration machinery."""

import random
from fractions import Fraction as F

import pytest

from riordan import fixpoint
from riordan.fixpoint import (
    AffineMap,
    IterationScheme,
    NotContractiveError,
    _division_columns,
    _integer_columns,
    column_scheme,
    iterate_crossed,
    iterate_fixed,
    reciprocal,
    reciprocal_scheme,
)
from riordan.series import DomainError, PrecisionError, Series, distance
from riordan.triangles import build_triangle

from oracles import (
    coeffs,
    divide,
    divided_columns,
    division_scale,
    past_precision,
    random_fraction,
    random_series,
)

GEOMETRIC_MAP_PRECISION = 6


def geometric_map(p=GEOMETRIC_MAP_PRECISION):
    # t -> x*t + 1, fixed point 1/(1-x)
    return AffineMap(Series.x(p), Series.one(p))


def arithgeo_map(p=12):
    # t -> 1 + (2x - x^2)*t, fixed point 1/(1-x)^2
    return AffineMap(Series([0, 2, -1], p), Series.one(p))


# ----------------------------------------------------------------------
# AffineMap basics
# ----------------------------------------------------------------------

def test_affine_map_requires_contractive_slope():
    with pytest.raises(NotContractiveError):
        AffineMap(Series([1, 1]), Series.one(1))


def test_zero_slope_is_fine():
    AffineMap(Series.zero(3), Series.one(3))  # contraction constant 0


def test_contraction_certificate_random():
    rng = random.Random(21)
    schemes = [
        reciprocal_scheme(random_series(rng, 8, nonzero_constant=True),
                          random_series(rng, 8, nonzero_constant=True), 8)
        for _ in range(4)
    ]
    for scheme in schemes:
        for m in (0, 1, 3, 8):
            amap = scheme.maps(m)
            for _ in range(4):
                t1 = random_series(rng, 8)
                t2 = random_series(rng, 8)
                assert distance(amap(t1), amap(t2)) <= distance(t1, t2) / 2


# ----------------------------------------------------------------------
# plain iteration
# ----------------------------------------------------------------------

def test_geometric_partial_sums():
    trace = iterate_fixed(geometric_map(3), Series.zero(3), 4)
    expected = [
        Series.zero(3),
        Series([1], 3),
        Series([1, 1], 3),
        Series([1, 1, 1], 3),
        Series([1, 1, 1, 1]),
    ]
    assert list(trace) == expected


def test_arithgeo_map_third_iterate():
    trace = iterate_fixed(arithgeo_map(4), Series.zero(4), 3)
    assert trace.last == Series([1, 2, 3, -4, 1])


def test_arithgeo_map_sixth_iterate():
    trace = iterate_fixed(arithgeo_map(10), Series.zero(10), 6)
    assert trace.last == Series([1, 2, 3, 4, 5, 6, -57, 72, -39, 10, -1])


def test_fixed_point_stays_fixed():
    p = 7
    geo = Series([1] * (p + 1))  # exact fixed point of t -> x*t + 1 at precision 7
    trace = iterate_fixed(geometric_map(p), geo, 4)
    assert all(it == geo for it in trace)


# ----------------------------------------------------------------------
# crossed iteration
# ----------------------------------------------------------------------

def pascal_column_scheme(n, p):
    one, g = Series.one(p), Series([1, -1], p)
    prev = reciprocal(one, g ** (n - 1), p).shift(n - 2)
    return column_scheme(one, g, n, prev)


def test_second_column_crossed_trace():
    trace = iterate_crossed(pascal_column_scheme(2, 6), Series.zero(6), 4)
    assert [str(s) for s in trace] == ["0", "0", "x", "x+2x^2", "x+2x^2+3x^3"]


def test_third_column_crossed_trace():
    trace = iterate_crossed(pascal_column_scheme(3, 6), Series.zero(6), 5)
    assert str(trace.last) == "x^2+3x^3+6x^4"


def test_constant_scheme_equals_fixed_iteration():
    amap = geometric_map()
    scheme = IterationScheme(lambda m: amap, amap)
    start = Series.zero(GEOMETRIC_MAP_PRECISION)
    assert iterate_crossed(scheme, start, 5) == iterate_fixed(amap, start, 5)


def test_scheme_limit_map_fixes_the_quotient():
    rng = random.Random(26)
    f = random_series(rng, 8)
    g = random_series(rng, 8, nonzero_constant=True)
    scheme = reciprocal_scheme(f, g, 8)
    quotient = reciprocal(f, g, 8)
    assert scheme.limit_map is not None
    assert scheme.limit_map(quotient) == quotient


def test_crossed_error_names_step():
    def maps(m):
        if m == 2:
            return AffineMap(Series([1, 1], 3), Series.zero(3))
        return AffineMap(Series.x(3), Series.zero(3))

    with pytest.raises(NotContractiveError, match="step 2"):
        iterate_crossed(IterationScheme(maps), Series.zero(3), 5)


# ----------------------------------------------------------------------
# reciprocal
# ----------------------------------------------------------------------

def test_reciprocal_geometric():
    assert reciprocal(Series.one(5), Series([1, -1], 5), 5) == Series([1] * 6)


def test_reciprocal_by_one():
    assert reciprocal(Series.one(4), Series.one(4), 4) == Series.one(4)


def test_reciprocal_arithgeo_column():
    got = reciprocal(Series.x(4), Series([1, -2, 1], 4), 4)
    assert got == Series([0, 1, 2, 3, 4])


def test_reciprocal_zero_constant_divisor():
    with pytest.raises(DomainError, match="division domain"):
        reciprocal(Series.one(3), Series([0, 1], 3), 3)


def test_reciprocal_needs_precision():
    with pytest.raises(PrecisionError):
        reciprocal(Series.one(2), Series([1, -1], 5), 5)


def test_reciprocal_times_divisor_round_trip():
    rng = random.Random(22)
    for _ in range(12):
        f = random_series(rng, 8)
        g = random_series(rng, 8, nonzero_constant=True)
        q = reciprocal(f, g, 8)
        assert q * g == f


def test_reciprocal_matches_division_oracle():
    rng = random.Random(23)
    for _ in range(12):
        f = random_series(rng, 9)
        g = random_series(rng, 9, nonzero_constant=True)
        assert coeffs(reciprocal(f, g, 9)) == divide(coeffs(f), coeffs(g), 9)


# The kernel runs on integers scaled by the least common denominator that
# the taps g_j/g0 can give each degree, and builds each output as one
# Fraction; these panels reach bigint sizes and signed, fractional leading
# coefficients.
KERNEL_G0 = (1, -1, 3, F(-3, 2), F(2, 3))
KERNEL_PRECISION = 39


def dense_rational(rng, constant, precision):
    """``constant`` followed by dense rational taps, denominators up to 7."""
    return Series([constant] + [random_fraction(rng, maxden=7)
                                for _ in range(precision)])


@pytest.mark.parametrize("g0", KERNEL_G0)
def test_reciprocal_matches_oracle_at_bigint_sizes(g0):
    rng = random.Random(29)
    p = KERNEL_PRECISION
    g = dense_rational(rng, g0, p)
    f = dense_rational(rng, random_fraction(rng, maxden=7), p)
    for num in (f, f.shift(3).truncate(p), Series.zero(p)):
        expected = divide(coeffs(num), coeffs(g), p)
        q = reciprocal(num, g, p)
        assert coeffs(q) == expected
        assert all(type(c) is F for c in q.coefficients)
        assert reciprocal(past_precision(num, p), past_precision(g, p), p) == q


KERNEL_PANEL_PRECISION = 60


def alternating(numerators, denominator, precision):
    """``1 + sum_j (-1)**j * a_j/denominator(j) * x**j``, the ``a_j`` cycling
    through ``numerators`` (all prime to the denominators)."""
    return Series([1] + [F((-1) ** j * numerators[j % len(numerators)], denominator(j))
                         for j in range(1, precision + 1)])


KERNEL_COFACTORS = {
    # scales that are not a power of one integer: delta_m = 3**(m//2), then
    # lcm(3*delta_(m-2), 2*delta_(m-3)), and for g0 = -3/2 the taps g_j/g0
    # have denominators 3, 9, 15 and 21 at degrees 2, 5, 7 and 11
    "gapped": Series([1, 0, F(1, 3), F(-1, 2)], KERNEL_PANEL_PRECISION),
    "g0=-3/2": Series([F(-3, 2), 0, F(1, 2), 0, 0, F(-2, 3), 0, F(4, 5), 0, 0, 0, F(-5, 7)],
                      KERNEL_PANEL_PRECISION),
    # geometric scales with large denominators: den(g_j) = 3**j and 20**j
    "3**j": alternating((1, 2, 4, 5, 7), lambda j: 3 ** j, KERNEL_PANEL_PRECISION),
    "2**(2j)*5**j": alternating((1, 3, 7, 9), lambda j: 2 ** (2 * j) * 5 ** j,
                                KERNEL_PANEL_PRECISION),
}


@pytest.mark.parametrize("g", KERNEL_COFACTORS.values(), ids=KERNEL_COFACTORS)
def test_kernel_matches_oracle_on_the_cofactors_own_denominators(g):
    rng = random.Random(30)
    p = KERNEL_PANEL_PRECISION
    f = dense_rational(rng, random_fraction(rng, maxden=7, nonzero=True), p)
    gc = coeffs(g)
    expected = divided_columns(coeffs(f), gc, p, p + 1)
    t = build_triangle(f, g, p + 1)
    assert [coeffs(t.column_series(k)) for k in range(p + 1)] == expected
    # x**3 * f has columns x**3 * column(k); the zero series has zero columns
    for num, shifted in ((f.shift(3).truncate(p), 3), (Series.zero(p), p + 1)):
        columns = [[F(0)] * shifted + col[: p + 1 - shifted] for col in expected]
        assert coeffs(reciprocal(num, g, p)) == columns[0] == divide(coeffs(num), gc, p)
        assert _division_columns(num, g, p, p + 1) == [col[k:] for k, col in enumerate(columns)]


def kernel_scale(g, p):
    """The kernel's ``delta_0..delta_p`` for the cofactor ``g``."""
    return _integer_columns(Series.one(p), g, p, 1)[2]


def test_kernel_scale_is_one_for_integral_cofactors_with_unit_constant():
    p = KERNEL_PANEL_PRECISION
    for g in (Series([1, -2, 0, 3, 0, 0, 5], p), Series([-1, 0, 4, 1], p), Series([1] * (p + 1))):
        assert kernel_scale(g, p) == [1] * (p + 1)


def test_kernel_scale_follows_the_cofactors_denominators():
    p = KERNEL_PANEL_PRECISION
    # den(g_j) = 3**j: delta_m = 3**m, where (L*g0)**(m+1) with L = 3**p
    # would carry p*(m+1) factors of 3
    assert kernel_scale(KERNEL_COFACTORS["3**j"], p) == [3 ** m for m in range(p + 1)]
    assert kernel_scale(Series([1, 0, F(1, 3)], p), p) == [3 ** (m // 2) for m in range(p + 1)]
    for g in (KERNEL_COFACTORS["gapped"], KERNEL_COFACTORS["g0=-3/2"]):
        assert kernel_scale(g, p) == division_scale(coeffs(g), p)


@pytest.mark.parametrize("g, most", [
    (Series([1, 0, F(1, 3)]), 4), (KERNEL_COFACTORS["gapped"], 9),
], ids=["1+x^2/3", "gapped"])
def test_kernel_builds_one_tap_row_per_window(monkeypatch, g, most):
    # a degree's ratio and row depend only on the window of d - 1 ratios before
    # it, so degrees with the same window share one row: per-degree rows would
    # give the same quotient from 201 rows at P = 200, and slower
    p = 200
    distinct = []
    scale_rows = fixpoint._scale_rows

    def counted(taps, precision):
        delta, rows = scale_rows(taps, precision)
        distinct.append(len({id(row) for row in rows}))
        return delta, rows

    monkeypatch.setattr(fixpoint, "_scale_rows", counted)
    g = g.pad(p)
    assert coeffs(reciprocal(Series.one(p), g, p)) == divide([F(1)], coeffs(g), p)
    assert len(distinct) == 1 and distinct[0] <= most


def test_reciprocal_at_precision_zero():
    q = reciprocal(Series([F(5, 7), 1]), Series([F(-3, 2), F(1, 49)]), 0)
    assert q.coefficients == (F(-10, 21),)
    assert type(q[0]) is F


def test_crossed_iterate_converges_degree_per_step():
    # iterate m of the division scheme agrees with f/g through degree m-1
    rng = random.Random(24)
    f = random_series(rng, 8)
    g = random_series(rng, 8, nonzero_constant=True)
    expected = divide(coeffs(f), coeffs(g), 8)
    trace = iterate_crossed(reciprocal_scheme(f, g, 8), Series.zero(8), 9)
    for m, iterate in enumerate(trace):
        for d in range(min(m, 9)):
            assert iterate[d] == expected[d]


# ----------------------------------------------------------------------
# column schemes
# ----------------------------------------------------------------------

def test_column_scheme_limit_matches_division():
    # column n of the binomial triangle: x^(n-1)/(1-x)^n
    p = 8
    one, g = Series.one(p), Series([1, -1], p)
    for n in (2, 3, 4):
        prev = reciprocal(one, g ** (n - 1), p).shift(n - 2)
        trace = iterate_crossed(column_scheme(one, g, n, prev), Series.zero(p), p + 1)
        direct = reciprocal(one, g ** n, p - n + 1).shift(n - 1).pad(p)
        assert trace.last == direct


def test_column_scheme_cancellation_when_f_equals_g():
    # n=2 with f == g: the limit x*f/g^2 collapses to x/g
    rng = random.Random(25)
    p = 8
    for _ in range(5):
        f = random_series(rng, p, nonzero_constant=True)
        scheme = column_scheme(f, f, 2, Series.one(p))
        trace = iterate_crossed(scheme, Series.zero(p), p + 1)
        expected = divide([F(0), F(1)], coeffs(f), p)
        assert coeffs(trace.last) == expected


def test_column_scheme_step_maps_match_the_formula():
    # step m: t -> T_m((g0 - g)/g0) * t + x * T_(m-1)(prev / g0), from plain lists
    rng = random.Random(29)
    for p in (1, 2, 5, 8):
        dense = random_series(rng, p, nonzero_constant=True)
        sparse = Series([dense[0], 0, 0, F(-3, 2)][: p + 1], p)
        for g, extra in ((dense, 0), (sparse, 2)):
            f = random_series(rng, p + extra, nonzero_constant=True)
            prev = random_series(rng, p - 1 + extra)
            scheme = column_scheme(f, g, rng.randint(2, 5), prev)
            g0_list = [g[0]]
            slope = divide([F(0)] + [-c for c in coeffs(g)[1:]], g0_list, p)
            x_prev = divide([F(0)] + coeffs(prev)[:p], g0_list, p)
            for m in range(p + 2):
                amap = scheme.maps(m)
                assert coeffs(amap.slope) == [c if d <= m else 0 for d, c in enumerate(slope)]
                assert coeffs(amap.offset) == [c if d <= m else 0 for d, c in enumerate(x_prev)]


def test_column_scheme_rejects_first_column():
    with pytest.raises(ValueError):
        column_scheme(Series.one(3), Series([1, -1], 3), 1, Series.one(3))


def test_column_scheme_checks_prev_precision():
    with pytest.raises(PrecisionError):
        column_scheme(Series.one(8), Series([1, -1], 8), 2, Series.one(2))


# ----------------------------------------------------------------------
# remainder extraction
# ----------------------------------------------------------------------

AG_REMAINDER = [
    [-1],
    [-4, 1],
    [-11, 6, -1],
    [-26, 23, -8, 1],
    [-57, 72, -39, 10, -1],
    [-120, 201, -150, 59, -12, 1],
]


def test_remainder_rows_of_arithgeo_iteration():
    trace = iterate_fixed(arithgeo_map(12), Series.zero(12), 7)
    assert trace.remainder_rows() == [[F(v) for v in row] for row in AG_REMAINDER]


def test_remainder_recurrence():
    # each remainder entry is twice the entry above minus the entry above-left;
    # the column left of the remainder block holds the already-converged
    # coefficient, which in row i of the block is the integer i+1
    rows = [[F(v) for v in row] for row in AG_REMAINDER]

    def entry(i, j):  # 1-based block coordinates
        if j == 0:
            return F(i + 1)  # converged arithmetic-geometric coefficient
        if j > i:
            return F(0)
        return rows[i - 1][j - 1]

    for i in range(2, 7):
        for j in range(1, i + 1):
            assert entry(i, j) == 2 * entry(i - 1, j) - entry(i - 1, j - 1)


# ----------------------------------------------------------------------
# the division kernel against its reference path
# ----------------------------------------------------------------------

def test_reciprocal_equals_crossed_iteration_limit():
    # reciprocal applies the division contraction one degree per step; the
    # crossed iteration of reciprocal_scheme is its reference
    rng = random.Random(27)
    panel = []
    for p in (0, 1, 4, 9):
        dense = random_series(rng, p, nonzero_constant=True)
        sparse = Series([dense[0], 0, -1, 0, 0, 2][: p + 1], p)
        f = random_series(rng, p)
        leading_zeros = f.shift(2).truncate(p)
        for g in (dense, sparse):
            panel += [(f, g, p), (leading_zeros, g, p), (Series.zero(p), g, p)]
            # operands stored above the requested precision
            wide_g = random_series(rng, p + 2, nonzero_constant=True)
            panel.append((random_series(rng, p + 3), wide_g, p))
    for f, g, p in panel:
        reference = iterate_crossed(reciprocal_scheme(f, g, p), Series.zero(p), p + 1).last
        assert reciprocal(f, g, p) == reference, (f, g, p)


def test_triangle_columns_equal_column_scheme_limits():
    rng = random.Random(28)
    for p in (1, 3, 6):
        f = random_series(rng, p, nonzero_constant=True)
        for g in (random_series(rng, p, nonzero_constant=True), Series([2, 0, -1], p)):
            t = build_triangle(f, g, p + 1)
            for k in range(1, p + 1):
                scheme = column_scheme(f, g, k + 1, t.column_series(k - 1))
                limit = iterate_crossed(scheme, Series.zero(p), p + 1).last
                assert limit == t.column_series(k), (f, g, k)


def test_reciprocal_rejects_negative_precision():
    for divide_ in (reciprocal, reciprocal_scheme):
        with pytest.raises(ValueError, match="precision must be a natural number"):
            divide_(Series.one(3), Series([1, -1], 3), -1)
