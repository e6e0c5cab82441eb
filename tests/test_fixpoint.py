"""Tests for the contraction maps and the crossed-iteration machinery."""

import json
import math
import random
from fractions import Fraction as F

import pytest

from riordan import cli, fixpoint, series, triangles
from riordan.fixpoint import (
    AffineMap,
    NotContractiveError,
    _division_columns,
    _integer_columns,
    column_scheme,
    iterate_crossed,
    iterate_fixed,
    reciprocal,
    reciprocal_scheme,
)
from riordan.series import (
    DomainError,
    PrecisionError,
    Series,
    _fractions,
    _strings,
    distance,
    format_polynomial,
)
from riordan.triangles import RiordanMatrix, build_triangle

from oracles import (
    coeffs,
    divide,
    divided_columns,
    division_scale,
    format_polynomial as reference_format,
    past_precision,
    random_fraction,
    random_series,
)
from sweep import FAMILIES, cases

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
            amap = scheme(m)
            for _ in range(4):
                t1 = random_series(rng, 8)
                t2 = random_series(rng, 8)
                assert distance(amap(t1), amap(t2)) <= distance(t1, t2) / 2


# ----------------------------------------------------------------------
# one step is one integer pass
# ----------------------------------------------------------------------

def shaped_series(rng, shape, precision, order=0):
    """A seeded series of ``precision`` with zeros below ``order``: ``sparse`` small
    integers, ``gapped`` rationals on every third degree, or ``dense`` rationals."""
    if shape == "sparse":
        values = [rng.choice((1, -1, 2)) if rng.random() < 0.25 else 0
                  for _ in range(precision + 1)]
    elif shape == "gapped":
        values = [random_fraction(rng, nonzero=True) if d % 3 == 0 else 0
                  for d in range(precision + 1)]
    else:
        values = [random_fraction(rng, -40, 40, 12) for _ in range(precision + 1)]
    return Series([0] * order + values[order:], precision)


def fraction_for_fraction(got, want):
    assert got.precision == want.precision
    assert all(type(c) is F for c in got.coefficients)
    assert [c.as_integer_ratio() for c in got.coefficients] == \
        [c.as_integer_ratio() for c in want.coefficients]


def refuse_series_ring_operations(monkeypatch):
    """Make ``Series.__mul__`` and ``__add__`` fail on two series; scalars still pass."""
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def guarded(self, other, real=getattr(Series, name), name=name):
            if isinstance(other, Series):
                raise AssertionError(f"an affine step went through Series.{name}")
            return real(self, other)
        monkeypatch.setattr(Series, name, guarded)


def test_affine_step_equals_product_plus_offset(monkeypatch):
    rng = random.Random(22)
    shapes = ("sparse", "gapped", "dense")
    panel = []
    for slope_shape in shapes:
        for t_shape in shapes:
            for offset_shape in shapes:
                for _ in range(4):
                    # unequal precisions: each of the three may be the least
                    ps, pt, po = rng.sample(range(13), 3)
                    slope = shaped_series(rng, slope_shape, ps, order=1)
                    t = shaped_series(rng, t_shape, pt)
                    offset = shaped_series(rng, offset_shape, po)
                    panel.append((slope, t, offset, slope * t + offset))

    refuse_series_ring_operations(monkeypatch)
    for slope, t, offset, want in panel:
        got = AffineMap(slope, offset)(t)
        assert got.precision == min(slope.precision, t.precision, offset.precision)
        fraction_for_fraction(got, want)


def record_scalings(monkeypatch):
    """Every ``_integral`` call of ``fixpoint`` and of ``series``, as the coefficients scaled,
    in two lists: the map data and the start, and the operands of the ring operations."""
    scaled = {fixpoint: [], series: []}
    for module, calls in scaled.items():
        def recording(cs, real=module._integral, calls=calls):
            calls.append(cs)
            return real(cs)
        monkeypatch.setattr(module, "_integral", recording)
    return scaled[fixpoint], scaled[series]


def test_affine_map_scales_its_data_once_for_every_precision(monkeypatch):
    # a call is one _mul_add pass at the least precision of slope, t and offset: it scales
    # slope and offset through that precision, and t once, as the pass's operand
    amap = AffineMap(Series([0, F(1, 2), 0, F(-2, 3), 0, 0, 0, F(5, 11)], 9),
                     Series([F(3, 4), 1, 0, 0, 0, F(1, 13)], 9))
    scaled, ring = record_scalings(monkeypatch)
    for p in (0, 2, 4, 9, 7):
        t = Series([F(-1, 5), 2, F(1, 3), 0, 7, F(2, 7), 0, 1, 0, F(-9, 2)], p)
        scaled.clear()
        ring.clear()
        got = amap(t)
        assert scaled == [amap.slope.coefficients[: p + 1], amap.offset.coefficients[: p + 1]]
        assert ring == [t.coefficients]
        fraction_for_fraction(got, amap.slope.truncate(p) * t + amap.offset.truncate(p))
    # plain iteration applies the map to each iterate
    trace = iterate_fixed(amap, Series([F(2, 3), 0, F(-1, 7)], 9), 12)
    assert trace.last == amap(trace[-2])


@pytest.mark.parametrize("den", [1, 2])
def test_a_map_at_its_fixed_point_returns_the_fractions_of_its_argument(den):
    # t -> (x/den)*t + 1 on the truncation of 1/(1 - x/den)
    amap = AffineMap(Series([0, F(1, den)], 6), Series.one(6))
    t = Series([F(1, den ** n) for n in range(7)])
    got = amap(t)
    assert got == amap.slope * t + amap.offset
    assert got == t


@pytest.mark.parametrize("column", [1, 2, 4])
def test_crossed_runs_scale_the_scheme_data_and_the_start_once(monkeypatch, column):
    # every step map is the truncation of the limit map's slope and offset, padded back to
    # the precision; the trace scales g and the numerator once, into the integers that
    # _division_steps hands every step
    p = 7
    f = Series([F(1, 3), 2, 0, F(5, 2)], p)
    g = Series([F(-3, 2), 1, F(2, 5), 0, F(-1, 7)], p)
    start = Series([F(1, 2), F(-4, 3)], p)
    prev = reciprocal(f, g ** (column - 1), p).shift(column - 2) if column > 1 else None
    numerator = f if column == 1 else prev.truncate(p - 1).shift(1)
    steps_of = fixpoint._division_steps(series._integral(numerator.coefficients[: p + 1]),
                                        series._integral(g.coefficients[: p + 1]), p)
    for steps in (1, 2, 5, p + 1, 3 * p):
        scheme = reciprocal_scheme(f, g, p) if column == 1 else column_scheme(f, g, column, prev)
        trace = iterate_crossed(scheme, start, steps)
        limit = scheme(3 * p)
        assert list(limit.slope.coefficients) == [0] + [-c / g[0] for c in g.coefficients[1:]]
        assert list(limit.offset.coefficients) == [c / g[0] for c in numerator.coefficients]
        # every step's integers are its map's slope, through its last term, and its offset,
        # zeros included; from degree p on they are the limit map's, over the least
        # denominators (a prefix's may be smaller)
        for m in range(3 * p + 1):
            amap = scheme(m)
            cut = min(m, p)
            assert amap.slope == limit.slope.truncate(cut).pad(p)
            assert amap.offset == limit.offset.truncate(cut).pad(p)
            slope, offset = steps_of(m)
            for (den, nums), want in ((slope, amap.slope.coefficients[: cut + 1]),
                                      (offset, amap.offset.coefficients)):
                assert den > 0 and [F(v, den) for v in nums] == list(want)
                assert m < p or math.gcd(den, *nums) == 1
        assert trace.iterates == unfused_trace(scheme, start, steps)


def cli_trace_run(argv, steps):
    """``(scheme, start)`` of the run that ``riordan trace argv --steps steps`` prints, built
    from the library's maps: ``t -> x*t + 1``, ``t -> (2x - x^2)*t + 1``, or the column scheme
    of the binomial triangle, ``T(1 | 1 - x)``, on its full previous column."""
    scheme = argv[1]
    if scheme in ("geometric", "curious"):
        p = steps if scheme == "geometric" else 2 * steps
        amap = AffineMap(Series.x(p) if scheme == "geometric" else Series([0, 2, -1], p),
                         Series.one(p))
        return (lambda m: amap), Series.zero(p)
    n = 2 if scheme == "arithgeo" else int(argv[3]) if len(argv) > 2 else 3
    one, g = Series.one(steps), Series([1, -1], steps)
    prev = reciprocal(one, g ** (n - 1), steps).shift(n - 2)
    return column_scheme(one, g, n, prev), Series.zero(steps)


@pytest.mark.parametrize("argv", [
    ["--scheme", "geometric"],
    ["--scheme", "arithgeo"],
    ["--scheme", "curious"],
    ["--scheme", "column", "--n", "2"],
    ["--scheme", "column"],
    ["--scheme", "column", "--n", "5"],
])
def test_cli_traces_equal_the_unfused_reference_loop(capsys, argv):
    # each format prints the unfused iterates: json and csv their coefficients' strings,
    # pretty the reference formatter's rows
    for steps in range(1, 25):
        want = unfused_trace(*cli_trace_run(argv, steps), steps)
        printed = {}
        for fmt in ("json", "csv", "pretty"):
            assert cli.main(["trace", *argv, "--steps", str(steps), "--format", fmt]) == 0
            printed[fmt] = capsys.readouterr().out
        assert json.loads(printed["json"]) == [it.to_strings() for it in want]
        assert printed["csv"] == "".join(",".join(it.to_strings()) + "\n" for it in want)
        assert printed["pretty"] == "".join(reference_format(coeffs(it)) + "\n" for it in want)


def unfused_trace(scheme, start, steps):
    """The iterates of ``iterate_crossed(scheme, start, steps)`` by the ring operations:
    ``slope * t + offset`` at each step, one Fraction sum per product and per addition."""
    want = [start]
    for m in range(steps):
        amap = scheme(m)
        want.append(amap.slope * want[-1] + amap.offset)
    return tuple(want)


def test_crossed_iteration_hands_each_step_the_integers_of_its_iterate(monkeypatch):
    # the integers the trace's loop carries from step to step are those of _integral on the
    # reference iterate, whose denominators stop growing once the iterate converges, even
    # past the precision; every iterate of iterate_crossed is the unfused one
    rng = random.Random(31)
    handed = []
    real = fixpoint._integer_mul_add

    def recording(a, b, c, p):
        handed.append(b)
        return real(a, b, c, p)

    def rational(precision, order=0):
        return Series([0] * order + [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
                                     for _ in range(precision + 1 - order)], precision)

    monkeypatch.setattr(fixpoint, "_integer_mul_add", recording)
    for _ in range(12):
        p = rng.randint(1, 7)
        f, g = rational(p), rational(p)
        if not g[0]:
            g = g + 1
        amap = AffineMap(rational(p, order=1), rational(p))
        division = fixpoint._division_steps(series._integral(f.coefficients),
                                            series._integral(g.coefficients), p)
        constant = (series._integral(amap.slope.coefficients),
                    series._integral(amap.offset.coefficients), p)
        for scheme, step in ((reciprocal_scheme(f, g, p), lambda m: (*division(m), p)),
                             (lambda m, amap=amap: amap, lambda m: constant)):
            start = rational(p)
            for steps in (0, 1, p, p + 1, 3 * p):
                want = unfused_trace(scheme, start, steps)
                handed.clear()
                held = series._integral(start.coefficients)
                yielded = list(fixpoint._crossed_integers(held, map(step, range(steps))))
                assert yielded == [series._integral(t.coefficients) for t in want[1:]]
                assert handed == [series._integral(t.coefficients) for t in want[:steps]]
                trace = iterate_crossed(scheme, start, steps)
                for got, reference in zip(trace, want, strict=True):
                    fraction_for_fraction(got, reference)


def test_reference_path_runs_without_the_trace_integer_loop(monkeypatch):
    # the reference iterates come from the maps alone, applied as the paper defines them:
    # with the trace's integer loop and step integers refused, every reference run of the
    # sweep's families, at its small depths, is still the unfused one
    def refused(*args):
        raise AssertionError("the reference path read the trace's integer loop")

    monkeypatch.setattr(fixpoint, "_crossed_integers", refused)
    monkeypatch.setattr(fixpoint, "_division_steps", refused)
    for family in FAMILIES:
        for f, g, h, depth in cases(family):
            if depth > 8:
                break
            p = depth - 1
            amap = AffineMap(g.shift(1).truncate(p), f.truncate(p))
            for scheme in (reciprocal_scheme(f, g, p),
                           column_scheme(f, g, 2, reciprocal(f, g, p))):
                assert iterate_crossed(scheme, h, p + 1).iterates == unfused_trace(scheme, h, p + 1)
            fixed = unfused_trace(lambda m: amap, h, depth)
            assert iterate_fixed(amap, h, depth).iterates == fixed
            assert amap(h) == fixed[1]


def polynomial_panel():
    """Seeded coefficient lists: each of 0, +-1, other integers and non-integers at
    degrees 0, 1 and >= 2 among random neighbours, and all-zero lists."""
    rng = random.Random(23)
    values = [F(0), F(1), F(-1), F(2), F(-7), F(1, 2), F(-3, 4), F(11, 3), F(-1, 5)]
    panel = [[], *([F(0)] * n for n in range(1, 5))]
    for v in values:
        for d in (0, 1, 2, 5):
            for _ in range(3):
                cs = [rng.choice(values) for _ in range(rng.randint(d + 1, d + 4))]
                cs[d] = v
                panel.append(cs)
    panel += [[random_fraction(rng, -9, 9, 4) for _ in range(rng.randint(1, 12))]
              for _ in range(200)]
    return panel


def test_format_polynomial_equals_the_fraction_based_reference():
    for cs in polynomial_panel():
        assert format_polynomial(cs) == reference_format(cs), cs
        assert str(Series(cs or [0])) == reference_format(cs or [0])


def test_series_and_trace_rows_print_as_the_reference_formatter():
    # 200 seeded coefficient lists drawn from zero, +-1, other integers of either sign,
    # rationals, and 400-bit integers and rationals: str of the Series, the formatter on
    # the coefficients' strings and the trace's pretty rows, printed from the integers
    # (D, D*t), each give the reference's text
    rng = random.Random(24)

    def big():
        return rng.getrandbits(400) | 1 << 399

    def sign():
        return rng.choice((1, -1))

    draws = (lambda: F(0), lambda: F(1), lambda: F(-1), lambda: F(sign() * rng.randint(2, 99)),
             lambda: F(sign() * rng.randint(1, 99), rng.randint(2, 99)),
             lambda: F(sign() * big()), lambda: F(sign() * big(), big()))
    panel = [[rng.choice(draws)() for _ in range(rng.randint(1, 12))] for _ in range(200)]
    for cs in panel:
        want = reference_format(cs)
        assert str(Series(cs)) == want
        assert format_polynomial([str(c) for c in cs]) == want
    rows = [series._integral(cs) for cs in panel]
    assert cli.render_trace(rows, "pretty").split("\n") == list(map(reference_format, panel))


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
    start = Series.zero(GEOMETRIC_MAP_PRECISION)
    assert iterate_crossed(lambda m: amap, start, 5) == iterate_fixed(amap, start, 5)


def test_scheme_limit_map_fixes_the_quotient():
    # the limit map t -> ((g0 - g)/g0)*t + f/g0 fixes f/g, and the crossed
    # iterates of the division scheme reach that fixed point
    rng = random.Random(26)
    f = random_series(rng, 8)
    g = random_series(rng, 8, nonzero_constant=True)
    inv_g0 = 1 / g[0]
    limit_map = AffineMap(1 - g * inv_g0, f * inv_g0)
    quotient = reciprocal(f, g, 8)
    assert limit_map(quotient) == quotient
    assert iterate_crossed(reciprocal_scheme(f, g, 8), Series.zero(8), 9).last == quotient


@pytest.mark.parametrize("run", [
    lambda steps: iterate_fixed(geometric_map(), Series.zero(GEOMETRIC_MAP_PRECISION), steps),
    lambda steps: iterate_crossed(pascal_column_scheme(2, GEOMETRIC_MAP_PRECISION),
                                  Series.zero(GEOMETRIC_MAP_PRECISION), steps),
], ids=["fixed", "crossed"])
def test_iteration_refuses_negative_steps(run):
    for steps in (-1, -2):
        with pytest.raises(ValueError, match="steps must be a natural number"):
            run(steps)
    assert list(run(0)) == [Series.zero(GEOMETRIC_MAP_PRECISION)]


def test_crossed_error_names_step():
    def maps(m):
        if m == 2:
            return AffineMap(Series([1, 1], 3), Series.zero(3))
        return AffineMap(Series.x(3), Series.zero(3))

    with pytest.raises(NotContractiveError, match="step 2"):
        iterate_crossed(maps, Series.zero(3), 5)


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
    # x**3 * f has columns x**3 * column(k); the zero series has zero columns; either
    # converter gives the columns, as Fractions or as their strings
    for num, shifted in ((f, 0), (f.shift(3).truncate(p), 3), (Series.zero(p), p + 1)):
        columns = [[F(0)] * shifted + col[: p + 1 - shifted] for col in expected]
        assert coeffs(reciprocal(num, g, p)) == columns[0] == divide(coeffs(num), gc, p)
        want = [col[k:] for k, col in enumerate(columns)]
        assert _division_columns(num, g, p, p + 1, _fractions) == want
        assert _division_columns(num, g, p, p + 1, _strings) == [list(map(str, c)) for c in want]


UNIT_SCALE_G = {  # g0 = a/b, a > 0, the sign in b
    "g0=1": ([1, -2, 0, 3], (1, 1)),
    "g0=-1": ([-1, 1, 0, 2], (1, -1)),
    "g0=2": ([2, -1, 0, 1], (2, 1)),
    "g0=1/2": ([F(1, 2), 1, 0, -1], (1, 2)),
}


@pytest.mark.parametrize("f", [[1, -1, 0, 3], [F(2, 3), F(-1, 2), 0, F(5, 7)]],
                         ids=["integer f", "rational f"])
@pytest.mark.parametrize("g, ab", UNIT_SCALE_G.values(), ids=UNIT_SCALE_G)
def test_a_unit_scale_is_not_multiplied_into_the_columns(monkeypatch, f, g, ab):
    # entry (n, k) is S_k[n-k]*b**(k+1) / (M*delta_(n-k)*a**(k+1)): a column whose
    # b**(k+1) is 1 reaches the converter as the kernel's own integer list, and one whose
    # a**(k+1) is 1 over M*delta_(n-k) alone, whichever converter the caller passes: a
    # triangle's entries and a quotient are Fractions, a triangle printed unbuilt strings
    p = 9
    fs, gs = Series(f, p), Series(g, p)
    runs, handed, converters = [], [], []
    integer_columns, division_columns = fixpoint._integer_columns, fixpoint._division_columns

    def kernel(*args):
        den_f, split, delta, columns = integer_columns(*args)
        columns = list(columns)  # the kernel yields its columns: hand on the ones recorded
        runs.append((den_f, split, delta, columns))
        return den_f, split, delta, columns

    def columns_by(f, g, precision, count, convert):
        converters.append(convert)

        def boundary(nums, dens):
            handed.append((nums, list(dens)))
            return convert(nums, dens)

        return division_columns(f, g, precision, count, boundary)

    monkeypatch.setattr(fixpoint, "_integer_columns", kernel)
    for module in (fixpoint, triangles):
        monkeypatch.setattr(module, "_division_columns", columns_by)
    rows = [list(row) for row in build_triangle(fs, gs, p + 1).entries]
    cells = RiordanMatrix(fs, gs, p + 1).to_csv()
    quotient = reciprocal(fs, gs, p)
    expected = divided_columns(coeffs(fs), coeffs(gs), p, p + 1)
    assert rows == [[expected[k][n] for k in range(n + 1)] for n in range(p + 1)]
    assert cells == "\n".join(",".join(str(v) for v in row) for row in rows)
    assert coeffs(quotient) == expected[0]
    assert converters == [_fractions, _strings, _fractions]
    assert [(split, len(columns)) for _, split, _, columns in runs] == \
           [(ab, p + 1), (ab, p + 1), (ab, 1)]
    columns = [(k, column, run) for run in runs for k, column in enumerate(run[3])]
    assert len(handed) == len(columns)
    a, b = ab
    for (k, column, (den_f, _, delta, _)), (nums, dens) in zip(columns, handed):
        assert (nums is column) == (b ** (k + 1) == 1)
        scale = [den_f * d for d in delta[: len(column)]]
        assert dens == [d * a ** (k + 1) for d in scale]
        assert (dens == scale) == (a == 1)


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


@pytest.mark.parametrize("g", KERNEL_COFACTORS.values(), ids=KERNEL_COFACTORS)
def test_step_multiplies_and_divides_by_the_cofactor(g):
    # the one integer recurrence on both _scale_rows branches, geometric (3**j,
    # 2**(2j)*5**j) and windowed (gapped, g0=-3/2): the multiply step is
    # delta_m [x^m] u*(g/g0) by Series arithmetic, and the divide step undoes it
    rng = random.Random(32)
    p = 30
    g = g.truncate(p)
    delta, rows = fixpoint._scale_rows(g.coefficients, p)
    for start in (0, 1, 4):  # leading zeros of u
        u = Series([0] * start + [rng.randint(-9, 9) for _ in range(start, p + 1)])
        source = [c * d for c, d in zip(coeffs(u), delta)]
        product = fixpoint._step(source, rows, 1, p + 1)
        expected = coeffs(u * g * (1 / g[0]))
        assert [F(v, d) for v, d in zip(product, delta)] == expected
        assert fixpoint._step(product, rows, -1, p + 1) == source
        assert fixpoint._step(product, rows, -1, p - 3) == source[: p - 3]


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
                amap = scheme(m)
                assert coeffs(amap.slope) == [c if d <= m else 0 for d, c in enumerate(slope)]
                assert coeffs(amap.offset) == [c if d <= m else 0 for d, c in enumerate(x_prev)]


def test_column_scheme_rejects_first_column():
    with pytest.raises(ValueError):
        column_scheme(Series.one(3), Series([1, -1], 3), 1, Series.one(3))


def test_column_scheme_checks_prev_precision():
    with pytest.raises(PrecisionError):
        column_scheme(Series.one(8), Series([1, -1], 8), 2, Series.one(2))
    with pytest.raises(PrecisionError, match="column construction needs precision >= 1"):
        column_scheme(Series.one(0), Series([1, -1], 8), 2, Series.one(0))


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
