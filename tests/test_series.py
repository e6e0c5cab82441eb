"""Tests for the exact truncated-series arithmetic."""

import math
import random
from fractions import Fraction as F

import pytest

from riordan.series import (
    INFINITE_ORDER,
    DomainError,
    PrecisionError,
    Series,
    _fractions,
    distance,
    format_polynomial,
)

from oracles import divide, random_series


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_construction_pads_polynomials():
    s = Series([1, -1], precision=4)
    assert s.precision == 4
    assert s.coefficients == (F(1), F(-1), F(0), F(0), F(0))


def test_construction_accepts_strings_and_fractions():
    s = Series(["1/2", F(3, 4), 2])
    assert s.coefficients == (F(1, 2), F(3, 4), F(2))


def test_floats_rejected():
    with pytest.raises(TypeError):
        Series([0.5])


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        Series([])


def test_lowest_terms_and_positive_denominator():
    s = Series([F(2, 4), F(-3, -6)])
    assert s[0] == F(1, 2) and s[0].denominator == 2
    assert s[1] == F(1, 2) and s[1].numerator == 1


# ----------------------------------------------------------------------
# order
# ----------------------------------------------------------------------

def test_order_of_monomial_sum():
    assert Series([0, 0, 0, 1, 0, 1]).order() == 3


def test_order_of_zero_is_infinite():
    assert Series.zero(10).order() == INFINITE_ORDER
    assert math.isinf(Series.zero(10).order())


def test_order_nonzero_constant():
    assert Series([1, -1]).order() == 0


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------

def test_distance_geometric_example():
    geo = Series([1] * 6)  # 1/(1-x) truncated to degree 5
    other = Series([1, 1, 1], precision=5)
    assert distance(geo, other) == F(1, 8)  # difference has order 3


def test_distance_to_self_is_zero():
    s = Series([1, 2, 3])
    assert distance(s, s) == 0


def test_distance_difference_order_one():
    assert distance(Series([1], 1), Series([1, 1])) == F(1, 2)


def test_distance_requires_common_precision():
    with pytest.raises(ValueError):
        distance(Series([1], 1), Series([1], 2))


# ----------------------------------------------------------------------
# truncate / pad / shift
# ----------------------------------------------------------------------

def test_truncate_basic():
    assert Series([1, 2, 3, 4]).truncate(2) == Series([1, 2, 3])


def test_truncate_to_own_precision_is_identity():
    s = Series([1, 2, 3])
    assert s.truncate(s.precision) == s


def test_truncate_beyond_precision_raises():
    with pytest.raises(PrecisionError):
        Series([1, 2]).truncate(5)


def test_pad_cannot_shrink():
    with pytest.raises(ValueError):
        Series([1, 2, 3]).pad(1)


def test_shift_round_trip():
    s = Series([1, 2, 3])
    assert s.shift(2).shift(-2) == s
    assert s.shift(2).precision == s.precision + 2


def test_shift_negative_requires_low_zeros():
    with pytest.raises(DomainError):
        Series([1, 2]).shift(-1)


POLY = Series([1, 2, 0], 2)
NOT_A_COEFFICIENT = "^unsupported operand type"
SUBTRACTED_FROM = r"^unsupported operand type\(s\) for -: '{}' and 'Series'$"


@pytest.mark.parametrize("operation, outcome", [
    (lambda: Series([1], -1), (ValueError, "^precision must be a natural number$")),
    (lambda: POLY.coefficient(-1), (ValueError, "^degree must be nonnegative$")),
    (lambda: POLY.truncate(-1), (ValueError, "^truncation degree must be nonnegative$")),
    (lambda: Series.zero(2).shift(-3), (PrecisionError, "^cannot shift by -3: precision is 2$")),
    (lambda: POLY + "a", (TypeError, NOT_A_COEFFICIENT)),
    (lambda: POLY - "a", (TypeError, NOT_A_COEFFICIENT)),
    # Series.__mul__ declines, and str's own repetition refuses a Series count
    (lambda: POLY * "a", (TypeError, "^can't multiply sequence by non-int of type 'Series'$")),
    (lambda: POLY ** -1, (ValueError, "^series exponents must be natural numbers$")),
    (lambda: POLY ** 1.5, (ValueError, "^series exponents must be natural numbers$")),
    (lambda: POLY - 1, Series([0, 2, 0], 2)),
    # Series.__rsub__ declines, so Python names "-" and the operands in their order
    (lambda: 1.5 - POLY, (TypeError, SUBTRACTED_FROM.format("float"))),
    (lambda: "a" - POLY, (TypeError, SUBTRACTED_FROM.format("str"))),
    (lambda: 1 - POLY, Series([0, -2, 0], 2)),
    (lambda: F(1, 2) - POLY, Series([F(-1, 2), -2, 0], 2)),
    (lambda: POLY == 1, False),
    (lambda: hash(POLY) == hash(Series(["1", F(4, 2)], 2)), True),
], ids=["negative precision", "coefficient(-1)", "truncate(-1)", "shift past precision",
        "s + str", "s - str", "s * str", "s ** -1", "s ** 1.5", "s - scalar",
        "float - s", "str - s", "int - s", "Fraction - s", "s == int",
        "hash of equal series"])
def test_out_of_domain_arguments_and_scalar_operands(operation, outcome):
    if isinstance(outcome, tuple):
        error, message = outcome
        with pytest.raises(error, match=message):
            operation()
    else:
        assert operation() == outcome


# ----------------------------------------------------------------------
# addition and negation
# ----------------------------------------------------------------------

def test_add_cancels():
    assert Series([1, 1]) + Series([1, -1]) == Series([2, 0])


def test_add_zero_identity():
    s = Series([1, 2, 3])
    assert s + Series.zero(s.precision) == s


def test_add_inverse():
    s = Series([1, 2, 3])
    assert s + (-s) == Series.zero(s.precision)


def test_add_min_precision():
    assert (Series([1, 2, 3]) + Series([1, 1])).precision == 1


# ----------------------------------------------------------------------
# Cauchy product
# ----------------------------------------------------------------------

def test_product_telescopes_geometric():
    assert Series([1, -1], 4) * Series([1] * 5) == Series([1], 4)


def test_product_one_identity():
    s = Series([1, 2, 3, 4])
    assert s * Series.one(s.precision) == s


def test_product_geometric_squared():
    geo = Series([1] * 5)
    assert geo * geo == Series([1, 2, 3, 4, 5])


# ----------------------------------------------------------------------
# power
# ----------------------------------------------------------------------

def test_power_cube_x2_coefficient_generic():
    rng = random.Random(11)
    for _ in range(6):
        g = random_series(rng, 4, nonzero_constant=True)
        g0, g1, g2 = g[0], g[1], g[2]
        assert (g ** 3)[2] == 3 * (g0 * g1 ** 2 + g0 ** 2 * g2)


def test_power_one_identity():
    s = Series([2, 3, 4])
    assert s ** 1 == s


def test_power_binomial():
    # frozen from the binomial oracle: math.comb(4, k)
    assert Series([1, 1], 4) ** 4 == Series([1, 4, 6, 4, 1])


def test_power_matches_repeated_product():
    rng = random.Random(12)
    s = random_series(rng, 6)
    acc = Series.one(6)
    for k in range(9):
        assert s ** k == acc
        acc = acc * s


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------

def test_compose_geometric_in_geometric():
    # oracle: 1/(1-y) at y = x/(1-x) equals (1-x)/(1-2x)
    expected = divide([F(1), F(-1)], [F(1), F(-2)], 3)
    outer = Series([1, 1, 1, 1])
    inner = Series([0, 1, 1, 1])
    assert list((outer(inner)).coefficients) == expected
    assert outer(inner) == Series([1, 1, 2, 4])


def test_compose_with_x_identity():
    s = Series([3, 1, 4, 1])
    assert s.compose(Series.x(s.precision)) == s


def test_compose_x_with_series():
    s = Series([0, 2, 5])
    assert Series.x(s.precision).compose(s) == s


def test_compose_requires_positive_inner_order():
    with pytest.raises(DomainError):
        Series([1, 1]).compose(Series([1, 1]))


def test_compose_associative():
    rng = random.Random(13)
    for _ in range(5):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        c = random_series(rng, 6)
        b = Series([0] + list(b.coefficients)[1:])  # force order >= 1
        c = Series([0] + list(c.coefficients)[1:])
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


# ----------------------------------------------------------------------
# derivative
# ----------------------------------------------------------------------

def test_derivative_basic():
    assert Series([1, 1, 1]).derivative() == Series([1, 2])


def test_derivative_of_constant():
    assert Series([5], 3).derivative() == Series.zero(2)


def test_derivative_power_rule():
    x5 = Series([0] * 5 + [1])
    assert x5.derivative()[4] == 5


def test_derivative_needs_precision():
    with pytest.raises(PrecisionError):
        Series([5]).derivative()


# ----------------------------------------------------------------------
# coefficient extraction
# ----------------------------------------------------------------------

def test_coefficient_of_geometric_squared():
    geo = Series([1] * 5)
    assert (geo * geo).coefficient(4) == 5


def test_coefficient_constant():
    assert Series.one().coefficient(0) == 1


def test_coefficient_cube_x3_generic():
    rng = random.Random(14)
    for _ in range(6):
        g = random_series(rng, 4, nonzero_constant=True)
        g0, g1, g2, g3 = (g[i] for i in range(4))
        assert (g ** 3)[3] == 6 * g0 * g1 * g2 + 3 * g0 ** 2 * g3 + g1 ** 3


def test_coefficient_beyond_precision_raises():
    with pytest.raises(PrecisionError):
        Series([1, 2]).coefficient(5)


# ----------------------------------------------------------------------
# metric structure
# ----------------------------------------------------------------------

def test_ultrametric_inequality_random_triples():
    rng = random.Random(15)
    for _ in range(60):
        a, b, c = (random_series(rng, 8) for _ in range(3))
        assert distance(a, c) <= max(distance(a, b), distance(b, c))


def test_distance_truncation_characterization():
    rng = random.Random(16)
    for _ in range(40):
        a = random_series(rng, 8)
        b = random_series(rng, 8)
        for n in range(8):
            close = distance(a, b) <= F(1, 2 ** (n + 1))
            assert close == (a.truncate(n) == b.truncate(n))


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(15):
        a, b, c = (random_series(rng, 6) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ring_results_equal_the_coerced_path_fraction_for_fraction():
    # products, sums and differences store their fresh Fractions without the public
    # constructor's coercion; the schoolbook Fraction sums, coerced by Series(...), give
    # the same series
    rng = random.Random(18)
    for p in range(9):
        a, b = random_series(rng, p), random_series(rng, p)
        ints = Series([rng.randint(-5, 5) for _ in range(p + 1)])  # one scale, 1
        for x, y in ((a, b), (a, ints), (ints, ints)):
            product = Series([sum(x[i] * y[n - i] for i in range(n + 1)) for n in range(p + 1)])
            total = Series([x[n] + y[n] for n in range(p + 1)])
            difference = Series([x[n] - y[n] for n in range(p + 1)])
            for got, want in ((x * y, product), (x + y, total), (x - y, difference)):
                # Fraction equality compares numerator and denominator as stored
                assert all(type(c) is F for c in got.coefficients)
                assert got.coefficients == want.coefficients


def test_fractions_equal_the_two_argument_constructor():
    # the one integer-to-Fraction boundary: a list of unit denominators takes the int
    # path, any other list the reducing one, and both give the constructor's Fractions
    rng = random.Random(20)
    for n in range(12):
        small = [rng.randint(-50, 50) for _ in range(n)]
        big = [rng.getrandbits(300) - (1 << 299) for _ in range(n)]
        ones = [1] * n
        mixed = [rng.choice((1, 1, 2, 6, 9)) for _ in range(n)]
        big_dens = [rng.getrandbits(300) | 1 for _ in range(n)]
        for nums, dens in ((small, ones), (big, ones), (small, mixed), (big, mixed),
                           (big, big_dens), (small, big_dens)):
            got = _fractions(nums, dens)
            assert all(type(c) is F for c in got)
            assert [c.as_integer_ratio() for c in got] == \
                   [F(v, d).as_integer_ratio() for v, d in zip(nums, dens)]
        assert _fractions(iter(small), ones) == [F(v) for v in small]  # nums may be an iterator


def reshaped(a):
    """Truncations, a pad, shifts both ways, negation, scalar products and sum, derivative."""
    out = [a.truncate(m) for m in range(a.precision + 1)]
    out += [a.pad(a.precision + 3), a.shift(2), a.shift(2).shift(-1), -a,
            a * F(-2, 3), 3 * a, a + F(1, 2), a.derivative()]
    return out


def test_reshaping_and_scalar_results_keep_the_fractions_they_hold(monkeypatch):
    # these store the Fractions the series already holds, or that Fraction arithmetic
    # just built, without the public constructor's coercion; Series(...) gives the same
    rng = random.Random(19)
    panel = [random_series(rng, p) for p in range(1, 9)]
    expected = []
    for a in panel:
        cs = list(a.coefficients)
        want = [Series(cs[: m + 1]) for m in range(len(cs))]
        want += [Series(cs, a.precision + 3), Series([0, 0] + cs), Series([0] + cs),
                 Series([-c for c in cs]), Series([c * F(-2, 3) for c in cs]),
                 Series([c * 3 for c in cs]), Series([cs[0] + F(1, 2)] + cs[1:]),
                 Series([i * c for i, c in enumerate(cs)][1:])]
        expected.append(want)

    def refuse(value):
        raise AssertionError(f"coerced {value!r}")

    monkeypatch.setattr("riordan.series._coerce", refuse)
    for a, want in zip(panel, expected):
        zeros = a.pad(a.precision + 3).coefficients[-3:]
        assert zeros[0] is zeros[1] is zeros[2]
        for got, ref in zip(reshaped(a), want, strict=True):
            assert all(type(c) is F for c in got.coefficients)
            assert got.coefficients == ref.coefficients


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def test_format_polynomial_cases():
    assert str(Series.zero(4)) == "0"
    assert str(Series([1, 2, 3, -4, 1])) == "1+2x+3x^2-4x^3+x^4"
    assert str(Series([0, 1, 0, -1])) == "x-x^3"
    assert str(Series(["-1/2", 0, "3/2"])) == "-1/2+(3/2)x^2"
    assert format_polynomial([F(0), F(2)]) == "2x"


def test_to_strings_round_trip():
    s = Series(["1/3", "-2", "0", "5/7"])
    assert Series(s.to_strings()) == s
