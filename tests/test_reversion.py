"""Tests for compositional inversion and the Lagrange identities."""

import math
import random
from fractions import Fraction as F

import pytest

from riordan.reversion import (
    ReversionProblem,
    invert_series,
    lagrange_coefficient,
    verify_lagrange,
)
from riordan.series import DomainError, PrecisionError, Series, distance

from oracles import (
    coeffs,
    compositional_inverse,
    random_order_one,
    random_series,
)


# ----------------------------------------------------------------------
# the reversion problem
# ----------------------------------------------------------------------

def test_problem_derives_cofactor():
    prob = ReversionProblem.from_omega(Series([0, 1, -1], 6))
    # omega = x - x^2 = x*(1-x), so g = x/omega = 1/(1-x)
    assert prob.g == Series([1] * 6)
    assert prob.omega.shift(-1) * prob.g == Series.one(5)


def test_problem_rejects_wrong_order():
    with pytest.raises(DomainError, match="order must be 1"):
        ReversionProblem.from_omega(Series([1, 1], 4))
    with pytest.raises(DomainError, match="order must be 1"):
        ReversionProblem.from_omega(Series([0, 0, 1], 4))


# ----------------------------------------------------------------------
# invert_series
# ----------------------------------------------------------------------

def test_invert_generic_degree_two():
    rng = random.Random(51)
    for _ in range(6):
        omega = random_order_one(rng, 4)
        got = invert_series(omega, 2)
        g = ReversionProblem.from_omega(omega).g
        g0, g1 = g[0], g[1]
        assert got == Series([0, g0, g0 * g1])


def test_invert_x_is_x():
    assert invert_series(Series.x(6), 5) == Series([0, 1], 5)


def test_truncated_inverse_recovers_low_stage():
    rng = random.Random(50)
    for _ in range(5):
        omega = random_order_one(rng, 7)
        g = ReversionProblem.from_omega(omega).g
        full = invert_series(omega, 5)
        assert full.truncate(2) == Series([0, g[0], g[0] * g[1]])


def test_invert_catalan():
    # frozen from the back-substitution oracle: 1, 1, 2, 5, 14
    got = invert_series(Series([0, 1, -1], 6), 5)
    assert got == Series([0, 1, 1, 2, 5, 14])
    assert coeffs(got) == compositional_inverse([F(0), F(1), F(-1)], 5)


def test_invert_matches_oracle_random():
    rng = random.Random(52)
    for _ in range(10):
        omega = random_order_one(rng, 9)
        got = invert_series(omega, 8)
        assert coeffs(got) == compositional_inverse(coeffs(omega), 8)


def test_invert_round_trips_composition():
    rng = random.Random(53)
    for _ in range(8):
        omega = random_order_one(rng, 9)
        inv = invert_series(omega, 8)
        assert omega.truncate(8).compose(inv) == Series.x(8)
        assert inv.compose(omega.truncate(8)) == Series.x(8)


def test_invert_stagewise_agreement():
    # stage k of the nested-truncation scheme is already exact through
    # degree k, not merely k-1
    rng = random.Random(54)
    omega = random_order_one(rng, 10)
    exact = compositional_inverse(coeffs(omega), 9)
    for k in range(1, 10):
        assert coeffs(invert_series(omega, k)) == exact[: k + 1]


def test_invert_rejects_wrong_order():
    with pytest.raises(DomainError, match="not invertible: order must be 1"):
        invert_series(Series([1, 1], 5), 4)


def test_invert_needs_one_spare_degree():
    with pytest.raises(PrecisionError):
        invert_series(Series([0, 1, -1], 5), 5)


def test_invert_precision_zero():
    assert invert_series(Series([0, 1], 3), 0) == Series.zero(0)


def test_invert_rejects_negative_precision():
    with pytest.raises(ValueError, match="precision must be a natural number"):
        invert_series(Series([0, 1, -1, 0, 0]), -3)


# ----------------------------------------------------------------------
# the contraction behind the scheme
# ----------------------------------------------------------------------

def test_substitution_map_is_half_contractive():
    rng = random.Random(55)
    for _ in range(10):
        g = random_series(rng, 8, nonzero_constant=True)

        def contraction(y):
            return g.compose(y).shift(1).truncate(8)

        y1 = random_order_one(rng, 8)
        y2 = random_order_one(rng, 8)
        assert distance(contraction(y1), contraction(y2)) <= distance(y1, y2) / 2


# ----------------------------------------------------------------------
# lagrange_coefficient
# ----------------------------------------------------------------------

def test_lagrange_classical_bracket_n5():
    rng = random.Random(56)
    for _ in range(6):
        g = random_series(rng, 5, nonzero_constant=True)
        g0, g1, g2, g3, g4 = (g[i] for i in range(5))
        expected = (g0 * g1 ** 4 + 6 * g0 ** 2 * g1 ** 2 * g2 + 2 * g0 ** 3 * g2 ** 2
                    + 4 * g0 ** 3 * g1 * g3 + g0 ** 4 * g4)
        assert lagrange_coefficient(g, 5, 1) == expected


def test_lagrange_diagonal():
    rng = random.Random(57)
    for n in range(1, 6):
        g = random_series(rng, n, nonzero_constant=True)
        assert lagrange_coefficient(g, n, n) == g[0] ** n


def test_lagrange_above_diagonal_is_zero():
    g = Series([1, 1, 1, 1])
    assert lagrange_coefficient(g, 2, 5) == 0


def test_lagrange_catalan_binomial_identity():
    g = Series([1] * 6)  # 1/(1-x)
    assert lagrange_coefficient(g, 5, 1) == F(1, 5) * math.comb(8, 4) == 14
    # cross-check against the inversion itself: omega = x*(1-x)... no:
    # g = x/omega = 1/(1-x) means omega = x*(1-x) = x - x^2
    assert invert_series(Series([0, 1, -1], 6), 5)[5] == 14


def test_lagrange_low_degree_brackets():
    rng = random.Random(58)
    for _ in range(6):
        g = random_series(rng, 4, nonzero_constant=True)
        g0, g1, g2, g3 = (g[i] for i in range(4))
        assert lagrange_coefficient(g, 1, 1) == g0
        assert lagrange_coefficient(g, 2, 1) == g0 * g1
        assert lagrange_coefficient(g, 3, 1) == g0 * g1 ** 2 + g0 ** 2 * g2
        assert lagrange_coefficient(g, 4, 1) == (
            g0 * g1 ** 3 + 3 * g0 ** 2 * g1 * g2 + g0 ** 3 * g3)


def test_lagrange_coefficient_validation():
    with pytest.raises(ValueError):
        lagrange_coefficient(Series([1, 1]), 0, 1)
    with pytest.raises(DomainError):
        lagrange_coefficient(Series([0, 1]), 2, 1)


# ----------------------------------------------------------------------
# verify_lagrange
# ----------------------------------------------------------------------

def test_verify_lagrange_catalan_omega():
    report = verify_lagrange(Series([0, 1, -1], 11), 10)
    assert report.ok
    assert report.violations == ()


def test_verify_lagrange_identity_omega():
    assert verify_lagrange(Series([0, 1], 11), 10).ok


def test_verify_lagrange_pascal_omega():
    # omega = x/(1-x): inverse is x/(1+x), checked by composition
    omega = Series([0] + [1] * 11)
    assert verify_lagrange(omega, 10).ok
    inv = invert_series(omega, 10)
    assert inv == Series([0] + [(-1) ** k for k in range(10)])


def test_verify_lagrange_random_panel():
    rng = random.Random(59)
    for _ in range(5):
        omega = random_order_one(rng, 16)
        assert verify_lagrange(omega, 15).ok


def test_lagrange_ignores_precision_beyond_the_grid():
    rng = random.Random(60)
    for _ in range(3):
        omega = random_order_one(rng, 30)
        assert verify_lagrange(omega, 6) == verify_lagrange(omega.truncate(7), 6)
        assert invert_series(omega, 6) == invert_series(omega.truncate(7), 6)
        g = ReversionProblem.from_omega(omega).g
        for n, k in ((1, 1), (5, 2), (6, 1)):
            assert lagrange_coefficient(g, n, k) == lagrange_coefficient(g.truncate(n - k), n, k)


def test_report_json_shape():
    report = verify_lagrange(Series([0, 1, -1], 6), 5)
    obj = report.to_json_dict()
    assert obj == {"max_n": 5, "violations": []}
