"""Tests for compositional inversion and the Lagrange identities."""

import json
import math
import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest

from riordan import fixpoint, reversion
from riordan.reversion import invert_series, lagrange_coefficient, verify_lagrange
from riordan.series import DomainError, PrecisionError, Series, distance

from cap_answers import x_over_g_omega
from oracles import (
    coeffs,
    cofactor,
    compositional_inverse,
    divide,
    division_scale,
    list_power,
    past_precision,
    random_fraction,
    random_order_one,
    random_series,
)


# ----------------------------------------------------------------------
# invert_series
# ----------------------------------------------------------------------

def test_invert_generic_degree_two():
    rng = random.Random(51)
    for _ in range(6):
        omega = random_order_one(rng, 4)
        got = invert_series(omega, 2)
        g = cofactor(omega, 1)
        g0, g1 = g[0], g[1]
        assert got == Series([0, g0, g0 * g1])


def test_invert_x_is_x():
    assert invert_series(Series.x(6), 5) == Series([0, 1], 5)


def test_truncated_inverse_recovers_low_stage():
    rng = random.Random(50)
    for _ in range(5):
        omega = random_order_one(rng, 7)
        g = cofactor(omega, 1)
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


def test_invert_builds_its_result_without_the_coercing_constructor(monkeypatch):
    # like every kernel decoder, invert_series stores the Fractions it built: with the
    # public constructor's coercion refused it gives the oracle's series all the same
    rng = random.Random(55)
    panel = [(random_order_one(rng, p + 1), p) for p in range(1, 10)]
    want = [Series(compositional_inverse(coeffs(omega), p)) for omega, p in panel]

    def refuse(value):
        raise AssertionError(f"coerced {value!r}")

    monkeypatch.setattr("riordan.series._coerce", refuse)
    for (omega, p), ref in zip(panel, want):
        got = invert_series(omega, p)
        assert all(type(c) is F for c in got.coefficients)
        assert got.precision == p and got.coefficients == ref.coefficients


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


def horner_stages(omega: Series, precision: int) -> list[Series]:
    """Stages 1..precision of ``T_k = x*g(T_(k-1))`` truncated to degree k,
    each one a full Horner recomposition: the paper's iteration, the
    reference path for the power table in ``invert_series``."""
    g = cofactor(omega, precision)
    stages = [Series((0, g.coefficient(0)))]
    for _ in range(2, precision + 1):
        stages.append(g.compose(stages[-1]).shift(1))
    return stages


def sparse_order_one(rng: random.Random, precision: int) -> Series:
    """A random order-1 series with small integer, mostly zero coefficients."""
    tail = [rng.choice((0, 0, 0, -1, 1, 2)) for _ in range(precision - 1)]
    return Series([0, rng.choice((-2, -1, 1, 2))] + tail)


@pytest.mark.parametrize("make_omega", [sparse_order_one, random_order_one],
                         ids=["sparse", "dense"])
def test_invert_matches_the_horner_stages(make_omega):
    omega = make_omega(random.Random(61), 31)
    exact = compositional_inverse(coeffs(omega), 30)
    for k, stage in enumerate(horner_stages(omega, 30), start=1):
        got = invert_series(omega, k)
        assert got == stage
        assert coeffs(got) == exact[: k + 1]


# The power table runs on integers scaled by powers of s = L*omega_1 and
# builds each output as one Fraction; this panel reaches bigint sizes and
# signed, fractional leading coefficients.
@pytest.mark.parametrize("omega1", (1, -1, 3, F(-3, 2), F(2, 3)))
def test_invert_matches_oracle_at_bigint_sizes(omega1):
    rng = random.Random(63)
    p = 40
    omega = Series([0, omega1] + [random_fraction(rng, maxden=7) for _ in range(p)])
    y = invert_series(omega, p)
    assert coeffs(y) == compositional_inverse(coeffs(omega), p)
    assert all(type(c) is F for c in y.coefficients)
    assert invert_series(past_precision(omega, p), p) == y
    assert verify_lagrange(omega, 30).ok
    assert verify_lagrange(past_precision(omega, 30), 30).ok


def test_invert_series_keeps_no_table(monkeypatch):
    # at P = 200 on the x/g omega of the size-cap answers the rows of (1, T) hold 20,301
    # integers, 1.5 MB; invert_series reads column 1 off each row as it is filled and
    # keeps none.  The peak restarts once the side that fills the rows is chosen, so the
    # side rule's own scale is not counted
    omega = Series(json.loads(x_over_g_omega()))
    side = reversion._side

    def chosen(*args):
        out = side(*args)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(reversion, "_side", chosen)
    tracemalloc.start()
    try:
        y = invert_series(omega, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert y.truncate(30) == Series(compositional_inverse(coeffs(omega), 30))


# A polynomial A-sequence g leaves most taps A_i zero; the table multiplies
# only the nonzero ones.  T = x*g(T) for omega = x/g.
@pytest.mark.parametrize("g", ([1, 1], [1, 0, 1], [1, 1, 1], [1, 0, 0, -2],
                               [F(-3, 2), 0, 0, 0, F(2, 3)]))
def test_invert_polynomial_a_sequences(g):
    p = 40
    omega = Series([0] + divide([F(1)], [F(c) for c in g], p))
    y = invert_series(omega, p)
    assert coeffs(y) == compositional_inverse(coeffs(omega), p)
    assert y.shift(-1) == Series([F(c) for c in g], p).compose(y.truncate(p - 1))
    assert verify_lagrange(omega, 25).ok


@pytest.mark.parametrize("omega, p", [
    (random_order_one(random.Random(63), 13), 12),
    (Series([0] + divide([F(1)], [F(-3, 2), 0, 0, 0, F(2, 3)], 13)), 12),
    # omega_2.. are read by no table of degree 0
    (Series([0, F(5, 3), F(1, 7), F(-2, 11)]), 0),
    # L = 2*3*5*7, not den(omega_1) = 2
    (Series([0, F(1, 2), 0, 0, F(1, 3), 0, 0, 0, F(-2, 5), 0, 0, F(4, 7)], 13), 12),
    (Series([0, F(-3, 4), F(1, 6), F(-2, 5), 0, F(7, 3)], 13), 12),
], ids=["dense", "polynomial_g", "precision_0", "gapped_lcm", "negative_omega_1"])
def test_power_table_taps_come_from_omega_without_the_kernel(monkeypatch, omega, p):
    # g_i/g0 = Q_i/delta_i for i < p (g_0/g0 alone at p = 0), cut after g's last nonzero
    # coefficient, by the divide step of 1 on omega's own taps: no kernel column and no
    # Series quotient; omega is read through p (omega_1 at p = 0) and no further
    def no_division(*args):
        raise AssertionError("the power table divided through the kernel")

    monkeypatch.setattr(reversion, "reciprocal", no_division)
    monkeypatch.setattr(fixpoint, "_integer_columns", no_division)
    monkeypatch.setattr(reversion, "_integer_columns", no_division, raising=False)
    read = max(p, 1)
    cs = coeffs(omega)[1: read + 1]
    delta, taps = fixpoint._scale_rows(cs, p)
    powers = fixpoint._step([1] + [0] * (read - 1), taps, -1, read)
    while not powers[-1]:
        powers.pop()
    table = reversion._power_table(omega, p)
    g = coeffs(cofactor(omega, read - 1))
    expected = [c / g[0] for c in g]
    while not expected[-1]:
        expected.pop()
    assert [F(q, d) for q, d in zip(powers, delta)] == expected
    # the omega side's scale: c_i = omega_(i+1)/omega_1 through c_(read-1) only
    assert delta == division_scale(cs, p)
    g0, scale = table[:2]
    assert g0 == 1 / omega[1]
    inverse = compositional_inverse(coeffs(omega), p)[: p + 1]
    column = [c * scale[n - 1] / g0 ** n for n, c in enumerate(inverse) if n]
    assert [row[1] for row in table[4][1:]] == column


def test_both_row_rules_fill_the_same_table():
    # the omega-side rule and the A-sequence rule, each forced, on sparse polynomial
    # omega (g dense), on dense omega, on long gaps inside omega's tail and on omega = c*x
    # (no tail), against the table _power_table returns: each at its own side's scale,
    # the edge cut after the read taps of omega/x (entry `read` would need one more)
    rng = random.Random(65)
    for p in range(31):
        degree = 1 + p % 8
        sparse = [F(0), random_fraction(rng, nonzero=True)]
        sparse += [random_fraction(rng) * rng.randint(0, 1) for _ in range(degree - 1)]
        sparse += [F(0)] * (p + 1 - len(sparse))
        dense = random_order_one(rng, max(p, 1))
        read = max(p, 1)
        for omega in (Series(sparse), dense, Series([0] + [1] * read),
                      Series([0, 1, 0, 0, 0, 0, 0, -1], read),
                      Series([0, F(1, 2), 0, 0, 3, 0, 0, F(-2, 5)], read),
                      Series([0, sparse[1]], read)):
            cs = coeffs(omega)[1: read + 1]
            omega_delta, omega_taps = fixpoint._scale_rows(cs, p)
            by_omega, omega_edge = reversion._fill_table(omega_taps, -1, p)
            powers = reversion._power_coefficients(omega_taps, -1, read)
            g_delta, g_taps = fixpoint._scale_rows(
                [F(q, d) for q, d in zip(powers, omega_delta)], p)
            by_g, g_edge = reversion._fill_table(g_taps, 1, p)
            assert [[F(e, omega_delta[n - k]) for k, e in enumerate(row)]
                    for n, row in enumerate(by_omega)] == \
                   [[F(e, g_delta[n - k]) for k, e in enumerate(row)]
                    for n, row in enumerate(by_g)]
            g0 = 1 / omega[1]
            table = reversion._power_table(omega, p)
            assert table in ((g0, omega_delta, omega_taps, -1, by_omega, omega_edge[:read]),
                             (g0, g_delta, g_taps, 1, by_g, g_edge[:read]))


def test_the_edge_is_x_over_w_on_both_sides():
    # the step's entry at k = 0, kept as the edge, is the row rule one column to the
    # left: -edge[n] * g0**(n-1) / delta_n = [x^n] x/w, w = x*g(w), on the g side (the
    # A-sequence rule) and the omega side (omega(w) = x), each forced, from g through p
    rng = random.Random(66)
    for p in range(16):
        for g in (random_series(rng, p, nonzero_constant=True),
                  Series([random_fraction(rng, nonzero=True), 0, 0, F(2, 3)], p),
                  Series([F(-3, 2), 1, F(2, 5)], p), Series([F(1, 3)] * (p + 1))):
            gc = coeffs(g)
            omega = [F(0)] + divide([F(1)], gc, p)  # x/g through degree p + 1
            w = compositional_inverse(omega, p + 1)
            expected = divide([F(1)], w[1:], p)
            g0, delta, _, _, _, edge = reversion._table(gc, 1, p)
            edges = [(delta, edge)]
            for cs, sign in ((gc, 1), (omega[1:], -1)):
                delta, taps = fixpoint._scale_rows(cs, p)
                edges.append((delta, reversion._fill_table(taps, sign, p)[1]))
            for delta, edge in edges:
                assert [-e * g0 ** (n - 1) / delta[n] for n, e in enumerate(edge)] == expected


def test_the_power_tables_edge_is_x_over_w_on_both_sides():
    # every edge entry _power_table returns is [x^n] x/w, w the inverse of omega: the
    # edge stops at degree P - 1, the last whose tap omega/x was read (on the first
    # omega at P = 5, g side, an entry for degree 5 would read omega_6, not given)
    rng = random.Random(67)
    sides = set()
    for p in range(1, 16):
        for omega in (Series([0, F(1, 2), 3, F(-1, 3), 2, 5, F(1, 7)], max(p, 6)),
                      random_order_one(rng, p), Series([0, F(-2, 3), 1], p),
                      Series([0] + [F(1, 3)] * (p + 1))):
            w = compositional_inverse(coeffs(omega), p)
            expected = divide([F(1)], w[1:], p - 1)
            g0, delta, _, sign, _, edge = reversion._power_table(omega, p)
            assert [-e * g0 ** (n - 1) / delta[n] for n, e in enumerate(edge)] == expected
            sides.add(sign)
    assert sides == {1, -1}


def test_invert_rejects_wrong_order():
    with pytest.raises(DomainError, match="not invertible: order must be 1"):
        invert_series(Series([1, 1], 5), 4)


def test_invert_needs_omega_through_the_returned_degree():
    # no stage reads omega past the degree it returns: precision P is enough, P - 1 is not
    omega = Series([0, 1, -1], 5)
    message = "^inverting to degree 6 needs omega at precision 6$"
    for check in (verify_lagrange, invert_series):
        with pytest.raises(PrecisionError, match=message):
            check(omega, 6)
    assert invert_series(omega, 5) == Series([0, 1, 1, 2, 5, 14])
    assert verify_lagrange(omega, 5).ok


def test_power_table_reads_omega_only_through_its_degree():
    rng = random.Random(64)
    for p in range(16):
        omega = random_order_one(rng, p + 3)
        read = omega.truncate(max(p, 1))
        assert reversion._power_table(omega, p) == reversion._power_table(read, p)


def test_invert_precision_zero():
    # precision 0 still reads omega_1, which fixes the order: [0, 1] is enough
    for omega in (Series([0, 1], 3), Series([0, 1])):
        assert invert_series(omega, 0) == Series.zero(0)


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
    with pytest.raises(PrecisionError, match=r"Lagrange coefficient \(5, 1\) needs g at precision 4"):
        lagrange_coefficient(Series([1, 1], 1), 5, 1)
    assert lagrange_coefficient(Series([1, 1], 1), 5, 6) == 0  # k > n needs no precision


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
        assert verify_lagrange(omega, 6) == verify_lagrange(omega.truncate(6), 6)
        assert invert_series(omega, 6) == invert_series(omega.truncate(6), 6)
        g = cofactor(omega, 29)
        for n, k in ((1, 1), (5, 2), (6, 1)):
            assert lagrange_coefficient(g, n, k) == lagrange_coefficient(g.truncate(n - k), n, k)


def test_report_json_shape():
    report = verify_lagrange(Series([0, 1, -1], 6), 5)
    obj = report.to_json_dict()
    assert obj == {"max_n": 5, "violations": []}


def test_a_failing_cell_is_reported_unscaled(monkeypatch):
    omega = random_order_one(random.Random(62), 8)
    build = reversion._power_table
    g0, delta, *_ = build(omega, 7)

    def perturbed(omega, precision):
        *head, rows, edge = build(omega, precision)
        rows[5][2] += 1  # delta_3 * [x^5] T**2 / g0**5, off by one
        return *head, rows, edge

    monkeypatch.setattr(reversion, "_power_table", perturbed)
    report = verify_lagrange(omega, 7)
    (v,) = report.violations
    assert (v.n, v.k) == (5, 2)
    assert v.rhs == 2 * list_power(coeffs(cofactor(omega, 5)), 5, 3)[3]
    assert v.lhs == v.rhs + 5 * g0 ** 5 / delta[3]
    assert report.to_json_dict() == {
        "max_n": 7,
        "violations": [{"n": 5, "k": 2, "lhs": str(v.lhs), "rhs": str(v.rhs)}],
    }


@pytest.mark.parametrize("omega, sign", [
    (Series([0] + [F(1, 3)] * 8), 1),  # x/(3-3x): g = 3 - 3x, shorter than omega
    (Series([0, F(-2, 3), 0, 1, F(1, 5)], 8), -1),
], ids=["g_taps", "omega_taps"])
def test_a_failing_power_is_reported_at_its_cell(monkeypatch, omega, sign):
    # [x^3] (1+c)**(sign*5), off by one on either side of the table's rule: the cell
    # n = 5, k = 2 fails
    g0, delta, _, table_sign, _, _ = reversion._power_table(omega, 7)
    assert table_sign == sign
    build = reversion._power_coefficients

    def perturbed(taps, alpha, count):
        powers = build(taps, alpha, count)
        if abs(alpha) == 5:
            powers[3] += 1  # delta_3 * [x^3] g**5 / g0**5
        return powers

    monkeypatch.setattr(reversion, "_power_coefficients", perturbed)
    (v,) = verify_lagrange(omega, 7).violations
    assert (v.n, v.k) == (5, 2)
    assert v.lhs == 2 * list_power(coeffs(cofactor(omega, 5)), 5, 3)[3]
    assert v.rhs == v.lhs + 2 * g0 ** 5 / delta[3]


@pytest.mark.parametrize("omega, max_n, error, message", [
    (Series([1, 1], 5), 3, DomainError, "not invertible: order must be 1"),
    (Series([0, 0, 1], 5), 2, DomainError, "not invertible: order must be 1"),
    (Series([0, 1], 4), 5, PrecisionError, "inverting to degree 5 needs omega at precision 5"),
    (Series([0, 1], 3), -1, ValueError, "precision must be a natural number"),
    (Series([0], 0), 0, DomainError, "not invertible: order must be 1"),
])
def test_verify_lagrange_rejects_what_invert_series_rejects(omega, max_n, error, message):
    for check in (verify_lagrange, invert_series):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check(omega, max_n)
