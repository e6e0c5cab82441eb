"""Acceptance suite: one test per shipping criterion.

All arithmetic is exact, so every comparison is equality with zero
tolerance.  Each test prints its own PASS line (visible with ``pytest -s``
or ``-rA``); a failing assertion is the FAIL line.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest

from riordan.cli import main as cli_main
from riordan.fixpoint import (
    AffineMap,
    column_scheme,
    iterate_crossed,
    iterate_fixed,
    reciprocal,
)
from riordan.reversion import invert_series, lagrange_coefficient, verify_lagrange
from riordan.series import Series, distance
from riordan.triangles import build_triangle, from_json_dict, identity

from oracles import (
    AG_MATRIX,
    ag_triangle,
    coeffs,
    compositional_inverse,
    divide,
    list_power,
    matmul_lower,
    pascal,
    random_matrix,
    random_order_one,
    random_series,
    shifted_entry_oracle,
)


def report(n, text):
    print(f"PASS criterion {n:2d}: {text}")


def test_c01_golden_remainder_triangle():
    t = ag_triangle(6)
    assert [[int(e) for e in row] for row in t.entries] == AG_MATRIX
    assert [int(e) for e in t.row(5)] == [-120, 201, -150, 59, -12, 1]
    report(1, "depth-6 triangle from (1/(1-x)^2, 2x-1) matches the golden block")


def test_c02_golden_iteration_trace():
    amap = AffineMap(Series([0, 2, -1], 10), Series.one(10))
    trace = iterate_fixed(amap, Series.zero(10), 6)
    assert trace.last == Series([1, 2, 3, 4, 5, 6, -57, 72, -39, 10, -1])
    report(2, "sixth iterate of t -> 1+(2x-x^2)t matches the golden polynomial")


def test_c03_pascal_columns():
    p = 8
    one, g = Series.one(p), Series([1, -1], p)
    for column, steps in ((2, 6), (3, 6)):
        prev = reciprocal(one, g ** (column - 1), p).shift(column - 2)
        trace = iterate_crossed(column_scheme(one, g, column, prev),
                                Series.zero(p), steps)
        for m, iterate in enumerate(trace):
            partial = Series([math.comb(k, column - 1) for k in range(m)] or [0], p)
            assert iterate == partial
    t = build_triangle(Series.one(19), Series([1, -1], 19), 20)
    for n in range(20):
        for k in range(n + 1):
            binom = math.factorial(n) // (math.factorial(k) * math.factorial(n - k))
            assert t.entry(n, k) == binom
    report(3, "crossed iterations give binomial partial sums; depth-20 "
              "triangle matches the factorial formula")


def test_c04_columns_vs_division_oracle():
    rng = random.Random(104)
    depth = 12
    for _ in range(50):
        t = random_matrix(rng, depth)
        fc, gc = coeffs(t.f), coeffs(t.g)
        for k in range(depth):
            expected = divide([F(0)] * k + fc, list_power(gc, k + 1, depth - 1),
                              depth - 1)
            assert coeffs(t.column_series(k)) == expected
    report(4, "50 random triangles at depth 12: every column equals "
              "independent series division")


def test_c05_group_axioms():
    rng = random.Random(105)
    cases = [pascal(10), ag_triangle(10, precision=9)]
    cases += [random_matrix(rng, 10) for _ in range(20)]
    for t in cases:
        assert t @ t.inverse() == identity(10)
    for _ in range(6):
        a = random_matrix(rng, 8)
        b = random_matrix(rng, 8)
        numeric = matmul_lower([list(r) for r in a.entries],
                               [list(r) for r in b.entries])
        assert [list(r) for r in (a @ b).entries] == numeric
    report(5, "T * T^-1 = I for Pascal, the remainder triangle and 20 random "
              "arrays; parameter product equals numeric matrix product")


def test_c06_pascal_powers():
    base = pascal(10)
    acc = base
    for n in range(1, 11):
        if n > 1:
            acc = acc @ base
        assert acc == build_triangle(Series.one(9), Series([1, -n], 9), 10)
    report(6, "repeated products of the binomial triangle land on (1, 1-nx) "
              "for n = 1..10")


def test_c07_a_z_sequences():
    pair = pascal(10).a_z_sequences()
    assert pair.a_seq == Series([1, 1], 9)
    assert pair.z_seq == Series([1], 8)
    rng = random.Random(107)
    for _ in range(20):
        t = random_matrix(rng, 10)
        seqs = t.a_z_sequences()
        a, z = seqs.a_seq, seqs.z_seq
        for n in range(t.depth - 1):
            assert t.entry(n + 1, 0) == sum(
                (z[j] * t.entry(n, j) for j in range(n + 1)), F(0))
            for k in range(n + 1):
                assert t.entry(n + 1, k + 1) == sum(
                    (a[j] * t.entry(n, k + j) for j in range(n - k + 1)), F(0))
        assert t.inverse_via_sequences() == t.inverse()
    report(7, "A/Z sequences satisfy their defining recurrences on 20 random "
              "depth-10 arrays and rebuild the inverse")


def test_c08_shift_entry_formula():
    rng = random.Random(108)
    for _ in range(8):
        t = random_matrix(rng, 6, extra=4)
        fc, gc = coeffs(t.f), coeffs(t.g)
        for m in (-2, -1, 0, 1, 2):
            shifted = t.shift(m)
            for n in range(shifted.depth):
                for k in range(n + 1):
                    assert shifted.entry(n, k) == shifted_entry_oracle(fc, gc, m, n, k)
    shifted = ag_triangle(6, precision=8).shift(1)
    assert [[int(e) for e in row] for row in shifted.entries] == [
        [1],
        [2, -1],
        [3, -4, 1],
        [4, -11, 6, -1],
        [5, -26, 23, -8, 1],
        [6, -57, 72, -39, 10, -1],
        [7, -120, 201, -150, 59, -12, 1],
    ]
    report(8, "shift entries match [x^(n-k)] f*g^(m-k-1) for m in -2..2; "
              "prepended remainder triangle has first column 1..7")


def test_c09_reversion_correctness():
    rng = random.Random(109)
    for _ in range(50):
        omega = random_order_one(rng, 16)
        inverse = invert_series(omega, 15)
        assert omega.truncate(15).compose(inverse) == Series.x(15)
        assert inverse.compose(omega.truncate(15)) == Series.x(15)
        assert coeffs(inverse) == compositional_inverse(coeffs(omega), 15)
    catalan = invert_series(Series([0, 1, -1], 7), 6)
    assert catalan == Series([0, 1, 1, 2, 5, 14, 42])
    report(9, "50 random reversions at degree 15 round-trip and match the "
              "back-substitution oracle; x - x^2 reverts to Catalan numbers")


def test_c10_lagrange_sweep():
    rng = random.Random(110)
    for _ in range(25):
        omega = random_order_one(rng, 16)
        assert verify_lagrange(omega, 15).ok
    for _ in range(8):
        g = random_series(rng, 5, nonzero_constant=True)
        g0, g1, g2, g3, g4 = (g[i] for i in range(5))
        assert lagrange_coefficient(g, 1, 1) == g0
        assert lagrange_coefficient(g, 2, 1) == g0 * g1
        assert lagrange_coefficient(g, 3, 1) == g0 * g1 ** 2 + g0 ** 2 * g2
        assert lagrange_coefficient(g, 4, 1) == (
            g0 * g1 ** 3 + 3 * g0 ** 2 * g1 * g2 + g0 ** 3 * g3)
        assert lagrange_coefficient(g, 5, 1) == (
            g0 * g1 ** 4 + 6 * g0 ** 2 * g1 ** 2 * g2 + 2 * g0 ** 3 * g2 ** 2
            + 4 * g0 ** 3 * g1 * g3 + g0 ** 4 * g4)
    report(10, "zero Lagrange violations for 25 random series on the "
               "1<=k<=n<=15 grid; k=1 brackets match through n=5")


def binomial_or_zero(a, b):
    return math.comb(a, b) if 0 <= b <= a else 0


def test_c11_remainder_triangle_observations():
    rows = [[F(v) for v in row] for row in AG_MATRIX]

    def entry(i, j):  # 1-based block coordinates, zero off the triangle
        if j == 0:
            return F(i + 1)  # already-converged coefficient left of the block
        if j > i:
            return F(0)
        return rows[i - 1][j - 1]

    # (1) twice-above minus above-left
    for i in range(2, 7):
        for j in range(1, i + 1):
            assert entry(i, j) == 2 * entry(i - 1, j) - entry(i - 1, j - 1)
    # (3) row sums are negated triangular numbers
    assert [sum(row) for row in rows] == [-1, -3, -6, -10, -15, -21]
    # (4) for every element: entries above in its column plus entries to its
    # right in its row sum to zero (1-based block indices, zeros off-triangle)
    for i in range(1, 7):
        for j in range(1, i + 1):
            above = sum((entry(k, j) for k in range(1, i)), F(0))
            right = sum((entry(i, k) for k in range(j + 1, 7)), F(0))
            assert above + right == 0
    # (5) closed form, with (n, j) = (block row + 1, block column + 1)
    for i in range(1, 7):
        for j in range(1, i + 1):
            n, jj = i + 1, j + 1
            value = n + jj - 1 + sum(
                (-1) ** k * binomial_or_zero(n + jj - 1 - k, n + jj - 2 * k)
                * 2 ** (n + jj - 2 * k)
                for k in range(1, jj))
            assert rows[i - 1][j - 1] == value
    # the block itself is reproduced both by the triangle construction and
    # by the remainder extraction from the iteration trace
    assert [[int(e) for e in row] for row in ag_triangle(6).entries] == AG_MATRIX
    trace = iterate_fixed(AffineMap(Series([0, 2, -1], 12), Series.one(12)),
                          Series.zero(12), 7)
    assert trace.remainder_rows() == rows
    report(11, "remainder-triangle observations (1), (3), (4), (5) hold on "
               "the depth-6 block")


def test_c12_ultrametric_properties():
    rng = random.Random(112)
    for _ in range(60):
        a, b, c = (random_series(rng, 10) for _ in range(3))
        assert distance(a, c) <= max(distance(a, b), distance(b, c))
    for _ in range(40):
        a = random_series(rng, 10)
        b = random_series(rng, 10)
        if rng.random() < 0.5:  # force shared prefixes into the panel
            cut = rng.randint(0, 9)
            b = Series(list(a.coefficients[: cut + 1])
                       + list(b.coefficients[cut + 1 :]))
        for n in range(10):
            assert (distance(a, b) <= F(1, 2 ** (n + 1))) == (
                a.truncate(n) == b.truncate(n))
    report(12, "strong triangle inequality and truncation characterization "
               "hold on random panels")


def test_c13_cli_contract(capsys):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # JSON output of every subcommand round-trips
    code, out, _ = run("triangle", "--f", "curious_f", "--g", "curious_g",
                       "--depth", "6", "--format", "json")
    assert code == 0 and from_json_dict(json.loads(out)) == ag_triangle(6, 5)

    code, out, _ = run("recip", "--f", "one", "--g", "[1,-1]",
                       "--precision", "5", "--format", "json")
    assert code == 0 and Series(json.loads(out)) == Series([1] * 6)

    code, out, _ = run("invert", "--omega", "[0,1,-1]", "--precision", "5",
                       "--format", "json")
    assert code == 0 and Series(json.loads(out)) == Series([0, 1, 1, 2, 5, 14])

    code, out, _ = run("trace", "--scheme", "geometric", "--steps", "4",
                       "--format", "json")
    assert code == 0
    assert [Series(e) for e in json.loads(out)][-1] == Series([1, 1, 1, 1], 4)

    code, out, _ = run("azseq", "--f", "one", "--g", "[1,-1]",
                       "--precision", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert Series(obj["A"]) == Series([1, 1], 6)
    assert Series(obj["Z"]) == Series([1], 5)

    code, out, _ = run("inverse", "--f", "one", "--g", "[1,-1]",
                       "--depth", "5", "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == pascal(5).inverse()

    code, out, _ = run("product", "--f1", "one", "--g1", "pascal_g",
                       "--f2", "one", "--g2", "pascal_g",
                       "--depth", "5", "--format", "json")
    assert code == 0
    assert from_json_dict(json.loads(out)) == build_triangle(
        Series.one(4), Series([1, -2], 4), 5)

    # documented error exit codes: 2 for parse problems, 3 for domain errors
    code, _, err = run("triangle", "--f", "one", "--g", "[bad]")
    assert code == 2 and "--g" in err
    code, _, err = run("recip", "--f", "one", "--g", "[0,1]")
    assert code == 3 and "division domain" in err
    code, _, err = run("invert", "--omega", "[1,1]")
    assert code == 3 and "not invertible" in err
    with pytest.raises(SystemExit) as exc:
        cli_main(["nonsense"])
    assert exc.value.code == 2
    report(13, "every subcommand's JSON round-trips; parse errors exit 2, "
               "domain errors exit 3")
