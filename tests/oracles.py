"""Independent reference computations for the test suite.

Everything here works on plain lists of Fractions with naive textbook
algorithms (back substitution, convolution, forward elimination), on
purpose avoiding the library code paths they are used to check.  The
shared matrices near the end are the exception: they are inputs, built
by the library.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from riordan.fixpoint import reciprocal
from riordan.series import Series
from riordan.triangles import build_triangle


def coeffs(s: Series) -> list[Fraction]:
    return list(s.coefficients)


def convolve(a: list[Fraction], b: list[Fraction], upto: int) -> list[Fraction]:
    """Coefficients 0..upto of the product of two coefficient lists."""
    out = [Fraction(0)] * (upto + 1)
    for i, ai in enumerate(a):
        if i > upto or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > upto:
                break
            out[i + j] += ai * bj
    return out


def list_power(a: list[Fraction], k: int, upto: int) -> list[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * upto
    for _ in range(k):
        out = convolve(out, a, upto)
    return out


def divide(f: list[Fraction], g: list[Fraction], upto: int) -> list[Fraction]:
    """Coefficients 0..upto of f/g by back substitution (g[0] != 0)."""
    g0 = g[0]
    assert g0 != 0
    q: list[Fraction] = []
    for n in range(upto + 1):
        acc = f[n] if n < len(f) else Fraction(0)
        for i in range(n):
            gj = g[n - i] if n - i < len(g) else Fraction(0)
            acc -= q[i] * gj
        q.append(acc / g0)
    return q


def divided_columns(f: list[Fraction], g: list[Fraction], upto: int,
                    count: int) -> list[list[Fraction]]:
    """Coefficients 0..upto of ``x**k * f / g**(k+1)`` for ``k < count``: column 0
    by back substitution, then each column from the one before, shifted and
    divided by ``g`` again."""
    columns = [divide(f, g, upto)]
    while len(columns) < count:
        columns.append(divide([Fraction(0)] + columns[-1][:upto], g, upto))
    return columns


def matrix_vector(f: list[Fraction], g: list[Fraction], h: list[Fraction],
                  upto: int) -> list[Fraction]:
    """Coefficients 0..upto of ``T(f|g)`` times ``h``: column ``k`` is ``x**k * f``
    divided by the power ``g**(k+1)``, and row ``n`` sums ``column_k[n] * h[k]``."""
    columns, power = [], [Fraction(1)]
    for k in range(upto + 1):
        power = convolve(power, g, upto)  # g**(k+1)
        columns.append(divide([Fraction(0)] * k + f, power, upto))
    return [sum((columns[k][n] * h[k] for k in range(n + 1)), Fraction(0))
            for n in range(upto + 1)]


def shifted_entry_oracle(fc: list[Fraction], gc: list[Fraction], m: int, n: int,
                         k: int) -> Fraction:
    """[x^(n-k)] of f*g**(m-k-1), dividing when the exponent is negative."""
    e = m - k - 1
    if e >= 0:
        return convolve(fc, list_power(gc, e, n), n)[n - k]
    return divide(fc, list_power(gc, -e, n), n)[n - k]


def division_scale(g: list[Fraction], upto: int) -> list[int]:
    """``delta_0..delta_upto`` by their definition: ``delta_0 = 1`` and
    ``delta_m`` the lcm of ``den(g_j/g_0)*delta_(m-j)`` over the nonzero
    ``g_j``, ``1 <= j <= m``."""
    taps = [(j, (c / g[0]).denominator) for j, c in enumerate(g) if j and c]
    delta = [1]
    for m in range(1, upto + 1):
        delta.append(math.lcm(*(den * delta[m - j] for j, den in taps if j <= m)))
    return delta


def cofactor(omega: Series, upto: int) -> Series:
    """``x/omega`` through degree ``upto`` for an order-1 ``omega``, by back
    substitution against ``omega/x``."""
    c = coeffs(omega)
    assert c[0] == 0 and upto < omega.precision
    return Series(divide([Fraction(1)], c[1:], upto))


def compositional_inverse(omega: list[Fraction], upto: int) -> list[Fraction]:
    """Coefficients 0..upto of the series y with omega(y) = x.

    Triangular solve, degree by degree: the x^n coefficient of omega(y)
    is omega[1]*y[n] plus terms that involve only y[1..n-1], because
    y**m has order m.
    """
    assert omega[0] == 0 and omega[1] != 0
    y = [Fraction(0), 1 / omega[1]]
    for n in range(2, upto + 1):
        y.append(Fraction(0))  # placeholder; contributes nothing below
        acc = Fraction(0)
        ym = y[:]  # y^1
        for m in range(2, n + 1):
            ym = convolve(ym, y, n)
            wm = omega[m] if m < len(omega) else Fraction(0)
            if wm:
                acc += wm * ym[n]
        y[n] = -acc / omega[1]
    return y[: upto + 1]


def invert_lower_triangular(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a lower-triangular matrix by forward substitution."""
    n = len(rows)
    inv = [[Fraction(0)] * (i + 1) for i in range(n)]
    for j in range(n):
        inv[j][j] = 1 / rows[j][j]
        for i in range(j + 1, n):
            acc = Fraction(0)
            for k in range(j, i):
                acc += rows[i][k] * inv[k][j]
            inv[i][j] = -acc / rows[i][i]
    return inv


def matmul_lower(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Product of two lower-triangular matrices given as ragged rows."""
    n = len(a)
    out = [[Fraction(0)] * (i + 1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = Fraction(0)
            for k in range(j, i + 1):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def format_polynomial(coeffs: list[Fraction]) -> str:
    """``1+2x+3x^2-4x^3``, built term by term with Fraction comparisons, negation
    and ``str``: zero terms omitted, ``"0"`` for none, non-integer coefficients of
    ``x`` parenthesised, ``(1/2)x^3``, and a unit coefficient of ``x`` left out."""
    terms: list[tuple[str, str]] = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        a = -c if c < 0 else c
        if d == 0:
            body = str(a)
        else:
            if a == 1:
                mag = ""
            elif a.denominator == 1:
                mag = str(a)
            else:
                mag = f"({a})"
            body = mag + ("x" if d == 1 else f"x^{d}")
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    rendered = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        rendered += sign + body
    return rendered


# ----------------------------------------------------------------------
# shared matrices: inputs built by the library, not references
# ----------------------------------------------------------------------

AG_MATRIX = [
    [-1],
    [-4, 1],
    [-11, 6, -1],
    [-26, 23, -8, 1],
    [-57, 72, -39, 10, -1],
    [-120, 201, -150, 59, -12, 1],
]


def ag_triangle(depth=6, precision=8):
    """``T(1/(1-x)**2 | 2x - 1)``, whose first six rows are :data:`AG_MATRIX`."""
    f = reciprocal(Series.one(precision), Series([1, -2, 1], precision), precision)
    return build_triangle(f, Series([-1, 2], precision), depth)


def pascal(depth=10):
    p = depth - 1
    return build_triangle(Series.one(p), Series([1, -1], p), depth)


def random_matrix(rng: random.Random, depth: int, extra=0):
    f = random_series(rng, depth - 1 + extra, nonzero_constant=True)
    g = random_series(rng, depth - 1 + extra, nonzero_constant=True)
    return build_triangle(f, g, depth)


# ----------------------------------------------------------------------
# random data panels (always seeded by the caller)
# ----------------------------------------------------------------------

def random_fraction(rng: random.Random, lo=-4, hi=4, maxden=3, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, maxden))
        if value or not nonzero:
            return value


def random_series(rng: random.Random, precision: int, nonzero_constant=False) -> Series:
    values = [random_fraction(rng, nonzero=(nonzero_constant and i == 0))
              for i in range(precision + 1)]
    return Series(values)


def random_order_one(rng: random.Random, precision: int) -> Series:
    """A random series with order exactly 1 (zero constant, nonzero x term)."""
    values = [Fraction(0), random_fraction(rng, nonzero=True)]
    values += [random_fraction(rng) for _ in range(precision - 1)]
    return Series(values)


def past_precision(s: Series, precision: int) -> Series:
    """``s`` cut to ``precision``, then stored three degrees further with
    coefficients of denominator ``7**k``, which no computation to
    ``precision`` may read."""
    tail = [Fraction(k, 7 ** k) for k in range(precision + 1, precision + 4)]
    return Series(coeffs(s.truncate(precision)) + tail)
