"""Compositional inversion by contractive iteration, and the Lagrange
inversion formula as an exactly checkable statement.

For a series ``omega`` with ``omega(0) = 0`` and ``omega'(0) != 0``, write
``g = x/omega`` (so ``g`` has a nonzero constant term).  The compositional
inverse is the unique fixed point of the 1/2-contraction ``F(y) = x*g(y)``
on series of order >= 1, and the iteration becomes an exact finite
algorithm by truncating stage ``k`` to degree ``k``:

    ``T_1 = g0*x``, then ``T_k = (x * g(T_(k-1)))`` truncated to degree k,

after which ``T_k`` agrees with the inverse through degree ``k`` exactly.
So stage ``k`` only adds one coefficient, and it reads ``g`` below degree ``k``:
``omega`` only through ``k``.  Since ``T**(k+1) = x * T**k * g(T)``,
the table of ``[x^n] T**k`` is the Riordan array ``(1, T)`` with A-sequence
``g``, and the A-sequence rule fills it a row at a time.  Read backwards, the
same equation ``omega(T) = x`` gives a second row rule whose taps are
``omega``'s own coefficients (Merlini, Rogers, Sprugnoli and Verri, Canad. J.
Math. 1997).  Both rules, and ``g``'s taps from ``omega``'s, are the division kernel's
one integer recurrence (:func:`~riordan.fixpoint._step`) at the per-degree scale
``delta_m`` of the side that fills the rows, so their integers follow its denominators.
:func:`_side`, given either side, picks whichever rule reads fewer taps, so
the table costs ``O(P**2 d)`` for ``d`` the smaller of ``omega``'s count of nonzero terms
and ``g``'s degree plus one: ``g = x/omega`` is dense for every polynomial
``omega`` of degree >= 2, and ``omega = x/(1-x)`` has ``g = 1 - x``.
:func:`invert_series` reads column 1 off each row as it is filled and keeps no table.
The tests' reference path recomposes every stage by Horner, O(P**4).
The same rows of ``(1, w)``, ``w = x*g(w)``, give the Riordan group inverse
``T(1/f(w) | 1/g(w))`` of ``T(f|g)`` (:func:`_inverse_parameters`): ``x/w = 1/g(w)`` is
the rows' edge, the row rule read one column to the left, and ``(1/f)(w)`` is a dot
product of each row with ``1/f``.  The inverse has ``(1, w)``'s A-sequence ``g``: its rows
are those of ``((1/f)(w), w)`` less the first row and column, which the same row rule
(:func:`_fill_rows`, the table's own loop) fills from ``(1/f)(w)`` on the table's taps,
one row at a time, in ``O(P**2 d)``, with no kernel run on ``1/g(w)`` and no table kept.
The same fixed-point equation yields the coefficient identities

    ``n * [x^n] (omega^{-1})**k == k * [x^(n-k)] g**n``

which :func:`verify_lagrange` checks exhaustively on a grid and
:func:`lagrange_coefficient` evaluates directly.  Both take ``[x^m] g**n`` from
J.C.P. Miller's recurrence for the coefficients of a power, at one product per
nonzero tap, so the grid also costs ``O(P**2 d)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .fixpoint import _integer_columns, _positive, _scale_rows, _step
# reciprocal stays bound here for perfbench's tracer, which patches it in this module
from .fixpoint import reciprocal  # noqa: F401
from .series import DomainError, PrecisionError, Series, _fractions

__all__ = [
    "LagrangeReport",
    "LagrangeViolation",
    "invert_series",
    "lagrange_coefficient",
    "verify_lagrange",
]


def _fill_rows(taps: list[list[tuple[int, int]]], sign: int, diag: list[int],
               column: Iterable[int]) -> Iterator[tuple[list[int], int]]:
    """Rows ``1, 2, ...`` of a Riordan array ``(d, T)``, ``T = x*g(T)``, whose row 0 is ``diag``
    (``diag[m]`` is row ``n``'s entry at ``k = n - m``) and whose column 0 below it is
    ``column``, one row per entry, on one side's taps and scale from
    :func:`~riordan.fixpoint._scale_rows`, each made only when it is taken.

    Along ``m = n - k``, row ``n`` is the :func:`~riordan.fixpoint._step` of row ``n-1``: on the
    g side (``sign = 1``, ``c_i = g_i/g0``) ``T**k = x * T**(k-1) * g(T)`` makes it the multiply
    step, the A-sequence rule; on the omega side (``sign = -1``, ``c_i = omega_(i+1)/omega_1``)
    ``omega(T) = x`` makes it the divide step.  Both hold for every column ``k >= 1`` whatever
    ``d`` is.  The step's entry at ``k = 0``, slot ``n``, is that rule one column to the left:
    it is yielded beside the row, ``(diag, rule)``, and column 0's own entry takes its slot.
    The next row is stepped from that list, extended in place: the taker copies what it
    keeps."""
    for n, entry in enumerate(column, 1):
        diag.append(0)
        diag = _step(diag, taps, sign, n + 1)
        rule = diag[n]
        diag[n] = entry
        yield diag, rule


def _table_rows(taps: list[list[tuple[int, int]]], sign: int,
                precision: int) -> Iterator[tuple[list[int], int]]:
    """``(diag, edge[n])`` for ``n = 1..precision``: row ``n`` of ``(1, T)``, ``T = x*g(T)``, by
    :func:`_fill_rows`, ``diag[m] = E[n][n-m] = delta_m * [x^n] T**(n-m) / g0**n``, and
    ``edge[n] = -delta_n [x^n] (x/T) / g0**(n-1)``: the rule at ``k = 0`` is ``x/T = 1/g(T)``,
    and column 0 is 0 past row 0."""
    return _fill_rows(taps, sign, [1], repeat(0, precision))


def _fill_table(taps: list[list[tuple[int, int]]], sign: int,
                precision: int) -> tuple[list[list[int]], list[int]]:
    """``(rows, edge)``: the rows ``E[n][k] = delta_(n-k) * [x^n] T**k / g0**n`` (``k <= n <=
    precision``) of ``(1, T)``, ``T = x*g(T)``, and ``edge[n] = -delta_n [x^n] (x/T) / g0**(n-1)``,
    kept from :func:`_table_rows`."""
    rows, edge = [[1]], [-1]  # edge[0] gives [x^0] x/T = 1/g0
    for diag, entry in _table_rows(taps, sign, precision):
        edge.append(entry)
        rows.append(diag[::-1])
    return rows, edge


def _side(cs: tuple[Fraction, ...], sign: int, precision: int) -> tuple[
        Fraction, list[int], list[list[tuple[int, int]]], int]:
    """``(g0, delta, taps, sign)`` of the side whose rule fills the rows of ``(1, T)`` through
    ``precision``, from one side's coefficients ``cs``, ``g``'s (``sign = 1``) or ``omega/x``'s
    (``-1``), ``g0 = cs_0**sign``.  As ``omega/x = 1/g``, each side's ``c`` gives the other's,
    the divide step of 1.  The rows take the other side when it, cut after its last nonzero
    term, is no longer than ``cs``' count of nonzero terms: ``O(P**2 d)``."""
    g0 = cs[0] ** sign
    delta, taps = _scale_rows(cs, precision)
    other = _step([1] + [0] * (len(cs) - 1), taps, -1, len(cs))
    while not other[-1]:
        other.pop()
    if len(other) <= sum(map(bool, cs)):
        delta, taps = _scale_rows(_fractions(other, delta[: len(other)]), precision)
        sign = -sign
    return g0, delta, taps, sign


def _table(cs: tuple[Fraction, ...], sign: int, precision: int) -> tuple[
        Fraction, list[int], list[list[tuple[int, int]]], int, list[list[int]], list[int]]:
    """``(g0, delta, taps, sign, *_fill_table(...))`` through ``precision`` on the
    :func:`_side` of ``cs``.  The edge stops at degree ``len(cs) - 1``, the last one whose
    taps ``cs`` holds."""
    g0, delta, taps, sign = _side(cs, sign, precision)
    rows, edge = _fill_table(taps, sign, precision)
    return g0, delta, taps, sign, rows, edge[: len(cs)]


def _inverse_parameters(f: Series, g: Series, p: int) -> tuple[
        Series, Series, Callable[[Callable[[Iterable[int], Sequence[int]], list]], Iterator[list]]]:
    """``(1/f(w), 1/g(w), rows)`` through degree ``p``, ``w`` the compositional inverse of ``x/g``
    (the parameters of the Riordan group inverse of ``T(f|g)``), off the rows
    ``E[n][k] = delta_(n-k) [x^n] w**k / g0**n`` of ``(1, w)`` and their edge that
    :func:`_table` fills from ``g`` on either side: ``[x^n] 1/g(w) = [x^n] x/w =
    -edge[n] * g0**(n-1) / delta_n``.  With ``R = M/f`` integral, ``[x^n] (1/f)(w) =
    g0**n * Y_n / (M*delta_n)``, ``Y_n = sum_j R_j E[n][j] (delta_n/delta_(n-j))``, the factor a
    product of ``delta_m/delta_(m-1)``: the one division is ``1/f``, and nothing is composed.
    ``R`` is the division kernel's integer column ``S_j = d_j f0 [x^j] 1/f`` at ``f``'s own
    scale ``d_j``, lifted to ``d_p`` (each ``d_j`` divides the next): with the kernel's split
    ``f0 = a/b``, ``a > 0``, ``R_j = S_j * b * d_p/d_j`` and ``M = a*d_p``.

    ``rows(convert)`` yields rows ``0..p`` of the inverse block, each converted from its
    integers by ``convert`` as it is filled, so a row that cannot convert stops the fill; the
    table is not kept.  Entry ``(n, k)``, ``[x^n] x**k (1/f)(w) / (1/g(w))**(k+1) = [x^(n+1)]
    w**(k+1) (1/f)(w)``, is entry ``(n+1, k+1)`` of the array ``((1/f)(w), w)``, whose column 0
    is ``(1/f)(w)`` and whose A-sequence is ``g``: :func:`_fill_rows` fills it on the table's
    taps from the column ``Y``, and each of its rows past the first, less its column 0, is a
    row of the inverse, ``X[n][k] * g0**(n+1) / (M*delta_(n-k))``."""
    g0, delta, taps, sign, table, edge = _table(g.coefficients[: p + 1], 1, p)
    ratios = [1] + [d // c for c, d in zip(delta, delta[1:])]
    _, (fa, fb), f_delta, (column,) = _integer_columns(Series.one(p), f, p, 1)
    big_r = [s * fb * (f_delta[p] // d) for s, d in zip(column, f_delta)]
    den_f = fa * f_delta[p]
    a, b = g0.numerator, g0.denominator
    inv_den, inv_num = _positive(g0)  # 1/g0 = inv_num/inv_den, inv_den > 0
    big_y, f_nums, f_dens, g_nums, g_dens = [], [], [], [], []
    an, bn = 1, 1  # g0**n = an/bn, bn > 0
    for n, row in enumerate(table):
        acc = 0
        for j in range(n, -1, -1):  # Horner: R_j E[n][j] gains ratio_n*...*ratio_(n-j+1)
            acc = acc * ratios[n - j] + big_r[j] * row[j]
        big_y.append(acc)
        f_nums.append(acc * an)
        f_dens.append(den_f * delta[n] * bn)
        g_nums.append(-edge[n] * an * inv_num)
        g_dens.append(delta[n] * bn * inv_den)
        an, bn = an * a, bn * b

    def rows(convert: Callable[[Iterable[int], Sequence[int]], list]) -> Iterator[list]:
        dens = delta if den_f == 1 else [den_f * d for d in delta]
        # row p + 1's column 0 is never read: it takes 0, and its slot no taps
        fill = _fill_rows(taps + [[]], sign, big_y[:1], chain(big_y[1:], [0]))
        an, bn = 1, 1
        for n, (diag, _) in enumerate(fill):
            an, bn = an * a, bn * b  # g0**(n+1)
            nums = diag[n::-1] if an == 1 else map(mul, diag[n::-1], repeat(an))
            yield convert(nums, dens[n::-1] if bn == 1 else [d * bn for d in dens[n::-1]])

    return Series._of(_fractions(f_nums, f_dens)), Series._of(_fractions(g_nums, g_dens)), rows


def _omega_over_x(omega: Series, precision: int) -> tuple[Fraction, ...]:
    """The coefficients of ``omega/x`` a table of ``(1, T)`` through ``precision`` reads,
    for ``g = x/omega``, ``g0 = 1/omega_1``: through ``max(precision, 1)``."""
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if omega.order() != 1:
        raise DomainError("not invertible: order must be 1")
    if omega.precision < precision:
        raise PrecisionError(
            f"inverting to degree {precision} needs omega at precision {precision}")
    return omega.coefficients[1: max(precision, 1) + 1]


def _power_table(omega: Series, precision: int) -> tuple[
        Fraction, list[int], list[list[tuple[int, int]]], int, list[list[int]], list[int]]:
    """:func:`_table` of :func:`_omega_over_x`: the rows (and edge) of ``(1, T)`` for
    ``g = x/omega`` on the side that fills them."""
    return _table(_omega_over_x(omega, precision), -1, precision)


def _power_coefficients(taps: list[list[tuple[int, int]]], alpha: int, count: int) -> list[int]:
    """``Q_m = delta_m * [x^m] (1+c)**alpha`` for ``m < max(count, 1)``, on the per-degree
    taps ``t_(m,i)`` of ``c`` from :func:`~riordan.fixpoint._scale_rows`.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), from ``h*p' = alpha*h'*p``
    for ``p = h**alpha``, ``h = 1 + c``, times ``delta_m``:
    ``m*Q_m = sum_i ((alpha+1)*i - m) * t_(m,i) * Q_(m-i)``, one product per tap.  Every
    ``Q_m`` is an integer (see ``_scale_rows``), so each division by ``m`` is exact."""
    powers = [1]
    for m in range(1, count):
        acc = 0
        for i, t in taps[m]:
            acc += ((alpha + 1) * i - m) * t * powers[m - i]
        powers.append(acc // m)
    return powers


def invert_series(omega: Series, precision: int) -> Series:
    """The compositional inverse of ``omega`` through ``precision``.

    Requires ``order(omega) == 1`` and ``omega.precision >= precision``:
    ``omega`` is read through degree ``max(precision, 1)`` and no further, so
    at ``precision`` 0 it still needs ``omega_1``.  The
    result ``y`` satisfies ``omega(y) == y(omega) == x`` through the
    requested degree; it is column 1 of the power table's rows, unscaled, read from each
    row as :func:`_table_rows` yields it, so no table is kept.
    """
    g0, delta, taps, sign = _side(_omega_over_x(omega, precision), -1, precision)
    a, b = g0.numerator, g0.denominator
    rows = _table_rows(taps, sign, precision)
    nums = [0] + [diag[n - 1] * a ** n for n, (diag, _) in enumerate(rows, 1)]
    dens = [1] + [d * b ** n for n, d in enumerate(delta[:-1], 1)]
    return Series._of(_fractions(nums, dens))


def lagrange_coefficient(g: Series, n: int, k: int) -> Fraction:
    """``[x^n]`` of the k-th power of the inverse of ``x/g``, via Lagrange:
    ``(k/n) * [x^(n-k)] g**n``.

    For ``k > n`` both sides of the identity vanish, so 0 is returned.
    With ``k == 1`` this is the classical coefficient formula for the
    compositional inverse itself.  ``g`` is read through degree ``n - k``, and
    ``[x^m] g**n = g0**n * Q_m / delta_m`` comes from :func:`_power_coefficients` on
    ``g``'s own taps: ``O((n-k) d)`` products for ``d`` nonzero coefficients.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if g.coefficient(0) == 0:
        raise DomainError("cofactor must have a nonzero constant term")
    if k > n:
        return Fraction(0)
    m = n - k
    if g.precision < m:
        raise PrecisionError(f"the Lagrange coefficient ({n}, {k}) needs g at precision {m}")
    delta, taps = _scale_rows(g.truncate(m).coefficients, m)
    power = _power_coefficients(taps, n, m + 1)[-1]  # delta_m * [x^m] (g/g0)**n
    return Fraction(k * power, n * delta[m]) * g.coefficient(0) ** n


@dataclass(frozen=True)
class LagrangeViolation:
    n: int
    k: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class LagrangeReport:
    """Outcome of an exhaustive Lagrange-identity sweep."""

    max_n: int
    violations: tuple[LagrangeViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "violations": [
                {"n": v.n, "k": v.k, "lhs": str(v.lhs), "rhs": str(v.rhs)}
                for v in self.violations
            ],
        }


def verify_lagrange(omega: Series, max_n: int) -> LagrangeReport:
    """Check ``n*[x^n](omega^{-1})**k == k*[x^(n-k)]g**n`` for all
    ``1 <= k <= n <= max_n``, exactly, from ``omega`` known through degree
    ``max(max_n, 1)`` (``omega_1`` fixes the order even at ``max_n`` 0).

    The left side is read off the power table's rows.  The right side comes from a
    second recurrence on the table's taps: ``g**n = g0**n * (1+c)**(sign*n)`` for the
    table's side ``c``, and :func:`_power_coefficients` gives
    ``Q_m = delta_m [x^m] (1+c)**(sign*n)`` for ``m < n`` at one product per tap.  So a
    cell compares ``n*E[n][k]`` with ``k*Q_(n-k)``, integers at the same scale
    ``g0**n/delta_(n-k)``, and the grid costs ``O(max_n**2 d)``.  Violations are
    collected into the report, unscaled, not raised; an empty list means the identity
    holds on the whole grid.
    """
    g0, delta, taps, sign, rows, _ = _power_table(omega, max_n)
    powers = [_power_coefficients(taps, sign * n, n) for n in range(max_n + 1)]
    violations: list[LagrangeViolation] = []
    for k in range(1, max_n + 1):
        for n in range(k, max_n + 1):
            lhs, rhs = n * rows[n][k], k * powers[n][n - k]
            if lhs != rhs:
                lhs, rhs = (v * g0 ** n / delta[n - k] for v in (lhs, rhs))
                violations.append(LagrangeViolation(n, k, lhs, rhs))
    return LagrangeReport(max_n, tuple(violations))
