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
Math. 1997).  At the table's scale ``g``'s taps are ``A = L/H``, ``H`` ``omega``'s,
by J.C.P. Miller's power recurrence at exponent -1, the routine that also gives
every ``A**n`` below.  :func:`_power_table` runs whichever rule reads fewer taps,
so the table costs ``O(P**2 d)`` for ``d`` the smaller of ``omega``'s count of
nonzero terms and ``g``'s degree plus one: ``g = x/omega`` is dense for every
polynomial ``omega`` of degree >= 2, and ``omega = x/(1-x)`` has ``g = 1 - x``.
The tests' reference path recomposes every stage by Horner, O(P**4).  The rows
and their taps run on integers scaled by powers of one ``s``.
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
from operator import mul

# reciprocal stays bound here for perfbench's tracer, which patches it in this module
from .fixpoint import reciprocal  # noqa: F401
from .series import DomainError, PrecisionError, Series, _integral

__all__ = [
    "LagrangeReport",
    "LagrangeViolation",
    "invert_series",
    "lagrange_coefficient",
    "verify_lagrange",
]


def _cofactor_rows(taps: list[int], precision: int) -> list[list[int]]:
    """The rows ``rows[n][k] = [x^n] U**k`` (``k <= n <= precision``) of ``(1, U)``,
    ``U = x*A(U)``, from the taps ``A`` (``A_0 != 0``) cut after the last nonzero one.

    ``U**(k+1) = x * U**k * A(U)``, so ``A`` is the A-sequence of ``(1, U)`` and
    ``rows[n+1][k+1] = sum_i A_i * rows[n][k+i]``: ``O(P**2 (d+1))`` products for
    ``A`` of degree ``d``, and integer rows for integer taps."""
    taps = taps[: max(i for i, a in enumerate(taps) if a) + 1]
    rows = [[1]]
    for n in range(precision):
        rows.append([0] + [sum(map(mul, taps, rows[n][k:])) for k in range(n + 1)])
    return rows


def _omega_taps(omega: Series, precision: int) -> tuple[int, int, list[int]]:
    """``(s, L, H)``: ``L`` the lcm of the denominators of ``omega_1..omega_max(precision, 1)``,
    ``s = L*omega_1`` and the integers ``H_j = L*omega_(j+1)*s**(j-1)``, ``H_0 = 1``, so that
    ``H(y) = L*omega(s*y)/(s**2*y)``.  ``omega`` is read through ``precision`` and no further.

    ``A(y) = s*g(s*y) = L/H`` is then the integral A-sequence of the scaled ``(1, T)``."""
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if omega.order() != 1:
        raise DomainError("not invertible: order must be 1")
    if omega.precision < precision:
        raise PrecisionError(
            f"inverting to degree {precision} needs omega at precision {precision}")
    lcm, big_w = _integral(omega.coefficients[1: max(precision, 1) + 1])
    s = big_w[0]
    return s, lcm, [1] + [c * s ** j for j, c in enumerate(big_w[1:])]


def _omega_rows(lcm: int, big_h: list[int], precision: int) -> list[list[int]]:
    """The rows of :func:`_power_table` from ``omega``'s own taps ``H``.

    ``omega(T) = x`` gives ``sum_j omega_j T**(k+j) = x*T**k``, the A-sequence rule read
    one column to the left; at the table's scale that is
    ``R[n][k] = L*R[n-1][k-1] - sum_(i>=1) H_i*R[n][k+i]`` for ``k >= 1``, with no division,
    and ``R[n][0] = 0``.  Row ``n`` is filled right to left from ``R[n][n] = L**n``, each
    entry one dot product of ``H_1..``, cut after its last nonzero tap, with the entries
    already to its right."""
    tail = big_h[1: max(i for i, c in enumerate(big_h) if c) + 1]
    rows = [[1]]
    for n in range(1, precision + 1):
        above, rev = rows[-1], []
        for k in range(n, 0, -1):
            rev.append(lcm * above[k - 1] - sum(map(mul, tail, reversed(rev))))
        rev.append(0)
        rows.append(rev[::-1])
    return rows


def _power_table(omega: Series, precision: int
                 ) -> tuple[int, int, list[int], int, list[list[int]]]:
    """``(s, L, h, sign, rows)`` with ``rows[n][k] = s**(2n-k) * [x^n] T**k``, ``T = x*g(T)``,
    ``g = x/omega``, for ``k <= n <= precision``; ``s``, ``L`` as in :func:`_omega_taps`.

    The rows are filled by whichever rule reads fewer taps: :func:`_omega_rows` from ``H``
    (``h = H``, ``sign = -1``), or :func:`_cofactor_rows` from the A-sequence
    ``A_i = s**(i+1) g_i``, ``i < max(precision, 1)``, cut at ``g``'s degree (``h = A``,
    ``sign = 1``).  The choice counts ``H``'s nonzero terms against ``A``'s cut length,
    while the omega filler reads ``H`` through its last nonzero term.  ``A = L/H`` is
    :func:`_power_coefficients` at exponent -1: with ``H_0 = 1``, Miller's recurrence reads
    ``A_i = -sum_(j>=1) H_j*A_(i-j)``.  Either way ``A = L*(h/h_0)**sign``, and the fill
    costs ``O(P**2 d)`` for ``d`` taps: ``g`` is dense for every polynomial ``omega`` of
    degree ``>= 2``, while ``omega = x/(1-x)``, read as a dense series, has ``g = 1 - x``."""
    s, lcm, big_h = _omega_taps(omega, precision)
    taps = _power_coefficients(big_h, -1, lcm, precision)
    while not taps[-1]:
        taps.pop()
    if sum(map(bool, big_h)) < len(taps):
        return s, lcm, big_h, -1, _omega_rows(lcm, big_h, precision)
    return s, lcm, taps, 1, _cofactor_rows(taps, precision)


def _power_coefficients(h: list[int], alpha: int, first: int, count: int) -> list[int]:
    """``P_m = first * [x^m] (h/h_0)**alpha`` for ``m < max(count, 1)``.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), from ``h*p' = alpha*h'*p``
    for ``p = h**alpha``: ``m*h_0*P_m = sum_(j>=1) ((alpha+1)*j - m) * h_j * P_(m-j)``, one
    product per nonzero ``h_j``.  Callers choose ``first`` so that every ``P_m`` is an
    integer; then each division by ``m*h_0`` is exact."""
    terms = [(j, c) for j, c in enumerate(h) if j and c]
    powers = [first]
    for m in range(1, count):
        powers.append(sum(((alpha + 1) * j - m) * c * powers[m - j]
                          for j, c in terms if j <= m) // (m * h[0]))
    return powers


def invert_series(omega: Series, precision: int) -> Series:
    """The compositional inverse of ``omega`` through ``precision``.

    Requires ``order(omega) == 1`` and ``omega.precision >= precision``:
    ``omega`` is read through ``precision`` and no further.  The
    result ``y`` satisfies ``omega(y) == y(omega) == x`` through the
    requested degree; it is column 1 of the power table's rows, unscaled.
    """
    s, *_, rows = _power_table(omega, precision)
    return Series([0] + [Fraction(row[1], s ** (2 * n - 1)) for n, row in enumerate(rows) if n])


def lagrange_coefficient(g: Series, n: int, k: int) -> Fraction:
    """``[x^n]`` of the k-th power of the inverse of ``x/g``, via Lagrange:
    ``(k/n) * [x^(n-k)] g**n``.

    For ``k > n`` both sides of the identity vanish, so 0 is returned.
    With ``k == 1`` this is the classical coefficient formula for the
    compositional inverse itself.  ``g`` is read through degree ``n - k``, and
    ``[x^(n-k)] g**n = [x^(n-k)] G**n / D**n`` comes from :func:`_power_coefficients` on
    the integers ``G = D*g``, ``D`` the lcm of their denominators: ``O((n-k) d)`` products
    for ``d`` nonzero coefficients.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if g.coefficient(0) == 0:
        raise DomainError("cofactor must have a nonzero constant term")
    if k > n:
        return Fraction(0)
    den, big_g = _integral(g.truncate(n - k).coefficients)
    power = _power_coefficients(big_g, n, big_g[0] ** n, n - k + 1)[-1]  # [x^(n-k)] G**n
    return Fraction(k * power, n * den ** n)


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
    ``1 <= k <= n <= max_n``, exactly, from ``omega`` known through ``max_n``.

    The left side is read off the power table's rows.  The right side comes from a
    second recurrence on the table's taps: ``[x^m] g**n = [y^m] A**n / s**(n+m)`` with
    ``A = L*(h/h_0)**sign``, and :func:`_power_coefficients` gives ``[y^m] A**n`` for
    ``m < n`` at one product per nonzero tap.  So a cell compares ``n*rows[n][k]`` with
    ``k*[y^(n-k)] A**n``, integers over the same ``s**(2n-k)``, and the grid costs
    ``O(max_n**2 d)``.  Violations are collected into the report, unscaled, not raised;
    an empty list means the identity holds on the whole grid.
    """
    s, lcm, taps, sign, rows = _power_table(omega, max_n)
    a_powers = [_power_coefficients(taps, sign * n, lcm ** n, n) for n in range(max_n + 1)]
    violations: list[LagrangeViolation] = []
    for k in range(1, max_n + 1):
        for n in range(k, max_n + 1):
            lhs, rhs = n * rows[n][k], k * a_powers[n][n - k]
            if lhs != rhs:
                lhs, rhs = (Fraction(v, s ** (2 * n - k)) for v in (lhs, rhs))
                violations.append(LagrangeViolation(n, k, lhs, rhs))
    return LagrangeReport(max_n, tuple(violations))
