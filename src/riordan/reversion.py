"""Compositional inversion by contractive iteration, and the Lagrange
inversion formula as an exactly checkable statement.

For a series ``omega`` with ``omega(0) = 0`` and ``omega'(0) != 0``, write
``g = x/omega`` (so ``g`` has a nonzero constant term).  The compositional
inverse is the unique fixed point of the 1/2-contraction ``F(y) = x*g(y)``
on series of order >= 1, and the iteration becomes an exact finite
algorithm by truncating stage ``k`` to degree ``k``:

    ``T_1 = g0*x``, then ``T_k = (x * g(T_(k-1)))`` truncated to degree k,

after which ``T_k`` agrees with the inverse through degree ``k`` exactly.
So stage ``k`` only adds one coefficient.  Since ``T**(k+1) = x * T**k * g(T)``,
the table of ``[x^m] T**j`` is the Riordan array ``(1, T)`` with A-sequence
``g``, and the A-sequence rule fills it a degree at a time in O(P**3); the
tests' reference path recomposes every stage by Horner, O(P**4).
The same fixed-point equation yields the coefficient identities

    ``n * [x^n] (omega^{-1})**k == k * [x^(n-k)] g**n``

which :func:`verify_lagrange` checks exhaustively on a grid and
:func:`lagrange_coefficient` evaluates directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fixpoint import reciprocal
from .series import DomainError, PrecisionError, Series

__all__ = [
    "LagrangeReport",
    "LagrangeViolation",
    "invert_series",
    "lagrange_coefficient",
    "verify_lagrange",
]


def _power_table(omega: Series, precision: int) -> tuple[Series, list[list[Fraction]]]:
    """``g = x/omega`` and ``pw[j][m] = [x^m] T**j`` (``m <= precision``, ``j <=
    max(precision, 1)``) for the inverse ``T = x*g(T)`` of ``omega``.

    ``T**(k+1) = x * T**k * g(T)``, so the table is the Riordan array
    ``(1, T)`` and ``g`` is its A-sequence: each column is filled from the
    one before by ``pw[k+1][n+1] = sum_i g_i * pw[k+i][n]``."""
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if omega.order() != 1:
        raise DomainError("not invertible: order must be 1")
    if omega.precision < precision + 1:
        raise PrecisionError(
            f"inverting to degree {precision} needs omega at precision {precision + 1}"
        )
    g = reciprocal(Series.one(precision), omega.truncate(precision + 1).shift(-1), precision)
    a = g.coefficients
    pw = [[Fraction(0)] * (precision + 1) for _ in range(max(precision, 1) + 1)]
    pw[0][0] = Fraction(1)
    for n in range(precision):
        for k in range(n + 1):  # T**(k+i) has order k+i, so only k+i <= n count
            pw[k + 1][n + 1] = sum(a[i] * pw[k + i][n] for i in range(n - k + 1) if a[i])
    return g, pw


def invert_series(omega: Series, precision: int) -> Series:
    """The compositional inverse of ``omega`` through ``precision``.

    Requires ``order(omega) == 1`` and ``omega.precision >= precision + 1``
    (one spare degree pays for the division that produces ``g``).  The
    result ``y`` satisfies ``omega(y) == y(omega) == x`` through the
    requested degree; it is row 1 of the power table.
    """
    _, powers = _power_table(omega, precision)
    return Series(powers[1])


def lagrange_coefficient(g: Series, n: int, k: int) -> Fraction:
    """``[x^n]`` of the k-th power of the inverse of ``x/g``, via Lagrange:
    ``(k/n) * [x^(n-k)] g**n``.

    For ``k > n`` both sides of the identity vanish, so 0 is returned.
    With ``k == 1`` this is the classical coefficient formula for the
    compositional inverse itself.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if g.coefficient(0) == 0:
        raise DomainError("cofactor must have a nonzero constant term")
    if k > n:
        return Fraction(0)
    return Fraction(k, n) * (g.truncate(n - k) ** n).coefficient(n - k)


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
    ``1 <= k <= n <= max_n``, exactly.

    Violations are collected into the report, not raised; an empty list
    means the identity holds on the whole grid.
    """
    g, inverse_powers = _power_table(omega, max_n)
    g_powers = [Series.one(g.precision)]
    for _ in range(max_n):
        g_powers.append(g_powers[-1] * g)
    violations: list[LagrangeViolation] = []
    for k in range(1, max_n + 1):
        for n in range(k, max_n + 1):
            lhs = n * inverse_powers[k][n]
            rhs = k * g_powers[n].coefficient(n - k)
            if lhs != rhs:
                violations.append(LagrangeViolation(n, k, lhs, rhs))
    return LagrangeReport(max_n, tuple(violations))
