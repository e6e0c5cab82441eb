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
the table of ``[x^n] T**k`` is the Riordan array ``(1, T)`` with A-sequence
``g``, and the A-sequence rule fills it a row at a time in ``O(P**2 (d+1))``
for ``g`` of degree ``d`` (O(P**3) when ``g`` is dense); the tests' reference
path recomposes every stage by Horner, O(P**4).  The rows and their taps, by the
division contraction, run on integers scaled by powers of one ``s`` (:func:`_power_table`).
The same fixed-point equation yields the coefficient identities

    ``n * [x^n] (omega^{-1})**k == k * [x^(n-k)] g**n``

which :func:`verify_lagrange` checks exhaustively on a grid and
:func:`lagrange_coefficient` evaluates directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

# reciprocal stays bound here for perfbench's tracer, which patches it in this module
from .fixpoint import _integral, reciprocal  # noqa: F401
from .series import DomainError, PrecisionError, Series

__all__ = [
    "LagrangeReport",
    "LagrangeViolation",
    "invert_series",
    "lagrange_coefficient",
    "verify_lagrange",
]


def _cofactor_rows(taps: list[int], precision: int) -> tuple[list[int], list[list[int]]]:
    """``(A, rows)``: ``taps`` (``A_0 != 0``) cut after the last nonzero one, and the rows
    ``rows[n][k] = [x^n] U**k`` (``k <= n <= precision``) of ``(1, U)``, ``U = x*A(U)``.

    ``U**(k+1) = x * U**k * A(U)``, so ``A`` is the A-sequence of ``(1, U)`` and
    ``rows[n+1][k+1] = sum_i A_i * rows[n][k+i]``: ``O(P**2 (d+1))`` products for
    ``A`` of degree ``d``, and integer rows for integer taps."""
    taps = taps[: max(i for i, a in enumerate(taps) if a) + 1]
    rows = [[1]]
    for n in range(precision):
        rows.append([0] + [sum(map(mul, taps, rows[n][k:])) for k in range(n + 1)])
    return taps, rows


def _power_table(omega: Series, precision: int) -> tuple[int, list[int], list[list[int]]]:
    """``(s, A, rows)`` with ``rows[n][k] = s**(2n-k) * [x^n] T**k``, ``T = x*g(T)``,
    ``g = x/omega``: :func:`_cofactor_rows` of ``A(y) = s*g(s*y)``.

    ``W = L*omega/x`` is integral through ``precision`` for ``L`` the lcm of the
    denominators of ``omega_1..omega_(precision+1)``, and ``s = W_0 = L*omega_1``.
    ``g = L/W``, so the taps are ``A_i = s**(i+1) g_i = s**i [x^i] L*s/W``: the division
    contraction at the table's own scale, ``A_0 = L``, ``A_i = -sum_j W_j*s**(j-1)*A_(i-j)``."""
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if omega.order() != 1:
        raise DomainError("not invertible: order must be 1")
    if omega.precision < precision + 1:
        raise PrecisionError(
            f"inverting to degree {precision} needs omega at precision {precision + 1}"
        )
    lcm, big_w = _integral(omega.coefficients[1: precision + 2])
    s = big_w[0]
    terms = [(j, c * s ** (j - 1)) for j, c in enumerate(big_w) if j and c]
    taps = [lcm]
    for i in range(1, precision + 1):
        taps.append(-sum(t * taps[i - j] for j, t in terms if j <= i))
    taps, rows = _cofactor_rows(taps, precision)
    return s, taps, rows


def invert_series(omega: Series, precision: int) -> Series:
    """The compositional inverse of ``omega`` through ``precision``.

    Requires ``order(omega) == 1`` and ``omega.precision >= precision + 1``
    (one spare degree pays for the division that produces ``g``).  The
    result ``y`` satisfies ``omega(y) == y(omega) == x`` through the
    requested degree; it is column 1 of the power table's rows, unscaled.
    """
    s, _, rows = _power_table(omega, precision)
    return Series([0] + [Fraction(row[1], s ** (2 * n - 1)) for n, row in enumerate(rows) if n])


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

    With the power table's ``s`` and taps ``A`` (cut at ``g``'s degree),
    ``[x^m] g**n = [y^m] A**n / s**(n+m)``, so a cell compares ``n*rows[n][k]``
    with ``k*[y^(n-k)] A**n``, integers over the same ``s**(2n-k)``.  Violations
    are collected into the report, unscaled, not raised; an empty list means the
    identity holds on the whole grid.
    """
    s, taps, rows = _power_table(omega, max_n)
    a_powers = [[1] + [0] * (max_n - 1)]  # A**n through degree max_n - 1
    for _ in range(max_n):
        last = a_powers[-1]
        a_powers.append([sum(map(mul, taps, last[m::-1])) for m in range(max_n)])
    violations: list[LagrangeViolation] = []
    for k in range(1, max_n + 1):
        for n in range(k, max_n + 1):
            lhs, rhs = n * rows[n][k], k * a_powers[n][n - k]
            if lhs != rhs:
                lhs, rhs = (Fraction(v, s ** (2 * n - k)) for v in (lhs, rhs))
                violations.append(LagrangeViolation(n, k, lhs, rhs))
    return LagrangeReport(max_n, tuple(violations))
