"""Compositional inversion by contractive iteration, and the Lagrange
inversion formula as an exactly checkable statement.

For a series ``omega`` with ``omega(0) = 0`` and ``omega'(0) != 0``, write
``g = x/omega`` (so ``g`` has a nonzero constant term).  The compositional
inverse is the unique fixed point of the 1/2-contraction ``F(y) = x*g(y)``
on series of order >= 1, and the iteration becomes an exact finite
algorithm by truncating stage ``k`` to degree ``k``:

    ``T_1 = g0*x``, then ``T_k = (x * g(T_(k-1)))`` truncated to degree k,

after which ``T_k`` agrees with the inverse through degree ``k`` exactly.
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
    "ReversionProblem",
    "invert_series",
    "lagrange_coefficient",
    "verify_lagrange",
]


@dataclass(frozen=True)
class ReversionProblem:
    """An order-1 series ``omega`` together with its cofactor ``g = x/omega``."""

    omega: Series
    g: Series

    @classmethod
    def from_omega(cls, omega: Series) -> ReversionProblem:
        """Derive ``g`` by factoring one ``x`` out of ``omega`` and dividing.

        ``g`` is delivered at precision ``omega.precision - 1``, which is
        exactly what inverting through degree ``omega.precision - 1`` needs.
        """
        if omega.order() != 1:
            raise DomainError("not invertible: order must be 1")
        shifted = omega.shift(-1)  # omega/x, nonzero constant term
        g = reciprocal(Series.one(shifted.precision), shifted, shifted.precision)
        return cls(omega, g)


def invert_series(omega: Series, precision: int) -> Series:
    """The compositional inverse of ``omega`` through ``precision``.

    Requires ``order(omega) == 1`` and ``omega.precision >= precision + 1``
    (one spare degree pays for the division that produces ``g``).  The
    result ``y`` satisfies ``omega(y) == y(omega) == x`` through the
    requested degree.
    """
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if omega.order() != 1:
        raise DomainError("not invertible: order must be 1")
    if omega.precision < precision + 1:
        raise PrecisionError(
            f"inverting to degree {precision} needs omega at precision {precision + 1}"
        )
    if precision == 0:
        return Series.zero(0)
    g = ReversionProblem.from_omega(omega).g
    iterate = Series((0, g.coefficient(0)))  # stage 1: g0*x
    for _ in range(2, precision + 1):
        # stage k: x*g(iterate) carries precision k on its own,
        # one degree gained per application of the contraction.
        iterate = g.compose(iterate).shift(1)
    return iterate


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
    inverse = invert_series(omega, max_n)
    # the grid reads g**n only below degree max_n
    g = ReversionProblem.from_omega(omega.truncate(max_n + 1)).g
    g_powers = [Series.one(g.precision)]
    for _ in range(max_n):
        g_powers.append(g_powers[-1] * g)
    violations: list[LagrangeViolation] = []
    inv_power = Series.one(max_n)
    for k in range(1, max_n + 1):
        inv_power = inv_power * inverse
        for n in range(k, max_n + 1):
            lhs = n * inv_power.coefficient(n)
            rhs = k * g_powers[n].coefficient(n - k)
            if lhs != rhs:
                violations.append(LagrangeViolation(n, k, lhs, rhs))
    return LagrangeReport(max_n, tuple(violations))
