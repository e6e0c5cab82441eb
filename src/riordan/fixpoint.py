"""Contractive affine maps on truncated series and their iteration.

In the ultrametric of :mod:`riordan.series`, the map ``t -> a*t + b`` is a
1/2-contraction whenever ``order(a) >= 1``, so plain iteration converges to
its unique fixed point from any start.  Iterating a *sequence* of such maps
(the "crossed" iteration, applying map ``m`` at step ``m``) converges to
the fixed point of the pointwise limit map while only ever touching Taylor
data of degree ``m`` at step ``m`` -- which is what turns the limit
statements into finite, exact algorithms.

Series division is the flagship instance: ``f/g`` is the fixed point of
``t -> ((g0 - g)/g0)*t + f/g0``, and the crossed iteration of its Taylor
truncations computes it degree by degree.  :func:`reciprocal`, the one
division kernel, applies it one degree per step, on integers: scaled by
``G0**(n+1)``, degree ``n`` obeys the same map with the division by ``g0``
multiplied out.  The reference path the tests check it against is one
division scheme, :func:`reciprocal_scheme`, run by one loop,
:func:`iterate_crossed`: a triangle column is the division scheme of
``x * previous column``, and plain iteration is the crossed iteration of
a constant scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .series import DomainError, PrecisionError, Series

__all__ = [
    "AffineMap",
    "IterationScheme",
    "IterationTrace",
    "NotContractiveError",
    "column_scheme",
    "iterate_crossed",
    "iterate_fixed",
    "reciprocal",
    "reciprocal_scheme",
]


class NotContractiveError(DomainError):
    """The slope of an affine map has a nonzero constant term."""


@dataclass(frozen=True)
class AffineMap:
    """The map ``t -> slope*t + offset`` on series.

    ``order(slope) >= 1`` is enforced at construction; it guarantees
    ``distance(map(t1), map(t2)) <= distance(t1, t2) / 2``.
    """

    slope: Series
    offset: Series

    def __post_init__(self) -> None:
        if self.slope.order() < 1:
            raise NotContractiveError(
                "not contractive: slope has a nonzero constant term"
            )

    def __call__(self, t: Series) -> Series:
        return self.slope * t + self.offset


@dataclass(frozen=True)
class IterationScheme:
    """A step-indexed family of contractions plus its pointwise limit.

    ``maps(m)`` is the contraction applied at step ``m`` of the crossed
    iteration.  ``limit_map``, when known, is the map whose fixed point the
    crossed iterates converge to.
    """

    maps: Callable[[int], AffineMap]
    limit_map: AffineMap | None = None


@dataclass(frozen=True)
class IterationTrace:
    """The ordered iterates of a run; ``iterates[0]`` is the start point."""

    iterates: tuple[Series, ...]

    def __len__(self) -> int:
        return len(self.iterates)

    def __iter__(self) -> Iterator[Series]:
        return iter(self.iterates)

    def __getitem__(self, m: int) -> Series:
        return self.iterates[m]

    @property
    def last(self) -> Series:
        return self.iterates[-1]

    def remainder_rows(self) -> list[list[Fraction]]:
        """The not-yet-converged tails of the iterates, as matrix rows.

        Iterate ``m`` agrees with the limit through degree ``m - 1``, so its
        coefficients from degree ``m`` on measure the distance still to go.
        Returns those tails (trailing zeros trimmed, all-zero tails
        dropped), one row per iterate, skipping the start point.
        """
        rows: list[list[Fraction]] = []
        for m, iterate in enumerate(self.iterates):
            if m == 0:
                continue
            tail = list(iterate.coefficients[m:])
            while tail and not tail[-1]:
                tail.pop()
            if tail:
                rows.append(tail)
        return rows


def iterate_crossed(scheme: IterationScheme, start: Series, steps: int) -> IterationTrace:
    """Crossed iteration: apply ``scheme.maps(m)`` at step ``m``."""
    iterates = [start]
    for m in range(steps):
        try:
            current = scheme.maps(m)
        except NotContractiveError as exc:
            raise NotContractiveError(f"scheme map for step {m}: {exc}") from exc
        iterates.append(current(iterates[-1]))
    return IterationTrace(tuple(iterates))


def iterate_fixed(map_: AffineMap, start: Series, steps: int) -> IterationTrace:
    """Plain iteration of one contraction: the crossed iteration of the
    constant scheme ``m -> map_``.

    Iterate ``m`` agrees with the fixed point through degree ``m - 1`` at
    least, provided the precisions of ``start`` and the map data cover the
    requested depth.
    """
    return iterate_crossed(IterationScheme(lambda m: map_, map_), start, steps)


def _check_division(f: Series, g: Series, precision: int) -> None:
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if g.coefficient(0) == 0:
        raise DomainError("division domain error: divisor has zero constant term")
    if f.precision < precision or g.precision < precision:
        raise PrecisionError(
            f"division to degree {precision} needs both operands at that precision"
        )


def reciprocal_scheme(f: Series, g: Series, precision: int) -> IterationScheme:
    """The division scheme: crossed iterates converge to ``f/g``.

    Step ``m`` uses the degree-``m`` Taylor polynomials of the slope
    ``(g0 - g)/g0`` and offset ``f/g0``; as polynomials they are exact, so
    they are padded back to the working precision.
    """
    _check_division(f, g, precision)
    inv_g0 = Fraction(1) / g.coefficient(0)
    # (g0 - g)/g0: zero constant term by construction, hence a 1/2-contraction.
    slope_data = 1 - g.truncate(precision) * inv_g0
    offset_data = f.truncate(precision) * inv_g0

    def maps(m: int) -> AffineMap:
        cut = min(m, precision)
        return AffineMap(
            slope_data.truncate(cut).pad(precision),
            offset_data.truncate(cut).pad(precision),
        )

    return IterationScheme(maps, AffineMap(slope_data, offset_data))


def reciprocal(f: Series, g: Series, precision: int) -> Series:
    """Exact quotient ``f/g`` through ``precision`` (``g`` needs ``g0 != 0``).

    Step ``n`` of the crossed iteration of :func:`reciprocal_scheme` only
    fixes coefficient ``n``, so the contraction is applied one degree per
    step, ``q_n = (f_n - sum_{j>=1} g_j * q_(n-j)) / g0``, with the same
    limit, on the integers ``q_n * G0**(n+1)`` (:func:`_division_columns`).

    >>> print(reciprocal(Series.one(3), Series(["-3/2", 1], 3), 3))
    -2/3-(4/9)x-(8/27)x^2-(16/81)x^3
    """
    return Series(_division_columns(f, g, precision, 1)[0])


def _division_columns(f: Series, g: Series, precision: int, count: int) -> list[list[Fraction]]:
    """Columns ``k < count`` of ``x**k * f / g**(k+1)``, degrees ``k..precision``: over
    the integers of :func:`_integer_columns`, entry ``(n, k)`` is the one Fraction
    ``R_k[n]*L**(k+1) / (M*G0**(n+1))``."""
    den_f, den_g, scale, columns = _integer_columns(f, g, precision, count)
    lk = den_g
    for k, r in enumerate(columns):  # in place, so the integers of done columns are freed
        columns[k] = [Fraction(r[n] * lk, den_f * scale[n + 1]) for n in range(k, precision + 1)]
        lk *= den_g
    return columns


def _integral(cs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(D, [D*c for c in cs])`` with ``D`` the lcm of the denominators of ``cs``."""
    den = math.lcm(*(c.denominator for c in cs))
    return den, [c.numerator * (den // c.denominator) for c in cs]


def _integer_columns(f: Series, g: Series, precision: int,
                     count: int) -> tuple[int, int, list[int], list[list[int]]]:
    """``(M, L, [G0**n for n <= precision+1], [R_k for k < count])``, the kernel's
    integer stage, each ``R_k`` indexed by degree ``n <= precision`` (0 below ``k``).

    Column ``k`` divides ``x * column(k-1)`` by ``g``, fraction-free: with
    ``F = M*f`` and ``G = L*g`` integral through ``precision``, the scaled
    ``R_k[n] = G0**(n+1) * [x^n] x**k F / G**(k+1)`` are the integers
    ``R_0[n] = F_n*G0**n - sum_j H_j R_0[n-j]`` and
    ``R_k[n] = R_(k-1)[n-1] - sum_j H_j R_k[n-j]``, ``H_j = G_j*G0**(j-1)``.
    """
    _check_division(f, g, precision)
    den_f, big_f = _integral(f.coefficients[: precision + 1])  # M, F
    den_g, big_g = _integral(g.coefficients[: precision + 1])  # L, G
    big_g0 = big_g[0]
    taps = [(j, gj * big_g0 ** (j - 1)) for j, gj in enumerate(big_g) if j and gj]
    scale = [big_g0 ** n for n in range(precision + 2)]
    # column 0 is fed by F_n * G0**n, column k by x * column(k-1)
    source = [c * s for c, s in zip(big_f, scale)]
    start = min(f.order(), precision + 1)  # leading zeros of every column
    columns = []
    for k in range(count):
        lo = start + k
        r = [0] * (precision + 1)
        for n in range(lo, precision + 1):
            acc = source[n]
            for j, h in taps:
                if j > n - lo:
                    break
                acc -= h * r[n - j]
            r[n] = acc
        columns.append(r)
        source = [0] + r
    return den_f, den_g, scale, columns


def column_scheme(f: Series, g: Series, n: int, prev_column: Series) -> IterationScheme:
    """Scheme whose crossed iteration builds column ``n`` from column ``n-1``.

    ``prev_column`` must be the column-(n-1) series ``x**(n-2) * f / g**(n-1)``
    (the full column, leading zeros included).  The step-``m`` map is

        ``t -> T_m((g0 - g)/g0) * t + x * T_(m-1)(prev_column / g0)``

    and the crossed iterates converge to ``x**(n-1) * f / g**n``.  Columns
    are 1-indexed here; column 1 is plain division (:func:`reciprocal_scheme`).

    ``f`` enters the column data only through ``prev_column``; together with
    ``g`` it pins the working precision of the scheme.  The scheme is the
    division scheme of ``x * prev_column`` by ``g``.
    """
    if n < 2:
        raise ValueError("column schemes start at n=2; column 1 is reciprocal_scheme")
    precision = min(f.precision, g.precision)
    if precision < 1:
        raise PrecisionError("column construction needs precision >= 1")
    if prev_column.precision < precision - 1:
        raise PrecisionError(
            f"previous column needs precision >= {precision - 1}"
        )
    return reciprocal_scheme(prev_column.truncate(precision - 1).shift(1), g, precision)
