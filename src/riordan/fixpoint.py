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
division kernel, applies it one degree per step; triangle columns are
repeated division, and the crossed iteration is the tests' reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

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


def iterate_fixed(map_: AffineMap, start: Series, steps: int) -> IterationTrace:
    """Plain iteration of one contraction.

    Iterate ``m`` agrees with the fixed point through degree ``m - 1`` at
    least, provided the precisions of ``start`` and the map data cover the
    requested depth.
    """
    iterates = [start]
    for _ in range(steps):
        iterates.append(map_(iterates[-1]))
    return IterationTrace(tuple(iterates))


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


def _contraction_slope(g: Series, precision: int) -> Series:
    # (g0 - g)/g0: zero constant term by construction, hence a 1/2-contraction.
    return 1 - g.truncate(precision) * (Fraction(1) / g.coefficient(0))


def reciprocal_scheme(f: Series, g: Series, precision: int) -> IterationScheme:
    """The division scheme: crossed iterates converge to ``f/g``.

    Step ``m`` uses the degree-``m`` Taylor polynomials of the slope
    ``(g0 - g)/g0`` and offset ``f/g0``; as polynomials they are exact, so
    they are padded back to the working precision.
    """
    if g.coefficient(0) == 0:
        raise DomainError("division domain error: divisor has zero constant term")
    if f.precision < precision or g.precision < precision:
        raise PrecisionError(
            f"division to degree {precision} needs both operands at that precision"
        )
    slope_data = _contraction_slope(g, precision)
    offset_data = f.truncate(precision) * (Fraction(1) / g.coefficient(0))

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
    step, ``q_n = (f_n - sum_{j>=1} g_j * q_(n-j)) / g0``, with the same limit.
    """
    if precision < 0:
        raise ValueError("precision must be a natural number")
    g0 = g.coefficient(0)
    if g0 == 0:
        raise DomainError("division domain error: divisor has zero constant term")
    if f.precision < precision or g.precision < precision:
        raise PrecisionError(
            f"division to degree {precision} needs both operands at that precision"
        )
    fc, gc = f.coefficients, g.coefficients
    taps = [(j, gc[j]) for j in range(1, precision + 1) if gc[j]]
    q = [Fraction(0)] * (precision + 1)
    # leading zeros of f are leading zeros of f/g
    start = min(f.order(), precision + 1)
    for n in range(start, precision + 1):
        acc = fc[n]
        for j, gj in taps:
            if j > n - start:
                break
            acc -= gj * q[n - j]
        q[n] = acc / g0
    return Series(q)


def column_scheme(f: Series, g: Series, n: int, prev_column: Series) -> IterationScheme:
    """Scheme whose crossed iteration builds column ``n`` from column ``n-1``.

    ``prev_column`` must be the column-(n-1) series ``x**(n-2) * f / g**(n-1)``
    (the full column, leading zeros included).  The step-``m`` map is

        ``t -> T_m((g0 - g)/g0) * t + x * T_(m-1)(prev_column / g0)``

    and the crossed iterates converge to ``x**(n-1) * f / g**n``.  Columns
    are 1-indexed here; column 1 is plain division (:func:`reciprocal_scheme`).

    ``f`` enters the column data only through ``prev_column``; together with
    ``g`` it pins the working precision of the scheme.
    """
    if n < 2:
        raise ValueError("column schemes start at n=2; column 1 is reciprocal_scheme")
    if g.coefficient(0) == 0:
        raise DomainError("division domain error: divisor has zero constant term")
    precision = min(f.precision, g.precision)
    if precision < 1:
        raise PrecisionError("column construction needs precision >= 1")
    if prev_column.precision < precision - 1:
        raise PrecisionError(
            f"previous column needs precision >= {precision - 1}"
        )
    slope_data = _contraction_slope(g, precision)
    prev_scaled = prev_column.truncate(precision - 1) * (Fraction(1) / g.coefficient(0))

    def maps(m: int) -> AffineMap:
        slope = slope_data.truncate(min(m, precision)).pad(precision)
        if m == 0:
            offset = Series.zero(precision)
        else:
            cut = min(m - 1, precision - 1)
            offset = prev_scaled.truncate(cut).pad(precision - 1).shift(1)
        return AffineMap(slope, offset)

    return IterationScheme(maps, AffineMap(slope_data, prev_scaled.shift(1)))
