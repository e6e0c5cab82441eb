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
``M*delta_n*g0``, ``delta_n`` the least common denominator the taps ``g_j/g0``
can give it, degree ``n`` obeys the same map with every division multiplied
out.  The reference path the tests check it against is one
division scheme, :func:`reciprocal_scheme`, run by one loop,
:func:`iterate_crossed`: a triangle column is the division scheme of
``x * previous column``, and plain iteration is the crossed iteration of
a constant scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterator

from .series import DomainError, PrecisionError, Series, _integral

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
    step, ``q_n = f_n/g0 - sum_{j>=1} (g_j/g0) * q_(n-j)``, with the same
    limit, on the integers ``M*delta_n*g0*q_n`` (:func:`_integer_columns`),
    ``M`` the lcm of the denominators of ``f``.

    >>> print(reciprocal(Series.one(3), Series(["-3/2", 1], 3), 3))
    -2/3-(4/9)x-(8/27)x^2-(16/81)x^3
    """
    return Series._of(_division_columns(f, g, precision, 1)[0])


def _division_columns(f: Series, g: Series, precision: int, count: int) -> list[list[Fraction]]:
    """Columns ``k < count`` of ``x**k * f / g**(k+1)``, degrees ``k..precision``: over
    the integers of :func:`_integer_columns`, with ``g0 = a/b`` in lowest terms, entry
    ``(n, k)`` is the one Fraction ``S_k[n-k]*b**(k+1) / (M*delta_(n-k)*a**(k+1))``."""
    den_f, g0, delta, columns = _integer_columns(f, g, precision, count)
    a, b = g0.numerator, g0.denominator
    dens = [den_f * d for d in delta]
    ak, bk = a, b
    for k, s in enumerate(columns):  # in place, so the integers of done columns are freed
        columns[k] = [Fraction(v * bk, d * ak) for v, d in zip(s, dens)]
        ak, bk = ak * a, bk * b
    return columns


def _integer_columns(f: Series, g: Series, precision: int,
                     count: int) -> tuple[int, Fraction, list[int], list[list[int]]]:
    """``(M, g0, delta, [S_k for k < count])``, the kernel's integer stage, each ``S_k``
    indexed by ``m = n - k <= precision - k`` (0 below the order of ``f``).

    Column ``k`` divides ``x * column(k-1)`` by ``g``, fraction-free.  With ``F = M*f``
    integral through ``precision`` and ``c_j = g_j/g0``, the scaled
    ``S_k[m] = M*delta_m * [x^m] f / (g/g0)**(k+1)`` obey
    ``S_k[m] = S_(k-1)[m] - sum_j t_(m,j) S_k[m-j]``, column 0 fed by ``F_m*delta_m``,
    with integer taps ``t_(m,j) = c_j * delta_m/delta_(m-j)``: ``delta_0 = 1`` and
    ``delta_m = lcm_j den(c_j)*delta_(m-j)`` (:func:`_scale_rows`).
    """
    _check_division(f, g, precision)
    den_f, big_f = _integral(f.coefficients[: precision + 1])  # M, F
    g0 = g.coefficients[0]
    a, b = g0.numerator, g0.denominator
    taps = []  # (j, num(c_j), den(c_j)) for the nonzero c_j = g_j/g0
    for j, gj in enumerate(g.coefficients[1: precision + 1], 1):
        if gj:
            num, den = gj.numerator * b, gj.denominator * a
            c = math.gcd(num, den) if a > 0 else -math.gcd(num, den)
            taps.append((j, num // c, den // c))
    delta, rows = _scale_rows(taps, precision)
    # column 0 is fed by F_m * delta_m, column k by column k-1 at the same m
    source = [c * d for c, d in zip(big_f, delta)]
    start = min(f.order(), precision + 1)  # leading zeros of every column
    pad = taps[-1][0] if taps else 0  # zeros past the end, read by s[m - j] for m < j
    columns = []
    for k in range(count):
        top = precision - k + 1
        s = [0] * (top + pad)
        for m in range(start, top):
            acc = source[m]
            for j, t in rows[m]:
                acc -= t * s[m - j]
            s[m] = acc
        del s[top:]
        columns.append(s)
        source = s
    return den_f, g0, delta, columns


def _scale_rows(taps: list[tuple[int, int, int]],
                precision: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """``(delta, rows)`` for the taps ``(j, num(c_j), den(c_j))``: ``delta_m`` and the
    integer taps ``rows[m] = [(j, t_(m,j))]`` of each degree ``m <= precision``.

    If every ``den(c_j)`` divides ``e**j``, ``e = den(c_1)``, then ``delta_m = e**m``
    and one row serves every degree.  Otherwise, from the last tap ``d`` on, the ratio
    ``delta_m/delta_(m-1)`` and row ``m`` depend only on the ``d - 1`` ratios before
    it, so each window is computed once and its ratio and row are looked up after."""
    e = taps[0][2] if taps and taps[0][0] == 1 else 1
    if all(pow(e, j, den) == 0 for j, _, den in taps):
        row = [(j, num * e ** j // den) for j, num, den in taps]
        return list(accumulate(repeat(e, precision), mul, initial=1)), [row] * (precision + 1)
    d = taps[-1][0]
    delta, ratios, rows, seen = [1], [1], [[]], {}
    for m in range(1, precision + 1):
        key = tuple(ratios[m - d + 1:]) if m >= d else m  # a degree's own key below d
        if key not in seen:
            prods = [den * delta[m - j] for j, _, den in taps if j <= m]
            dm = math.lcm(*prods)
            row = [(j, num * (dm // p)) for (j, num, _), p in zip(taps, prods)]
            seen[key] = dm // delta[-1], row
        ratio, row = seen[key]
        ratios.append(ratio)
        delta.append(delta[-1] * ratio)
        rows.append(row)
    return delta, rows


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
