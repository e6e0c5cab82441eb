"""Contractive affine maps on truncated series and their iteration.

In the ultrametric of :mod:`riordan.series`, the map ``t -> a*t + b`` is a
1/2-contraction whenever ``order(a) >= 1``, so plain iteration converges to
its unique fixed point from any start.  One step is one integer pass: ``a*t`` is
convolved onto the scaled ``b``, and the iterate's reduced Fractions are built
from the result.  The iteration runs on integers end to end: the start is scaled
once, each step hands the next its iterate as the integers ``(D, D*t)``, ``D``
the lcm of the iterate's denominators, and ``a`` and ``b`` are scaled once per
run (a map's on its first call, a division scheme's once for all its step maps).
A coefficient whose integer a step leaves unchanged keeps its Fraction, so the
converged degrees of an iterate are not built again.
Iterating a *sequence* of such maps (the "crossed" iteration of a scheme, the
step function ``m -> AffineMap`` whose map ``m`` is applied at step ``m``)
converges to the fixed point of the pointwise limit map while only ever touching
Taylor data of degree ``m`` at step ``m`` -- which is what turns the limit
statements into finite, exact algorithms.

Series division is the flagship instance: the crossed iterates of the Taylor
truncations of the limit map ``t -> ((g0 - g)/g0)*t + f/g0`` reach its fixed
point ``f/g`` degree by degree.  :func:`reciprocal`, the one
division kernel, applies it one degree per step, on integers: scaled by
``M*delta_n*g0``, ``delta_n`` the least common denominator the taps ``g_j/g0``
can give it, degree ``n`` obeys the same map with every division multiplied
out (:func:`_step`, the one integer recurrence, which also fills the table of
:mod:`riordan.reversion`).  The reference path the tests check it against is one
division scheme, :func:`reciprocal_scheme`, run by one loop,
:func:`iterate_crossed`: a triangle column is the division scheme of
``x * previous column``, and plain iteration is the crossed iteration of
a constant scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import add, floordiv, mul
from typing import Callable, Iterator, Sequence

from .series import (DomainError, PrecisionError, Series, _fractions, _integer_mul_add,
                     _integral, _mul_add)

__all__ = [
    "AffineMap",
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
    ``distance(map(t1), map(t2)) <= distance(t1, t2) / 2``.  Applying the map is
    one integer pass (``series._mul_add``), at the least precision of ``slope``,
    ``t`` and ``offset``: the same series as ``slope*t + offset``, with one
    Fraction built per coefficient instead of two.  ``slope`` and ``offset`` are
    scaled to integers on the first call (a division scheme's step maps read prefixes
    of its limit map's), and :func:`iterate_crossed` hands each step the iterate as
    integers, so an iteration scales no iterate but its start.
    """

    slope: Series
    offset: Series

    def __post_init__(self) -> None:
        if self.slope.order() < 1:
            raise NotContractiveError(
                "not contractive: slope has a nonzero constant term"
            )

    @cached_property
    def _scaled(self) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
        return _integral(self.slope.coefficients), _integral(self.offset.coefficients)

    def _prefix(self, cut: int) -> AffineMap:
        """The map of the degree-``cut`` Taylor polynomials of ``slope`` and ``offset``,
        padded back to their precisions: its integers are prefixes of this map's, the
        offset's padded with zeros, so it scales no coefficient."""
        (ds, big_s), (do, big_o) = self._scaled
        slope, offset = self.slope, self.offset
        amap = AffineMap(slope.truncate(cut).pad(slope.precision),
                         offset.truncate(cut).pad(offset.precision))
        amap.__dict__["_scaled"] = ((ds, big_s[: cut + 1]),
                                    (do, big_o[: cut + 1] + [0] * (offset.precision - cut)))
        return amap

    def __call__(self, t: Series) -> Series:
        p = min(self.slope.precision, t.precision, self.offset.precision)
        slope, offset = self._scaled
        return _mul_add(slope, t, offset, p)


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


def iterate_crossed(scheme: Callable[[int], AffineMap], start: Series,
                    steps: int) -> IterationTrace:
    """Crossed iteration: apply the contraction ``scheme(m)`` at step ``m``.

    The run is on integers: the start is scaled once, and each step runs the integer
    stage of ``scheme(m)`` on the integers ``(D, D*t)`` of the iterate before it and
    divides its output by the gcd of its denominator and numerators, which leaves
    ``_integral`` of the new iterate, the integers it hands on.  For the trace, a
    coefficient whose integer over the same ``D`` is unchanged keeps the Fraction of
    the iterate before (the converged degrees, and zeros not yet reached); one
    Fraction is built for each other coefficient.
    """
    if steps < 0:
        raise ValueError("steps must be a natural number")
    iterates = [start]
    held = _integral(start.coefficients)
    for m in range(steps):
        try:
            current = scheme(m)
        except NotContractiveError as exc:
            raise NotContractiveError(f"scheme map for step {m}: {exc}") from exc
        p = min(current.slope.precision, iterates[-1].precision, current.offset.precision)
        slope, offset = current._scaled
        den, nums = _integer_mul_add(slope, held, offset, p)
        c = math.gcd(den, *nums)
        if c != 1:
            den, nums = den // c, [v // c for v in nums]
        same = held[1] if den == held[0] else repeat(None)
        fresh = [i for i, (v, u) in enumerate(zip(nums, same)) if v != u]
        values = list(iterates[-1].coefficients[: p + 1])
        for i, value in zip(fresh, _fractions([nums[i] for i in fresh], [den] * len(fresh))):
            values[i] = value
        iterates.append(Series._of(values))
        held = den, nums
    return IterationTrace(tuple(iterates))


def iterate_fixed(map_: AffineMap, start: Series, steps: int) -> IterationTrace:
    """Plain iteration of one contraction: the crossed iteration of the
    constant scheme ``m -> map_``.

    Iterate ``m`` agrees with the fixed point through degree ``m - 1`` at
    least, provided the precisions of ``start`` and the map data cover the
    requested depth.
    """
    return iterate_crossed(lambda m: map_, start, steps)


def _check_division(f: Series, g: Series, precision: int) -> None:
    if precision < 0:
        raise ValueError("precision must be a natural number")
    if g.coefficient(0) == 0:
        raise DomainError("division domain error: divisor has zero constant term")
    if f.precision < precision or g.precision < precision:
        raise PrecisionError(
            f"division to degree {precision} needs both operands at that precision"
        )


def reciprocal_scheme(f: Series, g: Series, precision: int) -> Callable[[int], AffineMap]:
    """The division scheme ``m -> AffineMap``, whose crossed iterates reach ``f/g``, the
    fixed point of the limit map ``t -> ((g0 - g)/g0)*t + f/g0``.

    Step ``m`` uses the degree-``m`` Taylor polynomials of that slope and offset; as
    polynomials they are exact, so they are padded back to the working precision.
    The limit map is scaled to integers once, on the first step, and each step map
    reads prefixes of its integers.
    """
    _check_division(f, g, precision)
    inv_g0 = Fraction(1) / g.coefficient(0)
    # (g0 - g)/g0: zero constant term by construction, hence a 1/2-contraction.
    limit = AffineMap(1 - g.truncate(precision) * inv_g0, f.truncate(precision) * inv_g0)

    def maps(m: int) -> AffineMap:
        return limit._prefix(min(m, precision))

    return maps


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
    the integers of :func:`_integer_columns`, with ``g0 = a/b`` in lowest terms and
    ``a > 0`` (the sign of ``g0`` folded into ``b``), entry ``(n, k)`` is the one Fraction
    ``S_k[n-k]*b**(k+1) / (M*delta_(n-k)*a**(k+1))``, its denominator positive, so a
    column with every denominator 1 is built with no gcd (:func:`~riordan.series._fractions`)."""
    den_f, g0, delta, columns = _integer_columns(f, g, precision, count)
    a, b = _positive(g0)
    dens = [den_f * d for d in delta]
    ak, bk = a, b
    for k, s in enumerate(columns):  # in place, so the integers of done columns are freed
        column_dens = list(map(mul, dens[: len(s)], repeat(ak)))
        columns[k] = _fractions(map(mul, s, repeat(bk)), column_dens)
        ak, bk = ak * a, bk * b
    return columns


def _positive(g0: Fraction) -> tuple[int, int]:
    """``(a, b)`` with ``g0 = a/b`` in lowest terms and ``a > 0``: the sign goes to ``b``."""
    a, b = g0.as_integer_ratio()
    return (a, b) if a > 0 else (-a, -b)


def _apply(f: Series, g: Series, hs: Sequence[Series], p: int) -> list[Series]:
    """``T(f|g)`` times each ``h`` in ``hs`` through degree ``p``, off one run of the
    division kernel's integer columns (:func:`_integer_columns`).

    With ``g0 = a/b``, ``a > 0``, entry ``(n, k)`` is ``S_k[n-k]*b**(k+1) / (M*delta_(n-k)*
    a**(k+1))`` and ``delta_(n-k)`` divides ``delta_n``, so row ``n`` sums over the positive
    denominator ``M*delta_n*a**(n+1)*D``, ``D*h`` integral: term ``k`` gains the factor
    ``(delta_n/delta_(n-k)) * a**(n-k) * b**(k+1)``, and each coefficient is one Fraction.
    Each column is lifted once, by ``a**m * delta_p/delta_m`` at ``m = n - k``, so a row is
    a sum of column slices times ``b**(k+1) * D*h_k``, divided exactly by ``delta_p/delta_n``.
    """
    den_f, g0, delta, columns = _integer_columns(f, g, p, p + 1)
    a, b = _positive(g0)
    drop = [delta[p] // d for d in delta]  # delta_p/delta_n
    lift = list(map(mul, drop, accumulate(repeat(a, p), mul, initial=1)))
    if any(v != 1 for v in lift):
        columns = [list(map(mul, s, lift)) for s in columns]
    dens = list(map(mul, delta, accumulate(repeat(a, p), mul, initial=den_f * a)))
    out = []
    for h in hs:
        den_h, big_h = _integral(h.coefficients[: p + 1])
        sums = [0] * (p + 1)
        for k, (hk, bk) in enumerate(zip(big_h, accumulate(repeat(b, p), mul, initial=b))):
            if hk:
                sums[k:] = map(add, sums[k:], map(mul, columns[k], repeat(hk * bk)))
        out.append(Series._of(_fractions(map(floordiv, sums, drop), [d * den_h for d in dens])))
    return out


def _integer_columns(f: Series, g: Series, precision: int,
                     count: int) -> tuple[int, Fraction, list[int], list[list[int]]]:
    """``(M, g0, delta, [S_k for k < count])``, the kernel's integer stage, each ``S_k``
    indexed by ``m = n - k <= precision - k`` (0 below the order of ``f``).

    Column ``k`` divides ``x * column(k-1)`` by ``g``, fraction-free: with ``F = M*f``
    integral through ``precision`` and ``c_j = g_j/g0``, ``S_k[m] = M*delta_m * [x^m]
    f / (1+c)**(k+1)`` is the divide :func:`_step` of ``S_(k-1)``, column 0 that of
    ``F_m*delta_m``, on the taps and scale of :func:`_scale_rows`.
    """
    _check_division(f, g, precision)
    den_f, big_f = _integral(f.coefficients[: precision + 1])  # M, F
    delta, rows = _scale_rows(g.coefficients[: precision + 1], precision)
    source = [c * d for c, d in zip(big_f, delta)]
    start = min(f.order(), precision + 1)  # leading zeros of every column
    columns = []
    for k in range(count):
        source = _step(source, rows, -1, precision - k + 1, start)
        columns.append(source)
    return den_f, g.coefficients[0], delta, columns


def _step(source: Sequence[int], rows: list[list[tuple[int, int]]], sign: int,
          length: int, start: int = 0) -> list[int]:
    """``s_m = delta_m [x^m] u*(1+c)**sign`` for ``m < length``, ``source[m] = delta_m [x^m] u``
    (0 below ``start``), on the taps ``rows[m]`` and scale of :func:`_scale_rows`: the one
    integer recurrence, ``s_m = source_m - sum_j t_(m,j) r_(m-j)`` at one product per tap,
    reading ``r = s`` to divide (``sign = -1``) and ``r = -source`` to multiply (``sign = 1``);
    ``delta_m c_j = t_(m,j) delta_(m-j)``, so no step divides."""
    s = [0] * length
    read = s if sign < 0 else [-v for v in source]
    for m in range(start, length):
        acc = source[m]
        for j, t in rows[m]:
            acc -= t * read[m - j]
        s[m] = acc
    return s


def _scale_rows(cs: Sequence[Fraction],
                precision: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """``(delta, rows)`` for the coefficients ``cs`` (``cs_0 != 0``): with ``c_j = cs_j/cs_0``
    for ``1 <= j <= precision``, ``delta_0 = 1``, ``delta_m = lcm_j den(c_j)*delta_(m-j)``
    and the integer taps ``rows[m] = [(j, t_(m,j))]``, ``t_(m,j) = c_j*delta_m/delta_(m-j)``
    over the nonzero ``c_j`` with ``j <= m``, for each degree ``m <= precision``.  This is
    the one integer scale of the package: ``delta_m`` times an integer combination of
    products ``c_j1*...*c_jr`` with ``j1 + ... + jr = m`` is an integer, so it clears
    ``[x^m]`` of ``f/g``, of ``(g/g0)**alpha`` and of the table of ``(1, T)`` alike, and
    each ``delta_m`` divides the next.

    If every ``den(c_j)`` divides ``e**j``, ``e = den(c_1)``, then ``delta_m = e**m``
    and one row serves every degree from the last tap ``d`` on.  Otherwise, from ``d``
    on, the ratio ``delta_m/delta_(m-1)`` and row ``m`` depend only on the ``d - 1``
    ratios before it, so once a window repeats, first seen ``k`` degrees earlier, the
    ratios and rows from there on repeat with period ``k`` and are copied."""
    a, b = cs[0].numerator, cs[0].denominator
    taps = []  # (j, num(c_j), den(c_j)) for the nonzero c_j
    for j, cj in enumerate(cs[1: precision + 1], 1):
        if cj:
            num, den = cj.numerator * b, cj.denominator * a
            c = math.gcd(num, den) if a > 0 else -math.gcd(num, den)
            taps.append((j, num // c, den // c))
    d = taps[-1][0] if taps else 0
    e = taps[0][2] if taps and taps[0][0] == 1 else 1
    if all(pow(e, j, den) == 0 for j, _, den in taps):
        row = [(j, num * e ** j // den) for j, num, den in taps]
        rows = [[(j, t) for j, t in row if j <= m] for m in range(d)] + [row] * (precision + 1 - d)
        return list(accumulate(repeat(e, precision), mul, initial=1)), rows
    delta, ratios, rows, seen = [1], [1], [[]], {}
    for m in range(1, precision + 1):
        window = tuple(ratios[m - d + 1:]) if m >= d else m  # a degree's own key below d
        if window in seen:
            period = m - seen[window]
            for n in range(m, precision + 1):
                ratios.append(ratios[n - period])
                delta.append(delta[-1] * ratios[-1])
                rows.append(rows[n - period])
            break
        seen[window] = m
        prods = [den * delta[m - j] for j, _, den in taps if j <= m]
        dm = math.lcm(*prods)
        ratios.append(dm // delta[-1])
        delta.append(dm)
        rows.append([(j, num * (dm // p)) for (j, num, _), p in zip(taps, prods)])
    return delta, rows


def column_scheme(f: Series, g: Series, n: int, prev_column: Series) -> Callable[[int], AffineMap]:
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
