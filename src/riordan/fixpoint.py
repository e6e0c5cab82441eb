"""Contractive affine maps on truncated series and their iteration.

In the ultrametric of :mod:`riordan.series`, the map ``t -> a*t + b`` is a
1/2-contraction whenever ``order(a) >= 1``, so plain iteration converges to
its unique fixed point from any start.  Applying a map is one integer pass,
:func:`~riordan.series._mul_add`: ``a*t`` is convolved onto the scaled ``b``, and the
iterate's reduced Fractions are built from the result.
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
:mod:`riordan.reversion`).  The reference path the tests check it against is the
iteration as the paper defines it: one division scheme, :func:`reciprocal_scheme`, run
by one loop, :func:`iterate_crossed`, that applies each step's map to the iterate
before; a triangle column is the division scheme of ``x * previous column``, and plain
iteration is the crossed iteration of a constant scheme.  ``riordan trace`` prints the
same iterates from integers, off its own loop, :func:`_crossed_integers`, fed with a
division scheme's step integers by :func:`_division_steps`; the tests check its output
against the reference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, floordiv, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .series import (DomainError, PrecisionError, Series, _fractions, _integer_mul_add, _integral,
                     _mul_add)

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
    ``distance(map(t1), map(t2)) <= distance(t1, t2) / 2``.  Applying the map gives
    ``slope*t + offset`` at the least precision of ``slope``, ``t`` and ``offset``, in
    one :func:`~riordan.series._mul_add` pass.
    """

    slope: Series
    offset: Series

    def __post_init__(self) -> None:
        if self.slope.order() < 1:
            raise NotContractiveError(
                "not contractive: slope has a nonzero constant term"
            )

    def __call__(self, t: Series) -> Series:
        p = min(self.slope.precision, t.precision, self.offset.precision)
        return _mul_add(_integral(self.slope.coefficients[: p + 1]), t,
                        _integral(self.offset.coefficients[: p + 1]), p)


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
    """Crossed iteration: apply the contraction ``scheme(m)`` at step ``m``, to the
    iterate before it."""
    if steps < 0:
        raise ValueError("steps must be a natural number")
    iterates = [start]
    for m in range(steps):
        try:
            current = scheme(m)
        except NotContractiveError as exc:
            raise NotContractiveError(f"scheme map for step {m}: {exc}") from exc
        iterates.append(current(iterates[-1]))
    return IterationTrace(tuple(iterates))


def _crossed_integers(held: tuple[int, list[int]],
                      maps: Iterable[tuple[tuple[int, list[int]], tuple[int, list[int]], int]]
                      ) -> Iterator[tuple[int, list[int]]]:
    """The crossed iteration on integers, the loop ``riordan trace`` prints: from ``held``,
    :func:`~riordan.series._integral` of the start, ``(D, D*t)`` of each iterate after it,
    one per ``(slope, offset, p)`` of ``maps``, a step map's integers as :func:`_integral`
    returns them and its precision.  A step runs :func:`~riordan.series._integer_mul_add` on
    the integers of the iterate before, through the least of ``p`` and that iterate's
    precision, and divides its output by the gcd of its denominator and numerators, which
    leaves ``_integral`` of the new iterate, the integers it hands on.  Its iterates are
    those of :func:`iterate_crossed` on the same maps."""
    for slope, offset, p in maps:
        held = _lowest(*_integer_mul_add(slope, held, offset, min(p, len(held[1]) - 1)))
        yield held


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
    """
    _check_division(f, g, precision)
    g0 = g.coefficients[0]
    slope = Series._of([Fraction(0), *(-c / g0 for c in g.coefficients[1: precision + 1])])
    offset = Series._of([c / g0 for c in f.coefficients[: precision + 1]])

    def maps(m: int) -> AffineMap:
        cut = min(m, precision)
        return AffineMap(slope.truncate(cut).pad(precision), offset.truncate(cut).pad(precision))

    return maps


def _division_steps(f: tuple[int, list[int]], g: tuple[int, list[int]], precision: int
                    ) -> Callable[[int], tuple[tuple[int, list[int]], tuple[int, list[int]]]]:
    """Step ``m``'s slope and offset integers in the division scheme of ``f`` by ``g``
    (``g_0 != 0``), both given as :func:`_integral` returns them through ``precision``, for
    ``riordan trace``: those of the degree-``min(m, precision)`` Taylor polynomials of
    ``(g0 - g)/g0`` and ``f/g0``, the slope's through its last term and the offset's padded
    with zeros to ``precision``: the Fractions of :func:`reciprocal_scheme`'s map ``m``, over
    the least denominators of its limit map's, so from ``m = precision`` on they are the
    ones :func:`_integral` gives that map."""
    (den_f, big_f), (den_g, big_g) = f, g
    sign = 1 if big_g[0] > 0 else -1
    # with F = den_f*f and G = den_g*g, (g0 - g)/g0 = -G/G_0 past its zero constant term,
    # hence a 1/2-contraction, and f/g0 = den_g*F/(den_f*G_0)
    ds, big_s = _lowest(sign * big_g[0], [0] + [-sign * v for v in big_g[1:]])
    do, big_o = _lowest(sign * big_g[0] * den_f, [sign * den_g * v for v in big_f])

    def step(m: int) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
        cut = min(m, precision)
        return (ds, big_s[: cut + 1]), (do, big_o[: cut + 1] + [0] * (precision - cut))

    return step


def reciprocal(f: Series, g: Series, precision: int) -> Series:
    """Exact quotient ``f/g`` through ``precision``, its operands checked here (``g0 != 0``).

    Step ``n`` of the crossed iteration of :func:`reciprocal_scheme` only fixes coefficient
    ``n``, so the contraction is applied one degree per step, ``q_n = f_n/g0 - sum_{j>=1}
    (g_j/g0) * q_(n-j)``, with the same limit, on the integers ``M*delta_n*g0*q_n``
    (:func:`_integer_columns`), ``M`` the lcm of the denominators of ``f``, and the sign
    of ``g0`` split off by :func:`_positive`.

    >>> print(reciprocal(Series.one(3), Series(["-3/2", 1], 3), 3))
    -2/3-(4/9)x-(8/27)x^2-(16/81)x^3
    """
    _check_division(f, g, precision)
    return Series._of(_division_columns(f, g, precision, 1, _fractions)[0])


def _division_columns(f: Series, g: Series, precision: int, count: int,
                      convert: Callable[[Iterable[int], Sequence[int]], list]) -> list[list]:
    """Columns ``k < count`` of ``x**k * f / g**(k+1)``, degrees ``k..precision``, each
    converted from the integers by ``convert`` as the kernel yields it, so a column that
    cannot convert stops the run there: :func:`~riordan.series._fractions` for Fractions,
    :func:`~riordan.series._strings` for their strings.  Over the integers and
    the split ``g0 = a/b``, ``a > 0``, of :func:`_integer_columns`, entry ``(n, k)`` is
    ``S_k[n-k]*b**(k+1) / (M*delta_(n-k)*a**(k+1))``, its denominator positive, so a column
    with every denominator 1 is converted with no gcd.  A factor that is 1 is not multiplied
    in: a column whose ``b**(k+1)`` is 1 reaches ``convert`` as the kernel's own integers,
    one whose ``a**(k+1)`` is 1 over ``M*delta`` as it is, and ``M = 1`` leaves ``delta``."""
    den_f, (a, b), delta, columns = _integer_columns(f, g, precision, count)
    dens = delta if den_f == 1 else [den_f * d for d in delta]
    out = []
    ak, bk = a, b
    for s in columns:
        column_dens = dens[: len(s)] if ak == 1 else list(map(mul, dens[: len(s)], repeat(ak)))
        out.append(convert(s if bk == 1 else map(mul, s, repeat(bk)), column_dens))
        ak, bk = ak * a, bk * b
    return out


def _lowest(den: int, nums: list[int]) -> tuple[int, list[int]]:
    """``(den, nums)``, ``den > 0``, divided by their gcd: :func:`_integral` of the Fractions
    ``n/den``."""
    c = math.gcd(den, *nums)
    return (den, nums) if c == 1 else (den // c, [v // c for v in nums])


def _positive(g0: Fraction) -> tuple[int, int]:
    """``(a, b)`` with ``g0 = a/b`` in lowest terms and ``a > 0``: the sign goes to ``b``."""
    a, b = g0.as_integer_ratio()
    return (a, b) if a > 0 else (-a, -b)


def _apply(f: Series, g: Series, hs: Sequence[Series], p: int) -> list[Series]:
    """``T(f|g)`` times each ``h`` in ``hs`` through degree ``p``, off one run of the
    division kernel's integer columns and its split ``g0 = a/b``, ``a > 0``
    (:func:`_integer_columns`).

    Entry ``(n, k)`` is ``S_k[n-k]*b**(k+1) / (M*delta_(n-k)*a**(k+1))`` and ``delta_(n-k)``
    divides ``delta_n``, so row ``n`` sums over the positive denominator
    ``M*delta_n*a**(n+1)*D``, ``D*h`` integral: term ``k`` gains the factor
    ``(delta_n/delta_(n-k)) * a**(n-k) * b**(k+1)``, and each coefficient is one Fraction.
    Each column is lifted once, by ``a**m * delta_p/delta_m`` at ``m = n - k``, so a row is
    a sum of column slices times ``b**(k+1) * D*h_k``, divided exactly by ``delta_p/delta_n``.
    The kernel runs only through the last column some ``h`` reads, the highest degree ``k``
    with ``h_k != 0``.
    """
    count = 1 + max((k for h in hs for k, c in enumerate(h.coefficients[: p + 1]) if c), default=-1)
    den_f, (a, b), delta, columns = _integer_columns(f, g, p, count)
    columns = list(columns)
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
                     count: int) -> tuple[int, tuple[int, int], list[int], Iterator[list[int]]]:
    """``(M, (a, b), delta, S_k for k < count)``, the kernel's integer stage, ``g0 = a/b``
    split once by :func:`_positive`, each ``S_k`` indexed by ``m = n - k <= precision - k``
    (0 below the order of ``f``) and made only when the one before has been taken, so a
    caller that stops early makes no more.  It checks nothing: the public entry that reaches it,
    :func:`reciprocal` or a constructed ``RiordanMatrix``, has already checked its operands.

    Column ``k`` divides ``x * column(k-1)`` by ``g``, fraction-free: with ``F = M*f``
    integral through ``precision`` and ``c_j = g_j/g0``, ``S_k[m] = M*delta_m * [x^m]
    f / (1+c)**(k+1)`` is the divide :func:`_step` of ``S_(k-1)``, column 0 that of
    ``F_m*delta_m``, on the taps and scale of :func:`_scale_rows`.
    """
    den_f, big_f = _integral(f.coefficients[: precision + 1])  # M, F
    delta, rows = _scale_rows(g.coefficients[: precision + 1], precision)

    def columns() -> Iterator[list[int]]:
        source = [c * d for c, d in zip(big_f, delta)]
        for k in range(count):
            source = _step(source, rows, -1, precision - k + 1)
            yield source

    return den_f, _positive(g.coefficients[0]), delta, columns()


def _step(source: Sequence[int], rows: list[list[tuple[int, int]]], sign: int,
          length: int) -> list[int]:
    """``s_m = delta_m [x^m] u*(1+c)**sign`` for ``m < length``, ``source[m] = delta_m [x^m] u``,
    on the taps ``rows[m]`` and scale of :func:`_scale_rows`: the one integer recurrence,
    ``s_m = source_m - sum_j t_(m,j) r_(m-j)`` at one product per tap, reading ``r = s`` to
    divide (``sign = -1``) and ``r = -source`` to multiply (``sign = 1``); ``delta_m c_j =
    t_(m,j) delta_(m-j)``, so no step divides, and a source that is 0 below some degree
    steps to 0 there."""
    s = [0] * length
    read = s if sign < 0 else [-v for v in source]
    for m in range(length):
        acc = source[m]
        for j, t in rows[m]:
            acc -= t * read[m - j]
        s[m] = acc
    return s


def _scale_rows(cs: Sequence[Fraction],
                precision: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """``(delta, rows)`` for the coefficients ``cs`` (``cs_0 != 0``): with ``c_j = cs_j/cs_0``
    for ``1 <= j <= precision``, ``cs_0`` split by :func:`_positive` so ``den(c_j) > 0``,
    ``delta_0 = 1``, ``delta_m = lcm_j den(c_j)*delta_(m-j)`` and the integer taps
    ``rows[m] = [(j, t_(m,j))]``, ``t_(m,j) = c_j*delta_m/delta_(m-j)`` over the nonzero ``c_j``
    with ``j <= m``, for each degree ``m <= precision``.  This is the one integer scale of the
    package: ``delta_m`` times an integer combination of products ``c_j1*...*c_jr`` with
    ``j1 + ... + jr = m`` is an integer, so it clears ``[x^m]`` of ``f/g``, of
    ``(g/g0)**alpha`` and of the table of ``(1, T)`` alike; each ``delta_m`` divides the next.

    If every ``den(c_j)`` divides ``e**j``, ``e = den(c_1)``, then ``delta_m = e**m``
    and one row serves every degree from the last tap ``d`` on.  Otherwise, from ``d``
    on, the ratio ``delta_m/delta_(m-1)`` and row ``m`` depend only on the ``d - 1``
    ratios before it, so once a window repeats, first seen ``k`` degrees earlier, the
    ratios and rows from there on repeat with period ``k`` and are copied."""
    a, b = _positive(cs[0])
    taps = []  # (j, num(c_j), den(c_j)) for the nonzero c_j
    for j, cj in enumerate(cs[1: precision + 1], 1):
        if cj:
            num, den = cj.numerator * b, cj.denominator * a
            c = math.gcd(num, den)
            taps.append((j, num // c, den // c))
    d = taps[-1][0] if taps else 0
    e = taps[0][2] if taps and taps[0][0] == 1 else 1
    if all(pow(e, j, den) == 0 for j, _, den in taps):
        row = [(j, num * e ** j // den) for j, num, den in taps]
        # row is sorted by j, so rows[m] below d is its prefix of taps j <= m
        rows = [row[: bisect_right(row, m, key=itemgetter(0))] for m in range(d)]
        rows += [row] * (precision + 1 - d)
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
