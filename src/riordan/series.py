"""Exact truncated formal power series over the rationals.

A :class:`Series` stores the coefficients of degrees ``0..P`` as
:class:`fractions.Fraction` values, where ``P`` is the series' *precision*:
the largest degree whose coefficient is authoritative.  All arithmetic is
exact.  Results carry the most conservative precision their inputs justify:
the minimum of the operand precisions for ring operations and composition,
one degree less for differentiation.

The ring operations run on integers, in one pass, ``_mul_add``, that computes
``a*b + c``: each operand is scaled once by the lcm of its denominators, the
convolution of ``a`` and ``b`` is added straight onto the scaled ``c``, and one
reduced Fraction is built per output coefficient by ``_fractions``, where every
integer stage of the package becomes Fractions (with no gcd when the scale is
1).  ``s * t`` is ``s*t + 0``, ``s + t`` is ``1*s + t``, ``s - t`` is
``(-1)*t + s``, and the affine step of the iteration engine is the pass as it
stands; the engine's crossed iteration runs the integer stage,
``_integer_mul_add``, on the integers each step hands the next.  The entries
are canonical, so the result is the same series the schoolbook Fraction sums
give.

The module also provides the non-Archimedean metric that drives the
iteration engine: ``distance(f, g) == Fraction(1, 2**k)`` where ``k`` is
the order (index of the first nonzero coefficient) of ``f - g``, and ``0``
when the difference vanishes to the full shared precision.  Two series are
within ``1/2**(n+1)`` of each other exactly when their degree-``n``
truncations coincide.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, str, Fraction]

__all__ = [
    "INFINITE_ORDER",
    "DomainError",
    "PrecisionError",
    "Series",
    "SeriesError",
    "distance",
    "format_polynomial",
]

#: Order reported for a series that is zero through its whole precision.
#: At finite precision this means "order exceeds precision".
INFINITE_ORDER = math.inf

_ZERO = Fraction(0)  # immutable: every zero that padding adds is this one


class SeriesError(Exception):
    """Base class for errors raised by series arithmetic."""


class PrecisionError(SeriesError):
    """Coefficients beyond the stored precision were requested."""


class DomainError(SeriesError):
    """A mathematical precondition of an operation was violated."""


def _coerce(value: Rational) -> Fraction:
    if type(value) is Fraction:  # immutable: share it rather than copy it
        return value
    if isinstance(value, float):
        raise TypeError(
            "float coefficients are not supported; use int, Fraction or 'p/q' strings"
        )
    return Fraction(value)


def _integral(cs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(D, [D*c for c in cs])`` with ``D`` the lcm of the denominators of ``cs``,
    each coefficient read once, by ``as_integer_ratio()``."""
    pairs = [c.as_integer_ratio() for c in cs]
    den = math.lcm(*[d for _, d in pairs])
    if den == 1:
        return 1, [n for n, _ in pairs]
    return den, [n * (den // d) for n, d in pairs]


def _literal(entry: object, where: str) -> Fraction:
    """``entry`` of a coefficient list read from outside the program: an int (not a bool) or a
    string with an exponent at most 4300 in magnitude, else a ValueError that names ``where``."""
    if isinstance(entry, bool) or not isinstance(entry, (int, str)):
        raise ValueError(f"{where} entries must be integers or 'p/q' strings, not {entry!r}")
    # Fraction would build 10**exponent first: cap it as Python caps integer digits
    exponent = isinstance(entry, str) and re.search(r"E([-+]?\d+(_\d+)*)\s*\Z", entry, re.I)
    if exponent and abs(float(exponent[1])) > 4300:
        raise ValueError(f"{where} entries must have an exponent of at most 4300, not {entry!r}")
    try:
        return Fraction(entry)
    except ZeroDivisionError:
        raise ValueError(f"{where} entries must have nonzero denominators, not {entry!r}") from None
    except ValueError as exc:  # not a number, or over 4300 digits
        raise ValueError(f"{where} entries must be rational numbers ({exc})") from None


class Series:
    """A formal power series truncated at an explicit precision.

    ``Series(cs, precision=P)`` represents ``sum(cs[i] * x**i)`` with
    coefficients authoritative for degrees ``0..P``.  When ``precision``
    exceeds ``len(cs) - 1`` the missing coefficients are taken to be exact
    zeros, i.e. short input is read as a polynomial.  Coefficients may be
    ints, Fractions or strings like ``"-3/4"``; floats are rejected.

    Instances are immutable; every operation returns a new series.

    >>> s = Series([1, -1], precision=4)       # the polynomial 1 - x
    >>> print(Series([1]*5) * s)               # 1 - x^5, known only through degree 4
    1
    >>> print(Series([1]*5, 5) * Series([1, -1], 5))
    1-x^5
    """

    __slots__ = ("_coeffs",)

    _coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rational] = (0,), precision: int | None = None):
        values = [_coerce(c) for c in coeffs]
        if precision is None:
            if not values:
                raise ValueError("a series needs at least its constant coefficient")
            precision = len(values) - 1
        if precision < 0:
            raise ValueError("precision must be a natural number")
        if len(values) <= precision:
            values.extend([_ZERO] * (precision + 1 - len(values)))
        self._coeffs = tuple(values[: precision + 1])

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, precision: int = 0) -> Series:
        return cls((0,), precision)

    @classmethod
    def one(cls, precision: int = 0) -> Series:
        return cls((1,), precision)

    @classmethod
    def x(cls, precision: int = 1) -> Series:
        return cls((0, 1), precision)

    @classmethod
    def _of(cls, values: Sequence[Fraction]) -> Series:
        """The series of ``values``, a non-empty sequence of reduced Fractions that the
        library computed or already holds, stored as it is: no coercion, no float check."""
        s = object.__new__(cls)
        s._coeffs = tuple(values)
        return s

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def precision(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Fraction:
        """Exact coefficient of ``x**n``; raises beyond the precision."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if n > self.precision:
            raise PrecisionError(
                f"coefficient of x^{n} requested but precision is {self.precision}"
            )
        return self._coeffs[n]

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficient(n)

    def order(self) -> int | float:
        """Index of the first nonzero coefficient.

        Returns :data:`INFINITE_ORDER` when every stored coefficient is
        zero, meaning the order exceeds the precision.
        """
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return INFINITE_ORDER

    # ------------------------------------------------------------------
    # reshaping
    # ------------------------------------------------------------------
    def truncate(self, m: int) -> Series:
        """Taylor polynomial of degree ``m`` (precision drops to ``m``)."""
        if m < 0:
            raise ValueError("truncation degree must be nonnegative")
        if m > self.precision:
            raise PrecisionError(
                f"cannot truncate to degree {m}: precision is {self.precision}"
            )
        if m == self.precision:
            return self
        return Series._of(self._coeffs[: m + 1])

    def pad(self, precision: int) -> Series:
        """Extend with explicit zero coefficients up to ``precision``.

        Only sound when the series is known to be a polynomial, so that the
        omitted coefficients really are zero (e.g. a Taylor polynomial used
        as exact map data in an iteration scheme).
        """
        if precision < self.precision:
            raise ValueError("pad cannot reduce precision; use truncate")
        return Series._of(self._coeffs + (_ZERO,) * (precision - self.precision))

    def shift(self, k: int) -> Series:
        """Multiply by ``x**k``; ``k`` may be negative if the low
        coefficients vanish.  The monomial factor is exact, so precision
        moves with the shift."""
        if k == 0:
            return self
        if k > 0:
            return Series._of((_ZERO,) * k + self._coeffs)
        drop = -k
        if drop > self.precision:
            raise PrecisionError(
                f"cannot shift by {k}: precision is {self.precision}"
            )
        if any(self._coeffs[:drop]):
            raise DomainError(
                f"cannot divide by x^{drop}: a lower coefficient is nonzero"
            )
        return Series._of(self._coeffs[drop:])

    # ------------------------------------------------------------------
    # ring operations (result precision = min of operand precisions)
    # ------------------------------------------------------------------
    def __neg__(self) -> Series:
        return Series._of([-c for c in self._coeffs])

    def __add__(self, other: Series | Rational) -> Series:
        if isinstance(other, Series):
            p = min(self.precision, other.precision)
            return _mul_add((1, [1]), self, _integral(other._coeffs[: p + 1]), p)
        if isinstance(other, (int, Fraction)):
            values = list(self._coeffs)
            values[0] += other
            return Series._of(values)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Series | Rational) -> Series:
        if isinstance(other, Series):
            p = min(self.precision, other.precision)
            return _mul_add((1, [-1]), other, _integral(self._coeffs[: p + 1]), p)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: Rational) -> Series:
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other: Series | Rational) -> Series:
        if isinstance(other, Series):
            p = min(self.precision, other.precision)
            return _mul_add(_integral(self._coeffs[: p + 1]), other, (1, [0] * (p + 1)), p)
        if isinstance(other, (int, Fraction)):
            return Series._of([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Series:
        """Cauchy power ``self**k`` for a natural exponent (``s**0 == 1``)."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("series exponents must be natural numbers")
        result = Series.one(self.precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def compose(self, inner: Series) -> Series:
        """Substitute ``inner`` into ``self`` (Horner over truncated series).

        ``inner`` must have a zero constant term; otherwise every outer
        coefficient would touch every degree and the truncated result would
        not be well defined.  No library path composes: Riordan arrays read
        their entries and reversion fills a power table, and the tests use
        this as the reference those paths are checked against.
        """
        if inner.order() < 1:
            raise DomainError(
                "composition domain error: inner series must have order >= 1"
            )
        p = min(self.precision, inner.precision)
        acc = Series.zero(p)
        for c in reversed(self._coeffs[: p + 1]):
            acc = acc * inner + c
        return acc

    def __call__(self, inner: Series) -> Series:
        return self.compose(inner)

    def derivative(self) -> Series:
        """Termwise formal derivative; precision decreases by one."""
        if self.precision < 1:
            raise PrecisionError(
                "derivative of a precision-0 series has no authoritative coefficients"
            )
        return Series._of([i * c for i, c in enumerate(self._coeffs) if i >= 1])

    # ------------------------------------------------------------------
    # comparisons and rendering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def to_strings(self) -> list[str]:
        """Coefficients as exact ``"p/q"`` strings (the literal format)."""
        return [str(c) for c in self._coeffs]

    def __str__(self) -> str:
        return format_polynomial(self._coeffs)

    def __repr__(self) -> str:
        return f"Series({self.to_strings()!r})"


def _mul_add(a: tuple[int, list[int]], b: Series, c: tuple[int, list[int]], p: int) -> Series:
    """``a*b + c`` through degree ``p`` in one integer pass, ``a`` and ``c`` given scaled,
    as :func:`_integral` returns them: ``b`` is scaled once, :func:`_integer_mul_add` adds
    the convolution of ``a`` and ``b`` straight onto ``c``, and one reduced Fraction is
    built per coefficient by :func:`_fractions` (with no gcd when the denominator is 1).
    ``*``, ``+`` and ``-`` on two series and :class:`~riordan.fixpoint.AffineMap` run this
    pass; the crossed iteration runs the integer stage on the iterate it already holds."""
    den, out = _integer_mul_add(a, _integral(b._coeffs[: p + 1]), c, p)
    return Series._of(_fractions(out, [den] * len(out)))


def _integer_mul_add(a: tuple[int, list[int]], b: tuple[int, list[int]],
                     c: tuple[int, list[int]], p: int) -> tuple[int, list[int]]:
    """``(D, D*(a*b + c))`` through degree ``p``, all three given scaled as :func:`_integral`
    returns them, ``D`` the lcm of ``a``'s and ``b``'s denominators' product and ``c``'s:
    ``c`` over at least ``p + 1`` coefficients, ``a`` and ``b`` over any number, a missing
    coefficient counting as zero and those past ``p`` unread.  A denominator that clears
    more coefficients than are read gives the same Fractions, so data can be scaled once
    and read at any ``p``.  The zero coefficients of ``a`` cost nothing, so pass the
    sparser factor there."""
    (da, ia), (db, ib), (dc, ic) = a, b, c
    den = math.lcm(da * db, dc)
    sa, sc = den // (da * db), den // dc
    ia = ia[: p + 1] if sa == 1 else [v * sa for v in ia[: p + 1]]
    out = ic[: p + 1] if sc == 1 else [v * sc for v in ic[: p + 1]]  # a copy: added onto
    taps = [(j, bj) for j, bj in enumerate(ib) if bj]
    for i, ai in enumerate(ia):
        if ai:
            for j, bj in taps:
                if i + j > p:
                    break
                out[i + j] += ai * bj
    return den, out


def _fractions(nums: Iterable[int], dens: Sequence[int]) -> list[Fraction]:
    """The reduced Fractions ``n/d`` for ``n, d`` in ``zip(nums, dens)``, every ``d > 0``,
    ``dens`` as long as ``nums``: the one boundary where the integer stages of the package become
    Fractions.  Where every ``d`` is 1 they take the constructor's int path, which has no
    gcd and no division; a sign is carried by ``n``, so no ``d`` is negative."""
    if dens.count(1) == len(dens):
        return list(map(Fraction, nums))
    return list(map(Fraction, nums, dens))


def distance(s1: Series, s2: Series) -> Fraction:
    """Ultrametric distance ``1/2**order(s1 - s2)`` as an exact rational.

    Returns 0 when the difference vanishes through the shared precision.
    The two series must already share a precision; truncate first.
    """
    if s1.precision != s2.precision:
        raise ValueError("distance needs a common precision; truncate first")
    k = (s1 - s2).order()
    if math.isinf(k):
        return Fraction(0)
    return Fraction(1, 2 ** int(k))


def format_polynomial(coeffs: Iterable[Fraction]) -> str:
    """Render coefficients in ascending degree: ``1+2x+3x^2-4x^3``.

    Zero terms are omitted; the zero polynomial renders as ``"0"``.
    Non-integer coefficients are parenthesised: ``(1/2)x^3``.
    """
    parts: list[str] = []
    for d, c in enumerate(coeffs):
        num, den = c.as_integer_ratio()
        if not num:
            continue
        if num < 0:
            parts.append("-")
            num = -num
        elif parts:
            parts.append("+")
        if den != 1:
            parts.append(f"{num}/{den}" if d == 0 else f"({num}/{den})")
        elif num != 1 or d == 0:
            parts.append(str(num))
        if d:
            parts.append("x" if d == 1 else f"x^{d}")
    return "".join(parts) or "0"
