"""Exact truncated formal power series over the rationals.

A :class:`Series` stores the coefficients of degrees ``0..P`` as
:class:`fractions.Fraction` values, where ``P`` is the series' *precision*:
the largest degree whose coefficient is authoritative.  All arithmetic is
exact.  Results carry the most conservative precision their inputs justify:
the minimum of the operand precisions for ring operations and composition,
one degree less for differentiation.

The ring operations run on integers: each operand is scaled once by the lcm
of its denominators, the sum or the convolution is taken on those integers,
and one reduced Fraction is built per output coefficient (with no gcd when
the scale is 1).  The entries are canonical, so the result is the same
series the schoolbook Fraction sums give.

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
    """``(D, [D*c for c in cs])`` with ``D`` the lcm of the denominators of ``cs``."""
    dens = [c.denominator for c in cs]
    den = math.lcm(*dens)
    if den == 1:
        return 1, [c.numerator for c in cs]
    return den, [c.numerator * (den // d) for c, d in zip(cs, dens)]


def _over(ints: list[int], den: int) -> list[Fraction]:
    """``[Fraction(c, den) for c in ints]``, reduced; over ``den == 1`` no gcd is taken."""
    if den == 1:
        return [Fraction(c) for c in ints]
    return [Fraction(c, den) for c in ints]


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
            values.extend([Fraction(0)] * (precision + 1 - len(values)))
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
    def _of(cls, values: list[Fraction]) -> Series:
        """The series of ``values``, a non-empty list of reduced Fractions that the
        library just computed, stored as it is: no coercion, no float check."""
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
        return Series(self._coeffs[: m + 1])

    def pad(self, precision: int) -> Series:
        """Extend with explicit zero coefficients up to ``precision``.

        Only sound when the series is known to be a polynomial, so that the
        omitted coefficients really are zero (e.g. a Taylor polynomial used
        as exact map data in an iteration scheme).
        """
        if precision < self.precision:
            raise ValueError("pad cannot reduce precision; use truncate")
        return Series(self._coeffs, precision)

    def shift(self, k: int) -> Series:
        """Multiply by ``x**k``; ``k`` may be negative if the low
        coefficients vanish.  The monomial factor is exact, so precision
        moves with the shift."""
        if k == 0:
            return self
        if k > 0:
            return Series((Fraction(0),) * k + self._coeffs)
        drop = -k
        if drop > self.precision:
            raise PrecisionError(
                f"cannot shift by {k}: precision is {self.precision}"
            )
        if any(self._coeffs[:drop]):
            raise DomainError(
                f"cannot divide by x^{drop}: a lower coefficient is nonzero"
            )
        return Series(self._coeffs[drop:])

    # ------------------------------------------------------------------
    # ring operations (result precision = min of operand precisions)
    # ------------------------------------------------------------------
    def __neg__(self) -> Series:
        return Series(tuple(-c for c in self._coeffs))

    def __add__(self, other: Series | Rational) -> Series:
        if isinstance(other, Series):
            p = min(self.precision, other.precision)
            da, a = _integral(self._coeffs[: p + 1])
            db, b = _integral(other._coeffs[: p + 1])
            den = math.lcm(da, db)
            sa, sb = den // da, den // db
            return Series._of(_over([x * sa + y * sb for x, y in zip(a, b)], den))
        if isinstance(other, (int, Fraction)):
            values = list(self._coeffs)
            values[0] += other
            return Series(values)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Series | Rational) -> Series:
        if isinstance(other, (Series, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: Series | Rational) -> Series:
        return (-self) + other

    def __mul__(self, other: Series | Rational) -> Series:
        if isinstance(other, Series):
            p = min(self.precision, other.precision)
            da, a = _integral(self._coeffs[: p + 1])
            db, b = _integral(other._coeffs[: p + 1])
            taps = [(j, bj) for j, bj in enumerate(b) if bj]
            out = [0] * (p + 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in taps:
                        if i + j > p:
                            break
                        out[i + j] += ai * bj
            return Series._of(_over(out, da * db))
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self._coeffs))
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
        return Series(tuple(i * c for i, c in enumerate(self._coeffs) if i >= 1))

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
    terms: list[tuple[str, str]] = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        a = -c if c < 0 else c
        if d == 0:
            body = str(a)
        else:
            if a == 1:
                mag = ""
            elif a.denominator == 1:
                mag = str(a)
            else:
                mag = f"({a})"
            body = mag + ("x" if d == 1 else f"x^{d}")
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    rendered = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        rendered += sign + body
    return rendered
