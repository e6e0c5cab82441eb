"""Riordan matrices: lower-triangular arrays built from a pair of series.

``T(f|g)`` (with ``f0 != 0`` and ``g0 != 0``) is the matrix whose column
``k``, read as a series, is ``x**k * f / g**(k+1)``.  Column 0 is the
quotient ``f/g`` and column ``k`` is ``x * column(k-1) / g``, so the whole
matrix is repeated division: every column comes from the one integer
division kernel behind :func:`riordan.fixpoint.reciprocal`, one Fraction
per entry read, or one string per entry printed.

These matrices form a group under matrix product (the Riordan group),
closed in parameter form:

    product:  ``T(f1|g1) T(f2|g2) = T(f1 * f2(x/g1) | g1 * g2(x/g1))``
    inverse:  ``T(f|g)^-1 = T(1/f(w) | 1/g(w))`` with ``w`` the
              compositional inverse of ``x/g``

Neither is computed by composing series.  The matrix acts on ``h`` as
``(f/g) * h(x/g)``, and ``T(g1|g1)`` acts as ``h -> h(x/g1)``: the division kernel
sums its own integer columns for both (:func:`~riordan.fixpoint._apply`).  The
inverse's parameters come off reversion's table of ``(1, w)``
(:func:`~riordan.reversion._inverse_parameters`).

The inverse is also expressible through the classical A- and Z-sequences,
and multiplying the first parameter by powers of ``g`` prepends or deletes
leading rows and columns; both are provided here as operations.

A matrix builds its entries on first read, while :func:`build_triangle` builds
them at once.  ``apply``, ``@``, ``inverse`` and ``a_z_sequences`` read only
``(f, g, depth)``, so a matrix used only there never builds its block, and ``@``
and ``inverse`` return matrices whose entries are not yet built.  A matrix printed
before its entries are read prints straight from one kernel run's integers, so the
CLI's ``triangle``, ``inverse`` and ``product`` build no Fraction block at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import getitem
from typing import Callable, Iterator

from .fixpoint import _apply, _check_division, _division_columns, reciprocal
from .reversion import _inverse_parameters
# invert_series stays bound here for perfbench's tracer, which patches it in this module
from .reversion import invert_series  # noqa: F401
from .series import DomainError, PrecisionError, Series, _fractions, _literal, _strings

__all__ = [
    "RiordanMatrix",
    "SequencePair",
    "appell",
    "associated",
    "bell",
    "build_triangle",
    "from_classical",
    "from_json_dict",
    "identity",
]


@dataclass(frozen=True)
class SequencePair:
    """The A- and Z-sequences of a Riordan matrix.

    ``a_seq`` rebuilds every column k >= 1 of row n+1 from row n
    (``d[n+1][k+1] = sum_j a_j * d[n][k+j]``); ``z_seq`` does the same for
    column 0 (``d[n+1][0] = sum_j z_j * d[n][j]``).
    """

    a_seq: Series
    z_seq: Series


@dataclass(frozen=True, eq=False)
class RiordanMatrix:
    """The ``depth x depth`` block of ``T(f|g)``.

    The parameters are checked at construction; the entries are built on first
    read, so ``apply``, ``@``, ``inverse`` and ``a_z_sequences``, which read only
    ``(f, g, depth)``, never build them.  :func:`build_triangle`
    constructs and builds the entries at once.  ``to_json``, ``to_csv`` and
    ``to_pretty`` print the built entries if there are any, and otherwise the
    kernel's integers, with no Fraction built.

    Equality compares the entry blocks (and depth): parameter series of
    different precisions describing the same matrix compare equal.
    """

    f: Series
    g: Series
    depth: int

    def __post_init__(self) -> None:
        p = _degree(self.depth)
        if self.f.coefficient(0) == 0:
            raise DomainError("division domain error: f must have a nonzero constant term")
        _check_division(self.f, self.g, p)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Row ``n`` is ``(entry(n, 0), ..., entry(n, n))``: :meth:`_rows` of one kernel
        run's Fractions (see :func:`build_triangle`)."""
        return tuple(map(tuple, self._rows(_fractions)))

    def _rows(self, convert: Callable[..., list]) -> list[Iterator]:
        """The rows of the block, off the columns of one kernel run converted by ``convert``
        (:func:`~riordan.fixpoint._division_columns`): entry ``(n, k)`` is ``columns[k][n - k]``,
        and each row is gathered by one ``map``, with no per-entry Python frame."""
        columns = _division_columns(self.f, self.g, self.depth - 1, self.depth, convert)
        return [map(getitem, columns, range(n, -1, -1)) for n in range(self.depth)]

    def _cells(self) -> list[list[str]]:
        """The rows of ``str`` of the entries: of the built Fractions if ``entries`` has
        been read, so printing never runs the kernel again, and otherwise straight from one
        kernel run's integers (:func:`~riordan.series._strings`), with no Fraction built."""
        if "entries" in self.__dict__:
            return [list(map(str, row)) for row in self.entries]
        return list(map(list, self._rows(_strings)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return self.depth == other.depth and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.depth, self.entries))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def entry(self, n: int, k: int) -> Fraction:
        if not (0 <= n < self.depth and 0 <= k < self.depth):
            raise IndexError(f"entry ({n}, {k}) outside a depth-{self.depth} matrix")
        if k > n:
            return Fraction(0)
        return self.entries[n][k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        if not (0 <= n < self.depth):
            raise IndexError(f"row {n} outside a depth-{self.depth} matrix")
        return self.entries[n]

    def column_series(self, k: int) -> Series:
        """Column ``k`` read as a series (zeros above the diagonal)."""
        if not (0 <= k < self.depth):
            raise IndexError(f"column {k} outside a depth-{self.depth} matrix")
        return Series._of([self.entry(n, k) for n in range(self.depth)])

    # ------------------------------------------------------------------
    # the linear map and the group structure
    # ------------------------------------------------------------------
    def apply(self, h: Series) -> Series:
        """The matrix acting on a series: ``(f/g) * h(x/g)``, the product of the entry
        block with the coefficient vector of ``h``, truncated to degree ``depth - 1``.
        It reads only ``(f, g, depth)``: the sums run over the division kernel's integer
        columns (:func:`~riordan.fixpoint._apply`), so the entries are never built."""
        p = self.depth - 1
        if h.precision < p:
            raise PrecisionError(f"apply needs the argument at precision {p}")
        return _apply(self.f, self.g, (h,), p)[0]

    def product(self, other: RiordanMatrix) -> RiordanMatrix:
        """Group product ``T(f1 * f2(x/g1) | g1 * g2(x/g1))``, from the parameters of both
        operands: ``T(g1|g1)`` acts on ``h`` as ``h(x/g1)``, so one kernel run on ``g1``
        gives both substitutions (:func:`~riordan.fixpoint._apply`) and neither operand
        builds its entries."""
        if self.depth != other.depth:
            raise ValueError("product needs matrices of a common depth")
        p = self.depth - 1
        f2x, g2x = _apply(self.g, self.g, (other.f, other.g), p)
        return RiordanMatrix(self.f * f2x, self.g * g2x, self.depth)

    def __matmul__(self, other: RiordanMatrix) -> RiordanMatrix:
        return self.product(other)

    def inverse(self) -> RiordanMatrix:
        """Group inverse ``T(1/f(w) | 1/g(w))``, ``w`` the compositional
        inverse of ``x/g``.  Neither parameter is composed: both come off reversion's
        table of ``(1, w)`` (:func:`~riordan.reversion._inverse_parameters`).

        >>> print(build_triangle(Series.one(3), Series([1, -1], 3), 4).inverse().to_csv())
        1
        -1,1
        1,-2,1
        -1,3,-3,1
        """
        f_new, g_new = _inverse_parameters(self.f, self.g, self.depth - 1)
        return RiordanMatrix(f_new, g_new, self.depth)

    # ------------------------------------------------------------------
    # A/Z sequences
    # ------------------------------------------------------------------
    def a_z_sequences(self) -> SequencePair:
        """``A = 1/g(w)`` and ``Z = (A - (f0/g0)/f(w)) / x`` with ``w`` as in
        :meth:`inverse`: ``1/g(w) = x/w`` and ``(1/f)(w)`` come off the rows of ``(1, w)``,
        so neither is composed.  ``A`` comes back at precision ``depth - 1`` and
        ``Z`` one degree shorter (the division by ``x``)."""
        if self.depth < 2:
            raise ValueError("sequence extraction needs depth >= 2")
        f_inv, a_seq = _inverse_parameters(self.f, self.g, self.depth - 1)
        ratio = self.f.coefficient(0) / self.g.coefficient(0)
        numerator = a_seq - f_inv * ratio
        if numerator.coefficient(0) != 0:
            # provably zero; a nonzero value signals an upstream bug
            raise ArithmeticError("Z-sequence numerator has a nonzero constant term")
        return SequencePair(a_seq, numerator.shift(-1))

    def inverse_via_sequences(self) -> RiordanMatrix:
        """The inverse written with A and Z only:
        ``T((g0/f0)(A - x*Z) | A)``; equal to :meth:`inverse` entrywise."""
        pair = self.a_z_sequences()
        ratio = self.g.coefficient(0) / self.f.coefficient(0)
        f_new = (pair.a_seq - pair.z_seq.shift(1)) * ratio
        return build_triangle(f_new, pair.a_seq, self.depth)

    # ------------------------------------------------------------------
    # shifting columns in and out
    # ------------------------------------------------------------------
    def shift(self, m: int) -> RiordanMatrix:
        """``T(f * g**m | g)``: prepend ``m`` leading rows and columns when
        ``m >= 1`` (depth grows to ``depth + m``, which needs the parameter
        series at precision ``depth + m - 1``), delete the first ``|m|``
        when ``m <= -1``.  Entrywise the result is
        ``[x^(n-k)] f * g**(m-k-1)``.  One formula serves both signs, the new
        ``f = f * base**|m|`` with ``base`` ``g`` or ``1/g``, kept at ``min(f.precision,
        g.precision)``, all that the parameters know, so shifts round-trip."""
        if m == 0:
            return self
        new_depth = self.depth + m
        if new_depth < 1:
            raise DomainError(
                f"cannot delete {-m} leading rows/columns from depth {self.depth}"
            )
        p = min(self.f.precision, self.g.precision)
        if p < new_depth - 1:
            raise PrecisionError(
                f"prepending {m} columns needs parameters at precision {new_depth - 1}"
            )
        base = self.g if m > 0 else reciprocal(Series.one(p), self.g, p)
        return build_triangle(self.f * base ** abs(m), self.g, new_depth)

    # ------------------------------------------------------------------
    # classical-notation bridge
    # ------------------------------------------------------------------
    def to_classical(self) -> tuple[Series, Series]:
        """The classical pair ``(d, h)`` with ``d = f/g`` and ``h = x/g`` (column k is
        ``d * h**k``), both divided from the parameters: the entries are not built."""
        p = self.depth - 1
        return reciprocal(self.f, self.g, p), reciprocal(Series.one(p), self.g, p).shift(1)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "f": self.f.to_strings(),
            "g": self.g.to_strings(),
            "depth": self.depth,
            "rows": self._cells(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        return "\n".join(map(",".join, self._cells()))

    def to_pretty(self) -> str:
        cells = self._cells()
        width = max(len(c) for row in cells for c in row)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def build_triangle(f: Series, g: Series, depth: int) -> RiordanMatrix:
    """Materialise the ``depth x depth`` block of ``T(f|g)`` at once, by repeated
    division: column 0 is ``f/g`` and column ``k`` is ``x * column(k-1) / g``,
    all from one integer run of the kernel behind :func:`~riordan.fixpoint.reciprocal`
    (the tests compare them with the crossed iteration of
    :func:`riordan.fixpoint.column_scheme`).

    Both parameters need nonzero constant terms and precision at least
    ``depth - 1``, checked by the :class:`RiordanMatrix` constructor.
    """
    matrix = RiordanMatrix(f, g, depth)
    matrix.entries  # built now, not on first read
    return matrix


def _degree(depth: int) -> int:
    """``depth - 1``, the last degree a depth-``depth`` matrix reads, once
    ``depth`` is checked."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return depth - 1


def identity(depth: int) -> RiordanMatrix:
    """The identity matrix, ``T(1|1)``."""
    one = Series.one(_degree(depth))
    return build_triangle(one, one, depth)


def from_classical(d: Series, h: Series, depth: int) -> RiordanMatrix:
    """Build from the classical pair: column ``k`` generated by ``d * h**k``
    (``h`` must have order exactly 1).  Needs ``d`` at precision
    ``depth - 1`` and ``h`` at ``depth``."""
    p = _degree(depth)
    if h.order() != 1:
        raise DomainError("classical pair needs order(h) == 1")
    if d.precision < p or h.precision < p + 1:
        raise PrecisionError(
            f"classical construction at depth {depth} needs d at precision {p} and h at {p + 1}"
        )
    g = reciprocal(Series.one(p), h.shift(-1), p)  # x/h
    return build_triangle(d * g, g, depth)


def appell(d: Series, depth: int) -> RiordanMatrix:
    """Appell element ``T(d|1)``: the Toeplitz matrix of ``d``."""
    return build_triangle(d, Series.one(_degree(depth)), depth)


def bell(d: Series, depth: int) -> RiordanMatrix:
    """Bell element ``T(1|1/d)``: :func:`from_classical` of the pair ``(d, x*d)``."""
    return from_classical(d, d.shift(1), depth)


def associated(h: Series, depth: int) -> RiordanMatrix:
    """Associated (Lagrange) element ``T(1/h|1/h)``: :func:`from_classical` of the
    pair ``(1, x*h)``."""
    return from_classical(Series.one(_degree(depth)), h.shift(1), depth)


def from_json_dict(obj: dict) -> RiordanMatrix:
    """Rebuild a matrix from its JSON form.  Entries of ``f``, ``g`` and ``rows`` follow
    the CLI's literal rule (an integer, or a string with an exponent at most 4300 and no
    zero denominator); ``depth`` must be at least 1, ``rows`` must hold ``depth`` rows, row
    ``n`` of ``n + 1`` entries, and ``f`` and ``g`` at least ``depth`` coefficients with
    nonzero constant terms, all checked before the triangle is built; the rows must match it."""
    if not isinstance(obj, dict):
        raise ValueError(f"matrix JSON must be an object, not {type(obj).__name__}")
    for name in ("f", "g", "depth", "rows"):
        if name not in obj:
            raise ValueError(f"matrix JSON has no {name!r} field")
    depth = obj["depth"]
    if type(depth) is not int or depth < 1:  # bool is an int subclass, and not a depth
        raise ValueError(f"matrix JSON field 'depth' must be an integer, at least 1, not {depth!r}")
    for name in ("f", "g", "rows"):
        if not isinstance(obj[name], list):
            raise ValueError(f"matrix JSON field {name!r} must be a list, not {obj[name]!r}")
    if not all(isinstance(row, list) for row in obj["rows"]):
        raise ValueError("matrix JSON field 'rows' must be a list of lists")
    params = {k: [_literal(e, f"matrix JSON field {k!r}") for e in obj[k]] for k in ("f", "g")}
    rows = [[_literal(e, "matrix JSON field 'rows'") for e in row] for row in obj["rows"]]
    # the triangle costs O(depth**3): a stored block of the wrong shape is refused first
    if len(rows) != depth or any(len(row) != n + 1 for n, row in enumerate(rows)):
        raise ValueError(f"matrix JSON field 'rows' must hold {depth} rows, row n of n + 1 entries")
    for name, cs in params.items():
        if not cs or not cs[0]:
            raise ValueError(f"matrix JSON field {name!r} must start with a nonzero constant term")
        if len(cs) < depth:
            raise ValueError(f"matrix JSON field {name!r} must hold at least {depth} "
                             f"coefficients, not {len(cs)}")
    matrix = build_triangle(Series(params["f"]), Series(params["g"]), depth)
    if [list(row) for row in matrix.entries] != rows:
        raise ValueError("stored rows do not match the parameter series")
    return matrix
