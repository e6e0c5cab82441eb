"""Riordan matrices: lower-triangular arrays built from a pair of series.

``T(f|g)`` (with ``f0 != 0`` and ``g0 != 0``) is the matrix whose column
``k``, read as a series, is ``x**k * f / g**(k+1)``.  Column 0 is the
quotient ``f/g`` and column ``k`` is ``x * column(k-1) / g``, so the whole
matrix is repeated division: every column goes through the one kernel
:func:`riordan.fixpoint.reciprocal`.

These matrices form a group under matrix product (the Riordan group),
closed in parameter form:

    product:  ``T(f1|g1) T(f2|g2) = T(f1 * f2(x/g1) | g1 * g2(x/g1))``
    inverse:  ``T(f|g)^-1 = T(1/f(w) | 1/g(w))`` with ``w`` the
              compositional inverse of ``x/g``

The inverse is also expressible through the classical A- and Z-sequences,
and multiplying the first parameter by powers of ``g`` prepends or deletes
leading rows and columns; both are provided here as operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .fixpoint import reciprocal
from .reversion import invert_series
from .series import DomainError, PrecisionError, Series

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
    """A materialised ``depth x depth`` block of ``T(f|g)``.

    Equality compares the entry blocks (and depth): parameter series of
    different precisions describing the same matrix compare equal.
    Use :func:`build_triangle` to construct.
    """

    f: Series
    g: Series
    depth: int
    entries: tuple[tuple[Fraction, ...], ...]

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def entry(self, n: int, k: int) -> Fraction:
        if not (0 <= n < self.depth) or k < 0:
            raise IndexError(f"entry ({n}, {k}) outside a depth-{self.depth} matrix")
        if k > n:
            return Fraction(0)
        return self.entries[n][k]

    def row(self, n: int) -> tuple[Fraction, ...]:
        return self.entries[n]

    def column_series(self, k: int) -> Series:
        """Column ``k`` read as a series (zeros above the diagonal)."""
        if not (0 <= k < self.depth):
            raise IndexError(f"column {k} outside a depth-{self.depth} matrix")
        return Series([self.entry(n, k) for n in range(self.depth)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        return self.depth == other.depth and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.depth, self.entries))

    def __repr__(self) -> str:
        return f"RiordanMatrix(f={self.f!r}, g={self.g!r}, depth={self.depth})"

    # ------------------------------------------------------------------
    # the linear map and the group structure
    # ------------------------------------------------------------------
    def apply(self, h: Series) -> Series:
        """The matrix acting on a series: ``(f/g) * h(x/g)``.

        Equals the matrix-vector product of the entry block with the
        coefficient vector of ``h``, truncated to degree ``depth - 1``.
        """
        p = self.depth - 1
        if h.precision < p:
            raise PrecisionError(f"apply needs the argument at precision {p}")
        d, x_over_g = self.to_classical()
        return d * h.compose(x_over_g)

    def product(self, other: RiordanMatrix) -> RiordanMatrix:
        """Group product, computed on the parameters (not the entries)."""
        if self.depth != other.depth:
            raise ValueError("product needs matrices of a common depth")
        p = self.depth - 1
        omega = _inv(self.g, p).shift(1)  # x/g1
        f_new = self.f.truncate(p) * other.f.compose(omega)
        g_new = self.g.truncate(p) * other.g.compose(omega)
        return build_triangle(f_new, g_new, self.depth)

    def __matmul__(self, other: RiordanMatrix) -> RiordanMatrix:
        return self.product(other)

    def inverse(self) -> RiordanMatrix:
        """Group inverse ``T(1/f(w) | 1/g(w))``, ``w`` the compositional
        inverse of ``x/g`` (computed by the reversion iteration)."""
        f_new, g_new = self._inverse_parameters()
        return build_triangle(f_new, g_new, self.depth)

    def _inverse_parameters(self) -> tuple[Series, Series]:
        """``(1/f(w), 1/g(w))``, ``w`` the compositional inverse of ``x/g``."""
        p = self.depth - 1
        w = invert_series(_inv(self.g, p).shift(1), p)
        return _inv(self.f.compose(w), p), _inv(self.g.compose(w), p)

    # ------------------------------------------------------------------
    # A/Z sequences
    # ------------------------------------------------------------------
    def a_z_sequences(self) -> SequencePair:
        """``A = 1/g(w)`` and ``Z = (A - (f0/g0)/f(w)) / x`` with ``w`` as in
        :meth:`inverse`.  ``A`` comes back at precision ``depth - 1`` and
        ``Z`` one degree shorter (the division by ``x``)."""
        if self.depth < 2:
            raise ValueError("sequence extraction needs depth >= 2")
        f_inv, a_seq = self._inverse_parameters()
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
        ``[x^(n-k)] f * g**(m-k-1)``."""
        if m == 0:
            return self
        new_depth = self.depth + m
        if new_depth < 1:
            raise DomainError(
                f"cannot delete {-m} leading rows/columns from depth {self.depth}"
            )
        if m > 0:
            needed = new_depth - 1
            if self.f.precision < needed or self.g.precision < needed:
                raise PrecisionError(
                    f"prepending {m} columns needs parameters at precision {needed}"
                )
            f_new = self.f * self.g ** m
        else:
            # divide at the full available precision so a later prepend
            # can round-trip the deletion
            available = min(self.f.precision, self.g.precision)
            f_new = reciprocal(self.f, self.g ** (-m), available)
        return build_triangle(f_new, self.g, new_depth)

    # ------------------------------------------------------------------
    # classical-notation bridge
    # ------------------------------------------------------------------
    def to_classical(self) -> tuple[Series, Series]:
        """The classical pair ``(d, h)`` with ``d = f/g`` (column-0
        generating function) and ``h = x/g`` (column k is ``d * h**k``)."""
        p = self.depth - 1
        inv_g = _inv(self.g, p)
        return self.f.truncate(p) * inv_g, inv_g.shift(1)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "f": self.f.to_strings(),
            "g": self.g.to_strings(),
            "depth": self.depth,
            "rows": [[str(e) for e in row] for row in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(e) for e in row) for row in self.entries)

    def to_pretty(self) -> str:
        cells = [[str(e) for e in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def build_triangle(f: Series, g: Series, depth: int) -> RiordanMatrix:
    """Materialise the ``depth x depth`` block of ``T(f|g)`` by repeated
    division: column 0 is ``f/g`` and column ``k`` is ``x * column(k-1) / g``,
    each from :func:`riordan.fixpoint.reciprocal` (the tests compare them
    with the crossed iteration of :func:`riordan.fixpoint.column_scheme`).

    Both parameters need nonzero constant terms and precision at least
    ``depth - 1``; the division kernel enforces the conditions on ``g``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if f.coefficient(0) == 0:
        raise DomainError("division domain error: f must have a nonzero constant term")
    p = depth - 1
    columns = [reciprocal(f, g, p)]
    for _ in range(1, depth):
        columns.append(reciprocal(columns[-1].shift(1).truncate(p), g, p))
    rows = tuple(
        tuple(columns[k].coefficients[n] for k in range(n + 1)) for n in range(depth)
    )
    return RiordanMatrix(f, g, depth, rows)


def _inv(s: Series, p: int) -> Series:
    """``1/s`` through degree ``p``."""
    return reciprocal(Series.one(p), s, p)


def identity(depth: int) -> RiordanMatrix:
    """The identity matrix, ``T(1|1)``."""
    one = Series.one(depth - 1)
    return build_triangle(one, one, depth)


def from_classical(d: Series, h: Series, depth: int) -> RiordanMatrix:
    """Build from the classical pair: column ``k`` generated by ``d * h**k``
    (``h`` must have order exactly 1).  Needs ``d`` at precision
    ``depth - 1`` and ``h`` at ``depth``."""
    if h.order() != 1:
        raise DomainError("classical pair needs order(h) == 1")
    p = depth - 1
    if d.precision < p or h.precision < p + 1:
        raise PrecisionError(
            f"classical construction at depth {depth} needs d at precision {p} and h at {p + 1}"
        )
    shifted = h.shift(-1)  # h/x, nonzero constant
    f = reciprocal(d, shifted, p)
    g = _inv(shifted, p)
    return build_triangle(f, g, depth)


def appell(d: Series, depth: int) -> RiordanMatrix:
    """Appell element ``T(d|1)``: the Toeplitz matrix of ``d``."""
    return build_triangle(d, Series.one(depth - 1), depth)


def bell(d: Series, depth: int) -> RiordanMatrix:
    """Bell element ``T(1|1/d)`` for the classical pair ``(d, x*d)``."""
    p = depth - 1
    return build_triangle(Series.one(p), _inv(d, p), depth)


def associated(h: Series, depth: int) -> RiordanMatrix:
    """Associated (Lagrange) element ``T(1/h|1/h)`` for the classical
    pair ``(1, x*h)``."""
    r = _inv(h, depth - 1)
    return build_triangle(r, r, depth)


def from_json_dict(obj: dict) -> RiordanMatrix:
    """Rebuild a matrix from its JSON form, validating the stored rows."""
    f = Series(obj["f"])
    g = Series(obj["g"])
    depth = int(obj["depth"])
    matrix = build_triangle(f, g, depth)
    rows = [[Fraction(e) for e in row] for row in obj["rows"]]
    if [list(row) for row in matrix.entries] != rows:
        raise ValueError("stored rows do not match the parameter series")
    return matrix
