"""A seeded sweep of the public operations over named input families, each family's
outputs pinned by the sha256 of one canonical text.

Every family draws its cases ``(f, g, h, depth)`` from its own seed at each depth of
``DEPTHS`` (and at its one larger depth): ``f`` and ``g`` at precision ``depth``, one
degree past what a depth-``depth`` matrix reads, so that ``shift(1)`` and the classical
pairs have what they need, and ``h`` at precision ``depth - 1``.  :func:`outputs` runs
every operation on a case and :func:`canonical_text` joins a family's outputs, so a
pinned digest fixes every result of the sweep to the last digit.

``tests/test_sweep.py`` recomputes each digest in tier-1.  Run as a script, this module
prints one line per family, its name and its sha256: regenerate ``SWEEP_DIGESTS`` that
way only together with a deliberate change of the generator, as with
``perfbench/golden.json``.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from riordan.fixpoint import reciprocal
from riordan.reversion import invert_series, lagrange_coefficient, verify_lagrange
from riordan.series import Series
from riordan.triangles import RiordanMatrix, associated, bell, build_triangle, from_classical

DEPTHS = tuple(range(1, 31))


class Case(NamedTuple):
    f: Series
    g: Series
    h: Series
    depth: int


class Family(NamedTuple):
    name: str
    seed: int
    large: int  # the one depth past DEPTHS, 60..80
    params: Callable[[random.Random, int], tuple[Series, Series]]  # (f, g) at a precision


def _small(rng: random.Random, maxden: int = 3, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-4, 4), rng.randint(1, maxden))
        if value or not nonzero:
            return value


def _dense(rng: random.Random, p: int, maxden: int = 3) -> Series:
    return Series([_small(rng, maxden, nonzero=True)] + [_small(rng, maxden) for _ in range(p)])


def _reciprocal(q: Series, p: int) -> Series:
    """``1/q`` read dense through ``p`` (``q.precision <= p``)."""
    return reciprocal(Series.one(p), q.pad(p), p)


def sparse(rng: random.Random, p: int) -> tuple[Series, Series]:
    """Small-integer ``f`` and ``g``, ``g0 = 1`` and two or three more terms below degree 5."""
    g = [1] + [0] * 4
    for j in rng.sample(range(1, 5), rng.randint(2, 3)):
        g[j] = rng.choice((-2, -1, 1, 2, 3))
    f = [rng.choice((1, 2, -1))] + [rng.randint(-2, 2) for _ in range(3)]
    return Series(f, p), Series(g, p)


def gapped(rng: random.Random, p: int) -> tuple[Series, Series]:
    """Rational ``g`` with zeros inside: terms at degrees ``0, 2, 3`` and ``7``, whose
    taps have no common base, so the kernel's scale takes its window path."""
    g = [_small(rng, 2, nonzero=True), 0, _small(rng, 3, nonzero=True),
         _small(rng, 5, nonzero=True), 0, 0, 0, _small(rng, 7, nonzero=True)]
    return _dense(rng, p), Series(g, p)


def dense_growing(rng: random.Random, p: int) -> tuple[Series, Series]:
    """Dense ``g`` whose coefficient ``g_j`` has a denominator up to ``j + 1``."""
    g = [_small(rng, 2, nonzero=True)] + [
        Fraction(rng.randint(-3, 3), rng.randint(1, j + 1)) for j in range(1, p + 1)]
    return _dense(rng, p), Series(g)


def short_reciprocal(rng: random.Random, p: int) -> tuple[Series, Series]:
    """``g = 1/q`` read dense for a three-term ``q``, the ``g`` of ``bell(q)``: its
    ``1/g`` is short, so the group inverse fills the table on the omega side."""
    q = Series([1, _small(rng, 3), _small(rng, 3, nonzero=True)], p)
    return _dense(rng, p), _reciprocal(q, p)


def presets(rng: random.Random, p: int) -> tuple[Series, Series]:
    """The CLI presets ``geometric = 1/(1-x)`` and ``arithgeo = 1/(1-x)**2``, with ``1``."""
    geometric, arithgeo = Series([1] * (p + 1)), Series(range(1, p + 2))
    return rng.choice((Series.one(p), geometric, arithgeo)), rng.choice((geometric, arithgeo))


def negative_g0(rng: random.Random, p: int) -> tuple[Series, Series]:
    """``g0`` of -1, -2 or -3/2 (in turn with the depth), the rest small and rational:
    the sign of ``g0`` goes to the kernel's ``b``."""
    g0 = (Fraction(-1), Fraction(-2), Fraction(-3, 2))[p % 3]
    g = [g0] + [_small(rng, 3) if rng.random() < 0.6 else 0 for _ in range(min(p, 6))]
    return _dense(rng, p, 2), Series(g, p)


def products(rng: random.Random, p: int) -> tuple[Series, Series]:
    """The parameters of a product ``T1 @ T2``, or of a chained ``T1 @ T2 @ T3``."""
    depth = p + 1
    factors = [RiordanMatrix(*sparse(rng, p), depth), RiordanMatrix(*gapped(rng, p), depth)]
    if p % 2:
        factors.append(RiordanMatrix(*negative_g0(rng, p), depth))
    product = factors[0]
    for factor in factors[1:]:
        product = product @ factor
    return product.f, product.g


def omegas(rng: random.Random, p: int) -> tuple[Series, Series]:
    """``g = x/omega`` for an ``omega`` that fills either side of the table of
    ``(1, T)``: a short ``omega`` with a gap (the omega side), or ``x/q`` read dense
    for a short ``q`` with growing denominators (the g side)."""
    if p % 2:
        omega_over_x = Series([_small(rng, 3, nonzero=True), 0, _small(rng, 4), _small(rng, 5)], p)
        return _dense(rng, p), _reciprocal(omega_over_x, p)
    q = Series([_small(rng, 2, nonzero=True), _small(rng, 3), _small(rng, 5, nonzero=True)], p)
    return _dense(rng, p), q


FAMILIES = (
    Family("sparse", 101, 80, sparse),
    Family("gapped", 102, 64, gapped),
    Family("dense_growing", 103, 60, dense_growing),
    Family("short_reciprocal", 104, 64, short_reciprocal),
    Family("presets", 105, 80, presets),
    Family("negative_g0", 106, 72, negative_g0),
    Family("products", 107, 60, products),
    Family("omegas", 108, 64, omegas),
)


def cases(family: Family) -> Iterator[Case]:
    rng = random.Random(family.seed)
    for depth in DEPTHS + (family.large,):
        f, g = family.params(rng, depth)
        h = Series([_small(rng) if rng.random() < 0.7 else 0 for _ in range(depth)])
        yield Case(f, g, h, depth)


def _text(value: object) -> str:
    if isinstance(value, Series):
        return ",".join(value.to_strings())
    if isinstance(value, RiordanMatrix):
        return ";".join(",".join(map(str, row)) for row in value.entries)
    return str(value)


def outputs(case: Case) -> Iterator[tuple[str, object]]:
    """``(name, result)`` for every operation of the sweep on ``case``."""
    f, g, h, depth = case
    p = depth - 1
    matrix = build_triangle(f, g, depth)
    yield "entries", matrix
    yield "reciprocal", reciprocal(f, g, p)
    yield "apply", matrix.apply(h)
    yield "product", matrix @ RiordanMatrix(g, f, depth)
    yield "inverse", matrix.inverse()
    if depth >= 2:
        pair = matrix.a_z_sequences()
        yield "a_seq", pair.a_seq
        yield "z_seq", pair.z_seq
        yield "inverse_via_sequences", matrix.inverse_via_sequences()
        yield "shift-1", matrix.shift(-1)
    yield "shift+1", matrix.shift(1)
    yield from zip(("d", "h"), matrix.to_classical())
    yield "from_classical", from_classical(f, g.shift(1), depth)
    yield "bell", bell(f, depth)
    yield "associated", associated(g, depth)
    for side, omega in (("x*g", g.shift(1)), ("x/g", _reciprocal(g, depth).shift(1))):
        yield f"invert {side}", invert_series(omega, p)
        yield f"lagrange {side}", verify_lagrange(omega, p).to_json_dict()
    yield "lagrange_coefficient", [lagrange_coefficient(g, depth, k) for k in range(1, depth + 1)]


def canonical_text(family: Family) -> str:
    lines = []
    for case in cases(family):
        lines.append(f"depth {case.depth} f {_text(case.f)} g {_text(case.g)} h {_text(case.h)}")
        lines += [f"  {name} {_text(value)}" for name, value in outputs(case)]
    return "\n".join(lines) + "\n"


def digest(family: Family) -> str:
    return hashlib.sha256(canonical_text(family).encode()).hexdigest()


SWEEP_DIGESTS = {
    "sparse": "54fe43a6563239ec04de5c202b25ddaadf3dac57d07486cc557a14235a868ed6",
    "gapped": "397d15ffd15eca0711a9ee3355b7dbe5ce86f697145b08fe1efe1c020b1e504d",
    "dense_growing": "0506a44651afbdfbd71206c33f5e6132d75de5f459254dfdc31d440821408137",
    "short_reciprocal": "e168d44d38ed6162a1a37463b9f9afe10ee38ddce8d5eee7366842f1ea8a383d",
    "presets": "c7ad50d7f707cd59c05f3858ce8c9091ef6e92407cc73a0a879f53fe2ccab632",
    "negative_g0": "695847c03add2a3e16bbac769319440c15f626c7fc921b675a4d9fbbbf3f0a6f",
    "products": "3098089f95d00d30dbbc6f273de7e0547a624d6287d9c15604e3e468d57534fc",
    "omegas": "06b68d5b954422821cddeeb217cdc0f227aa351f4093b997b2e75a882ddfe7b6",
}


if __name__ == "__main__":
    for family in FAMILIES:
        print(family.name, digest(family))
