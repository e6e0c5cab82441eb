"""Spans around the library's public boundaries, patched in from outside.

The library binds names across modules (``from .fixpoint import
reciprocal`` and the like), so each wrapper replaces every binding of the
original function in every loaded ``riordan`` module, and :meth:`Tracer.restore`
puts each one back.  Spans are kept in memory as
``[name, parent, job, start_ns, end_ns]``; a span's id is its index.
"""

from __future__ import annotations

import functools
import json
import sys
from itertools import accumulate
from time import perf_counter_ns

__all__ = ["BOUNDARIES", "PER_LAYER", "Tracer", "layer_metrics"]

# (boundary, module, class or None, attribute)
BOUNDARIES = (
    ("series.mul", "riordan.series", "Series", "__mul__"),
    ("series.mul", "riordan.series", "Series", "__rmul__"),
    ("series.compose", "riordan.series", "Series", "compose"),
    ("series.pow", "riordan.series", "Series", "__pow__"),
    ("fixpoint.reciprocal", "riordan.fixpoint", None, "reciprocal"),
    ("fixpoint.iterate_crossed", "riordan.fixpoint", None, "iterate_crossed"),
    ("triangles.build_triangle", "riordan.triangles", None, "build_triangle"),
    ("triangles.product", "riordan.triangles", "RiordanMatrix", "product"),
    ("triangles.inverse", "riordan.triangles", "RiordanMatrix", "inverse"),
    ("triangles.a_z_sequences", "riordan.triangles", "RiordanMatrix", "a_z_sequences"),
    ("reversion.invert_series", "riordan.reversion", None, "invert_series"),
    ("reversion.verify_lagrange", "riordan.reversion", None, "verify_lagrange"),
    ("cli.parse", "riordan.cli", None, "parse_series_arg"),
    ("cli.render", "riordan.cli", None, "render_series"),
    ("cli.render", "riordan.cli", None, "render_matrix"),
    ("cli.render", "riordan.cli", None, "render_trace"),
    ("cli.render", "riordan.cli", None, "render_pair"),
    ("cli.main", "riordan.cli", None, "main"),
)

_NAMES = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))

# every per-layer metric with its unit, in report order
PER_LAYER = tuple(
    [(f"{b}.{m}", unit) for b in _NAMES for m, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("series.mul.coeff_products", "count"),
        ("series.mul.ns_per_coeff_product", "ns"),
        ("series.out_bits.max", "bits"),
        ("fixpoint.reciprocal.child_mul_calls", "count"),
        ("reversion.invert_series.child_compose_calls", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def coeff_products(a, b) -> int:
    """Nonzero coefficient pairs ``i + j <= p`` of ``a * b``, from the operands.

    A scalar ``b`` counts as a constant series; ``p`` is the precision of
    the product.
    """
    ca = a.coefficients
    if hasattr(b, "coefficients"):
        cb = b.coefficients
        p = min(len(ca), len(cb)) - 1
    else:
        cb = (b,)
        p = len(ca) - 1
    nonzero_b = list(accumulate(1 if c else 0 for c in cb[: p + 1]))
    last = len(nonzero_b) - 1
    return sum(nonzero_b[min(p - i, last)] for i, c in enumerate(ca[: p + 1]) if c)


def out_bits(result) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    cs = getattr(result, "coefficients", ())
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in cs), default=0)


class Tracer:
    """Records spans and counters while ``active``; passes calls through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self.active = False
        self.coeff_products = 0
        self.out_bits = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _count_products(self, a, b, *_):
        self.coeff_products += coeff_products(a, b)

    def _note_bits(self, result):
        self.out_bits = max(self.out_bits, out_bits(result))

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            span = [name, stack[-1] if stack else -1, self.job, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Patch a wrapper over every binding of every boundary."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "riordan" or n.startswith("riordan.")]
        for name, module_name, class_name, attr in BOUNDARIES:
            home = sys.modules[module_name]
            if class_name:
                owner = getattr(home, class_name)
                original = owner.__dict__[attr]
                targets = [owner]
            else:
                original = getattr(home, attr)
                targets = [m for m in modules if vars(m).get(attr) is original]
            before = self._count_products if name == "series.mul" else None
            after = self._note_bits if name.startswith("series.") else None
            wrapper = self._wrap(name, original, before, after)
            for target in targets:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Put back every name :meth:`install` replaced."""
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, after a header naming the fields."""
        with open(path, "w") as out:
            out.write(json.dumps(["id", "name", "parent", "job", "start_ns", "end_ns"]) + "\n")
            for i, span in enumerate(self.spans):
                out.write(json.dumps([i] + span) + "\n")


def _under(spans, i: int, ancestor: str) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-boundary calls and self time, plus the derived counts.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, parent, _job, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = dict.fromkeys(_NAMES, 0)
    self_ns = dict.fromkeys(_NAMES, 0)
    for i, (name, _parent, _job, start, end) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
    metrics: dict[str, float] = {}
    for name in _NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_ms"] = self_ns[name] / 1e6
    products = tracer.coeff_products
    metrics["series.mul.coeff_products"] = products
    metrics["series.mul.ns_per_coeff_product"] = self_ns["series.mul"] / products if products else 0.0
    metrics["series.out_bits.max"] = tracer.out_bits
    metrics["fixpoint.reciprocal.child_mul_calls"] = sum(
        1 for i, s in enumerate(spans) if s[0] == "series.mul" and _under(spans, i, "fixpoint.reciprocal"))
    metrics["reversion.invert_series.child_compose_calls"] = sum(
        1 for i, s in enumerate(spans) if s[0] == "series.compose" and _under(spans, i, "reversion.invert_series"))
    return metrics
