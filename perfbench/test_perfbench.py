"""Tests of the benchmark itself: job generation, trace patching, golden
digests and the repeatability of traced counts."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import riordan  # noqa: E402
import riordan.cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIZE_RANGES = {
    "reciprocal": workloads.QUOTIENT_P,
    "build_triangle": workloads.QUOTIENT_P,
    "invert_series": workloads.INVERT_P,
    "verify_lagrange": workloads.LAGRANGE_N,
    "cli": workloads.CLI_SIZE,
}


def _bindings():
    """Every name bound in a riordan module or a traced class."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "riordan" or module_name.startswith("riordan."):
            names.update({(module_name, k): v for k, v in vars(module).items()})
    for cls in (riordan.Series, riordan.RiordanMatrix):
        names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return names


def test_fixed_seed_gives_same_jobs():
    for workload in workloads.WORKLOADS:
        blocks = workloads.make_blocks(workload, 7, 3)
        assert blocks == workloads.make_blocks(workload, 7, 3)
        assert blocks[:2] == workloads.make_blocks(workload, 7, 2)
        assert blocks != workloads.make_blocks(workload, 8, 3)
        for job in (job for block in blocks for job in block):
            lo, hi = SIZE_RANGES[job.kind]
            assert lo <= job.size <= hi


def test_trace_wrappers_restore_every_patched_name():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {key for key in before if during[key] is not before[key]}
        for module in ("riordan", "riordan.fixpoint", "riordan.triangles",
                       "riordan.reversion", "riordan.cli"):
            assert (module, "reciprocal") in changed
        for module in ("riordan", "riordan.reversion", "riordan.triangles", "riordan.cli"):
            assert (module, "invert_series") in changed
        for _name, _module, class_name, attr in tracing.BOUNDARIES:
            if class_name:
                assert (class_name, attr) in changed
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_perturbed_output_trips_the_digest(monkeypatch):
    golden = run.load_golden("cli_mix", run.DEFAULT_SEED)
    jobs = workloads.make_blocks("cli_mix", run.DEFAULT_SEED, 1)[0][:3]
    runner = run.Runner(riordan, golden)
    for index, job in enumerate(jobs):
        assert runner.run(index, job) is not None
    assert runner.golden_checked == 3 and not runner.failures

    # a trailing blank still parses and passes every identity check,
    # so only the digest can catch it
    real = workloads.run_cli
    monkeypatch.setattr(workloads, "run_cli",
                        lambda rd, argv: (lambda code, out: (code, out + " "))(*real(rd, argv)))
    for index, job in enumerate(jobs):
        assert runner.run(index, job) is None
    assert len(runner.failures) == 3
    assert all("golden digest" in failure for failure in runner.failures)


def _small_jobs():
    sparse = (Fraction(1), Fraction(-1), Fraction(0), Fraction(-1))
    dense = (Fraction(1, 3), Fraction(-2), Fraction(3, 2), Fraction(2, 3))
    omega = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3))
    jobs = [
        workloads.Job("reciprocal", 12, (sparse, dense)),
        workloads.Job("build_triangle", 10, (dense, sparse), 4),
        workloads.Job("invert_series", 8, (omega,)),
        workloads.Job("verify_lagrange", 6, (omega,)),
    ] + workloads.warmup_jobs("cli_mix")
    return list(enumerate(jobs))


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        runner = run.Runner(riordan, None)
        _tracer, values = run.traced_pass(runner, _small_jobs())
        assert not runner.failures
        assert set(values) == {name for name, _unit in tracing.PER_LAYER}
        counts.append({k: v for k, v in values.items()
                       if k.endswith((".calls", "coeff_products", "out_bits.max", "_calls"))})
    assert counts[0] == counts[1]
    for layer in ("series.mul", "fixpoint.reciprocal", "triangles.build_triangle",
                  "triangles.inverse", "reversion.invert_series", "cli.main", "cli.parse"):
        assert counts[0][f"{layer}.calls"] > 0
