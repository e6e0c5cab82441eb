"""Bit-for-bit guard: the first ``quotients`` and ``reversion`` blocks of
the benchmark at its golden seed reproduce every pinned sha256 digest.

Each block holds 32 jobs on sparse and dense parameters: ``reciprocal`` and
``build_triangle`` at sizes spread over P = 32..94, and ``invert_series``
(P = 12..27) and ``verify_lagrange`` (n = 10..20).  So any change to a
division or reversion result fails here before the benchmark is run.
"""

import sys
from pathlib import Path

import riordan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def run_first_block(workload, kinds):
    golden = run.load_golden(workload, run.DEFAULT_SEED)
    block = workloads.make_blocks(workload, run.DEFAULT_SEED, 1)[0]
    assert len(block) == 32
    assert {job.kind for job in block} == kinds
    runner = run.Runner(riordan, golden)
    for index, job in enumerate(block):
        runner.run(index, job)
    assert runner.failures == []
    assert runner.golden_checked == 32


def test_first_quotients_block_matches_the_golden_digests():
    run_first_block("quotients", {"reciprocal", "build_triangle"})


def test_first_reversion_block_matches_the_golden_digests():
    run_first_block("reversion", {"invert_series", "verify_lagrange"})
