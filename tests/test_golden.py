"""Bit-for-bit guard: the first ``quotients`` block of the benchmark at its
golden seed reproduces every pinned sha256 digest.

The block holds 32 jobs, ``reciprocal`` and ``build_triangle`` on sparse
and dense parameters at sizes spread over P = 32..94, so any change to a
division result fails here before the benchmark is run.
"""

import sys
from pathlib import Path

import riordan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def test_first_quotients_block_matches_the_golden_digests():
    golden = run.load_golden("quotients", run.DEFAULT_SEED)
    block = workloads.make_blocks("quotients", run.DEFAULT_SEED, 1)[0]
    assert len(block) == 32
    assert {job.kind for job in block} == {"reciprocal", "build_triangle"}
    runner = run.Runner(riordan, golden)
    for index, job in enumerate(block):
        runner.run(index, job)
    assert runner.failures == []
    assert runner.golden_checked == 32
