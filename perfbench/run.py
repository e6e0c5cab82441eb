"""Exact-series benchmark: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload quotients --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The library is imported from ``src/`` beside this directory, so the run
measures the sources of the checkout it sits in.  Each job starts only
after the previous one has finished and been checked; checks are not
timed.

``--trace 0`` times jobs untraced for ``--seconds`` (always whole blocks,
and at least enough jobs to leave ten above the 90th percentile) and
reports the end-to-end metrics.  Their times are calibrated: the speed of
a shared host drifts by up to 2x within seconds, so before each job the
run also times a fixed calibration kernel (the benchmark's own exact
Fraction product, which no change to the library can move) and scales the
job's wall time to the speed at which that kernel takes ``CAL_MS``.  The
report prints the raw wall times beside the calibrated ones.  ``--trace 1`` runs a fixed prefix of the
job stream untraced and then traced, writes the spans under
``perfbench/out/`` and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every job passed its check and, at the golden seed, its digest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_JOBS = 100                # leaves >= 10 samples above the 90th percentile
MAX_BLOCKS = {"quotients": 32, "reversion": 32, "cli_mix": 256}
TRACE_BLOCKS = {"quotients": 1, "reversion": 2, "cli_mix": 8}
GOLDEN_BLOCKS = {"quotients": 8, "reversion": 16, "cli_mix": 48}
CAL_MS = 2.5                  # kernel time that calibrated times are scaled to
CAL_WINDOW = 1                # kernel samples each side of a job that set its scale


def _calibration_inputs() -> tuple[list[Fraction], list[Fraction]]:
    rng = random.Random(0)
    return tuple([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(36)] for _ in range(2))


CAL_INPUTS = _calibration_inputs()

END_TO_END = (
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_library():
    """Import ``riordan`` (and ``riordan.cli``) afresh from ``SRC``."""
    if not (SRC / "riordan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no riordan package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "riordan" or n.startswith("riordan.")]:
        del sys.modules[name]
    rd = importlib.import_module("riordan")
    importlib.import_module("riordan.cli")
    if Path(rd.__file__).resolve().parent != (SRC / "riordan").resolve():
        raise SystemExit(f"perfbench: riordan was imported from {rd.__file__}, not {SRC}")
    return rd


def calibrate() -> float:
    """Time one run of the calibration kernel, in ms."""
    a, b = CAL_INPUTS
    start = perf_counter_ns()
    workloads.truncated_product(a, b, len(a) - 1)
    return (perf_counter_ns() - start) / 1e6


def calibrated(raw: list[float], cal: list[float]) -> list[float]:
    """Scale each raw time by CAL_MS over the median kernel time around it."""
    return [
        t * CAL_MS / statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, t in enumerate(raw)
    ]


def set_up(workload: str, seed: int):
    """Import, generate the inputs and warm up; returns (rd, blocks, seconds)."""
    start = perf_counter()
    rd = import_library()
    blocks = workloads.make_blocks(workload, seed, MAX_BLOCKS[workload])
    for job in workloads.warmup_jobs(workload):
        call, _check = workloads.prepare(job, rd)
        call()
    return rd, blocks, perf_counter() - start


def load_golden(workload: str, seed: int) -> list[str] | None:
    """The golden digests for ``workload``, or None when ``seed`` has none."""
    golden = json.loads(GOLDEN.read_text())
    if seed != golden["seed"]:
        return None
    return golden["digests"][workload]


class Runner:
    """Runs jobs one at a time, timing each call and checking each result."""

    def __init__(self, rd, golden: list[str] | None):
        self.rd = rd
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.golden_checked = 0

    def run(self, index: int, job: workloads.Job, tracer: tracing.Tracer | None = None) -> int | None:
        """Run job ``index``; returns its wall time in ns, or None if it failed."""
        self.attempted += 1
        call, check = workloads.prepare(job, self.rd)
        if tracer is not None:
            tracer.job, tracer.active = index, True
        start = perf_counter_ns()
        try:
            result = call()
        except Exception:
            return self._fail(index, job, traceback.format_exc(limit=3))
        finally:
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.active = False
        try:
            output = check(result)
        except Exception:
            return self._fail(index, job, traceback.format_exc(limit=3))
        if self.golden is not None and index < len(self.golden):
            self.golden_checked += 1
            if hashlib.sha256(output).hexdigest() != self.golden[index]:
                return self._fail(index, job, "output differs from the golden digest")
        return elapsed

    def _fail(self, index: int, job: workloads.Job, why: str) -> None:
        self.failures.append(f"job {index} ({job.kind}, size {job.size}): {why}")
        return None


def numbered(blocks):
    """Each block as a list of (index in the job stream, job)."""
    index = 0
    for block in blocks:
        yield [(index + i, job) for i, job in enumerate(block)]
        index += len(block)


def timed_run(runner: Runner, blocks, seconds: float) -> tuple[list[float], list[float]]:
    """Closed loop over whole blocks; returns the raw job times and the
    kernel time measured just before each job, both in ms."""
    times: list[float] = []
    cal: list[float] = []
    start = perf_counter()
    for block in numbered(blocks):
        for index, job in block:
            kernel_ms = calibrate()
            ns = runner.run(index, job)
            if ns is not None:
                times.append(ns / 1e6)
                cal.append(kernel_ms)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(times) >= MIN_JOBS) or elapsed >= 2 * seconds:
            break
    return times, cal


def summarise(times: list[float]) -> tuple[float, float, float, int]:
    """(p50, p90, jobs per second, samples above p90) of job times in ms."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    above = sum(1 for t in times if t > p90)
    return statistics.median(times), p90, 1000 * len(times) / sum(times), above


def end_to_end(raw: list[float], cal: list[float], setups: list[float],
               setup_cal: list[float]) -> tuple[dict, list[str]]:
    p50, p90, rate, above = summarise(calibrated(raw, cal))
    raw_p50, raw_p90, raw_rate, _ = summarise(raw)
    setup = statistics.median(calibrated(setups, setup_cal))
    values = {
        "job_ms.p50": p50,
        "job_ms.p90": p90,
        "jobs_per_s": rate,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "job_ms.p50": f"median of {len(raw)} jobs; raw wall {raw_p50:.6g} ms",
        "job_ms.p90": f"{len(raw)} jobs, {above} above; raw wall {raw_p90:.6g} ms",
        "jobs_per_s": f"{len(raw)} jobs in {sum(raw) / 1000:.3f} s of job time; raw {raw_rate:.6g} 1/s",
        "setup_s": f"median of {len(setups)} set-ups; raw wall {statistics.median(setups):.6g} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"calibration kernel: median {statistics.median(cal):.4g} ms over {len(cal)} samples, "
          f"scaled to {CAL_MS} ms")
    if above < 10:
        print(f"warning: only {above} samples above job_ms.p90", file=sys.stderr)
    return values, [notes[name] for name, _unit in END_TO_END]


def traced_pass(runner: Runner, jobs) -> tuple[tracing.Tracer, dict]:
    """Run each job untraced and then traced, back to back so both see the
    same process state; returns the tracer and the per-layer metrics."""
    untraced = traced = 0
    tracer = tracing.Tracer()
    for index, job in jobs:
        untraced += runner.run(index, job) or 0
        tracer.install()
        try:
            traced += runner.run(index, job, tracer) or 0
        finally:
            tracer.restore()
    values = tracing.layer_metrics(tracer)
    values["trace.overhead_ratio"] = traced / untraced
    return tracer, values


def trace_run(runner: Runner, blocks, workload: str, seed: int) -> tuple[dict, list[str]]:
    """The traced pass over a fixed job prefix; writes the spans out."""
    jobs = [pair for block in numbered(blocks[: TRACE_BLOCKS[workload]]) for pair in block]
    tracer, values = traced_pass(runner, jobs)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans_{workload}_seed{seed}.jsonl"
    tracer.write(spans_file)
    print(f"{len(jobs)} jobs, each run untraced and traced; "
          f"{len(tracer.spans)} spans written to {spans_file.relative_to(HERE.parent)}")
    notes = dict.fromkeys((name for name, _unit in tracing.PER_LAYER), "")
    notes["series.mul.coeff_products"] = "computed from the operands"
    notes["trace.overhead_ratio"] = "traced / untraced job time"
    return values, [notes[name] for name, _unit in tracing.PER_LAYER]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    repeats = 1 if trace else SETUP_REPEATS
    setups, setup_cal = [], []
    for _ in range(repeats):
        rd, blocks, setup_s = set_up(workload, seed)
        setups.append(setup_s)
        setup_cal.append(statistics.median(calibrate() for _ in range(5)))
    runner = Runner(rd, load_golden(workload, seed))
    start = perf_counter()
    units = tracing.PER_LAYER if trace else END_TO_END
    try:
        if trace:
            values, notes = trace_run(runner, blocks, workload, seed)
        else:
            values, notes = end_to_end(*timed_run(runner, blocks, seconds), setups, setup_cal)
    except (statistics.StatisticsError, ZeroDivisionError):
        values = None  # too few jobs succeeded to give a metric
    wall = perf_counter() - start
    failed = len(runner.failures)
    for failure in runner.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if values is None:
        raise SystemExit(f"perfbench: {failed} of {runner.attempted} jobs failed; no metrics")
    golden = (f"{runner.golden_checked} outputs compared with golden digests" if runner.golden is not None
              else f"no golden digests for seed {seed}; identity checks only")
    print(f"perfbench {workload} seed={seed} trace={int(trace)}: {runner.attempted} jobs, "
          f"{failed} failed, {wall:.1f} s; {golden}")
    print(f"  {'fail_ratio':<46} {failed / runner.attempted:<14.6g} {'':<6} "
          f"({failed} of {runner.attempted} jobs)")
    for (name, unit), note in zip(units, notes):
        print(f"  {name:<46} {values[name]:<14.6g} {unit:<6} {'(' + note + ')' if note else ''}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process of its own; merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return 1
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def write_golden(workload: str) -> int:
    """Record the digests of the first GOLDEN_BLOCKS blocks at DEFAULT_SEED."""
    rd = import_library()
    digests, failures = [], []
    for block in numbered(workloads.make_blocks(workload, DEFAULT_SEED, GOLDEN_BLOCKS[workload])):
        for index, job in block:
            call, check = workloads.prepare(job, rd)
            try:
                digests.append(hashlib.sha256(check(call())).hexdigest())
            except Exception:
                failures.append(f"job {index}: {traceback.format_exc(limit=3)}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": DEFAULT_SEED, "digests": {}}
    golden["digests"][workload] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {workload}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record the golden digests at seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        return max(write_golden(name) for name in names)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
