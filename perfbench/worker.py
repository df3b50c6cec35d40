"""Benchmark worker: runs one workload in this process, prints one JSON line.

``run.py`` starts it in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src`` and BLAS/OpenMP threads pinned to 1, so the process's
peak RSS is the workload's own.  One client, one thread, closed loop: each
operation starts when the previous one has returned.

Without ``--trace 1`` it measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of rounds,
each twice on the same inputs, untraced and with every traced function
wrapped, and reports the per-layer metrics; the outputs of the two passes
must have equal digests.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import colliderbias
import numpy

from tracing import Tracer, bypass_problems
from workloads import CANARY_SEED, DEFAULT_SIZES, WORKLOADS, sha256

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# Timings are reported at the host speed where the two references below run
# at these rates, typical on the 2-vCPU machine the benchmark was defined on.
REFERENCE_RATE = 200_000.0  # steps per second of host_speed()'s loop
BULK_REFERENCE_RATE = 80.0  # passes per second of BulkHostSpeed()
REFERENCE_STEPS = 500
BULK_REFERENCE_DRAWS = 250_000
_REFERENCE_ARRAY = numpy.arange(64.0)

# Every run times at least this many rounds, however slow the program is.
MIN_ROUNDS = 3


@dataclass
class Tally:
    """Operations attempted and failed, in units of work."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, work: int, problems: list[str]) -> None:
        self.failed += work
        self.problems.extend(problems)


def run_round(workload, ops, tally: Tally, check: bool = True, tracer=None) -> list:
    """Run ``ops`` one after another; return (seconds, output) per op.

    Only ``execute`` is timed.  An exception is a failed operation, never
    skipped; its output is recorded as None.
    """
    results = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            output = workload.execute(op)
            problems = []
        except Exception as exc:
            output = None
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        tally.attempted += op.work
        if not problems and check:
            try:
                problems = workload.check(op, output)
            except Exception as exc:  # malformed output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            tally.fail(op.work, problems)
        results.append((elapsed, output))
    return results


def canary(workload, tally: Tally) -> None:
    """The untimed warm-up round, checked against the pinned digest."""
    ops = workload.inputs(CANARY_SEED, 0)
    failed_before = tally.failed
    results = run_round(workload, ops, tally)
    if workload.pinned is None or workload.sizes != DEFAULT_SIZES or tally.failed > failed_before:
        return
    views = [workload.pin_view(op, output) for op, (_, output) in zip(ops, results)]
    got = sha256("\n".join(views))
    if got != workload.pinned:
        tally.fail(sum(op.work for op in ops),
                   [f"canary digest {got} differs from the pinned {workload.pinned}"])


def host_speed() -> float:
    """The host's speed at a fixed piece of work in the package's idiom, masks
    and reductions over a small numpy array as the joint oracle does, relative
    to REFERENCE_RATE.

    On a shared host the speed of one thread drifts by up to 1.7x from one
    minute to the next.  Each timing is scaled by this factor, measured just
    before and after it; that removes most of the drift.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_STEPS):
        total += float(_REFERENCE_ARRAY[(_REFERENCE_ARRAY % 7) == i % 7].sum())
    return REFERENCE_STEPS / (time.perf_counter() - start) / REFERENCE_RATE


class BulkHostSpeed:
    """The host's speed at bulk array work, relative to BULK_REFERENCE_RATE.

    The work is numpy's own: Philox uniforms, BULK_REFERENCE_DRAWS at a time,
    thresholded and counted.  Such work is bound by memory, whose speed
    drifts apart from that of the interpreter, so host_speed() does not
    track it.  The arrays are allocated once, here: when each call allocated
    its own, a call made just after a large ``sample`` ran 22% slower than
    one made just before, which measured the sampler's aftermath, not the
    host.
    """

    def __init__(self) -> None:
        self._uniforms = numpy.empty(BULK_REFERENCE_DRAWS)
        self._cells = numpy.empty(BULK_REFERENCE_DRAWS, dtype=numpy.intp)

    def __call__(self) -> float:
        start = time.perf_counter()
        generator = numpy.random.Generator(numpy.random.Philox(key=1))
        cells = self._cells
        cells[:] = 0
        for _ in range(4):
            generator.random(out=self._uniforms)
            numpy.left_shift(cells, 1, out=cells)
            numpy.bitwise_or(cells, self._uniforms < 0.5, out=cells)
        numpy.bincount(cells, minlength=16)
        return 1.0 / (time.perf_counter() - start) / BULK_REFERENCE_RATE


class Reservoir:
    """A uniform sample of at most ``size`` values (Algorithm R) in memory
    allocated up front, so peak RSS does not grow with the request count."""

    def __init__(self, size: int = 1 << 16):
        self.values = array.array("d", bytes(8 * size))
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, value: float) -> None:
        slot = self.seen if self.seen < len(self.values) else self._rng.randrange(self.seen + 1)
        if slot < len(self.values):
            self.values[slot] = value
        self.seen += 1

    def sorted(self) -> list[float]:
        return sorted(self.values[: min(self.seen, len(self.values))])


def _rank(count: int, q: int) -> int:
    return max(1, -(-count * q // 100))


def nearest_rank(ordered, q: int) -> float:
    """The q-th percentile of sorted values by the nearest-rank method."""
    return ordered[_rank(len(ordered), q) - 1]


def timed_round(workload, ops, tally: Tally, speed) -> tuple[list[float], list[float]]:
    """Run one round; return each operation's seconds and host speed factor.

    The factor is measured before and after the timed calls, and they get
    the geometric mean of the two.  A bulk workload's factor is measured
    between its operations, which are long, as the speed of memory-bound
    work drifts within a round; the others measure it around the round.
    """
    groups = [[op] for op in ops] if workload.bulk else [ops]
    times, speeds = [], []
    before = speed()
    for group in groups:
        times += [elapsed for elapsed, _ in run_round(workload, group, tally)]
        after = speed()
        speeds += [math.sqrt(before * after)] * len(group)
        before = after
    return times, speeds


def measure(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over rounds 1, 2, ... until ``seconds`` have passed."""
    rates = array.array("d")
    raw_rates = array.array("d")
    speeds = array.array("d")
    requests = Reservoir()
    speed = BulkHostSpeed() if workload.bulk else host_speed
    deadline = time.perf_counter() + seconds
    round_index = 1
    while round_index <= MIN_ROUNDS or time.perf_counter() < deadline:
        ops = workload.inputs(seed, round_index)
        work = sum(op.work for op in ops)
        times, op_speeds = timed_round(workload, ops, tally, speed)
        scaled = [elapsed * speed for elapsed, speed in zip(times, op_speeds)]
        for latency in scaled if workload.call_per_op else [sum(scaled)]:
            requests.add(latency)
        raw_rates.append(work / sum(times))
        rates.append(work / sum(scaled))
        speeds.append(statistics.fmean(op_speeds))
        round_index += 1
    # Read before the statistics below make their sorted copies.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = requests.sorted()
    metrics = {
        "ops_per_s": statistics.median(rates),
        "call_p50_us": statistics.median(latencies) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "rounds": len(rates),
        "requests": requests.seen,
        "call_p99_us": nearest_rank(latencies, 99) * 1e6,
        "requests_beyond_p99": requests.seen - _rank(requests.seen, 99),
        "raw_ops_per_s": statistics.median(raw_rates),
        "host_speed": statistics.median(speeds),
        "round_rates": list(rates),
    }
    return metrics, details


def trace(workload, seed: int, tally: Tally) -> tuple[dict, dict]:
    """Each round untraced and traced, in alternating order; per-layer metrics.

    Alternating the order spreads the host's drift in speed evenly over the
    two sides of ``tracing_overhead``.
    """
    count = workload.sizes.rounds_traced(workload.name)
    rounds = [workload.inputs(seed, r) for r in range(1, count + 1)]
    work_units = sum(op.work for ops in rounds for op in ops)
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    digests: dict[bool, list] = {False: [], True: []}

    def one_round(ops, traced: bool) -> None:
        if traced:
            tracer.install()
        try:
            results = run_round(workload, ops, tally, check=not traced,
                                tracer=tracer if traced else None)
        finally:
            tracer.uninstall()
        seconds[traced] += sum(elapsed for elapsed, _ in results)
        digests[traced] += [None if output is None else workload.digest(op, output)
                            for op, (_, output) in zip(ops, results)]

    for index, ops in enumerate(rounds):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            one_round(ops, traced)

    if digests[True] != digests[False]:
        tally.fail(work_units, ["traced outputs differ from the untraced outputs"])
    problems = bypass_problems(workload.name, tracer.calls_by_function())
    if problems:
        tally.fail(work_units, problems)
    spans_path = OUT_DIR / f"spans-{workload.name}.jsonl"
    tracer.write(spans_path)
    details = {
        "rounds": len(rounds),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "output_digest": sha256("".join(d or "-" for d in digests[False])),
    }
    return tracer.metrics(work_units, seconds[True], seconds[False]), details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path(colliderbias.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"colliderbias was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    canary(workload, tally)
    if args.trace:
        metrics, details = trace(workload, args.seed, tally)
    else:
        metrics, details = measure(workload, args.seed, args.seconds, tally)
    details.update(
        python=platform.python_version(),
        numpy=numpy.__version__,
        unit=workload.unit,
        call=workload.call,
        problems=tally.problems[:20],
    )
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "details": details,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
