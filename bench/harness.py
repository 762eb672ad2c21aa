"""The closed loop that times operations, and the end-to-end metrics.

One caller runs the workload's operations back to back: the next
operation starts when the previous one has returned.  Only the call
itself is timed.  Between calls, outside the timed region, the first
result of each operation is checked at once and then dropped: the loop
keeps only a fingerprint of it, to compare later results with, so peak
memory reflects the largest single operation and not every result of
the run.

The host is a shared machine whose speed changes for every process on
it alike: it flips between a fast and a ~1.7x slower state every few
tenths of a second, and the share of slow time drifts over minutes.  So
the loop also times a fixed unit of bench-side work that never touches
the program (a ``Unit``) after every ``every_s`` of op time, and the
end-to-end times are scaled to a host on which that unit takes its
``reference_s``: each sample by the mean of the units timed around it.
Means, not medians, because a median of a two-state mix jumps between
the states.  A change to the program moves the op times and not the
units, so it shows in full.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import reference

CALIBRATION_HALF_WINDOW = 40  # units on each side in the mean that scales one sample
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "period5.aut"), encoding="utf-8") as _fh:
    _PERIOD5 = reference.parse_text(_fh.read())


@dataclass(frozen=True)
class Unit:
    """A fixed piece of bench-side work whose time follows the host's speed."""

    run: Callable[[], object]
    reference_s: float  # its time on the reference host, at that host's usual speed
    every_s: float  # op time between two units in a loop

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


# 300 steps of the reference iteration on period5.aut: pure Python, like the in-process ops.
PYTHON_UNIT = Unit(lambda: reference.stream_of(_PERIOD5, cap=300), 1.25e-3, 0.05)
# A bare interpreter start, like the CLI processes: their time follows the
# host about half as steeply as pure Python does.
PROCESS_UNIT = Unit(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True), 50e-3, 0.5)


@dataclass
class Op:
    """One operation: a call into the program and an independent check of its result."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Loop:
    """What one closed loop over an op list measured."""

    latencies: list = field(default_factory=list)  # seconds, in run order
    indices: list = field(default_factory=list)  # op index of each latency
    first: dict = field(default_factory=dict)  # op index -> fingerprint of its first result
    wrong: set = field(default_factory=set)  # op indices whose first result the check rejected
    raised: int = 0  # calls that raised
    mismatched: int = 0  # later results that differ from the first
    errors: list = field(default_factory=list)  # one line per failure, for the report
    busy_s: float = 0.0
    calibration: list = field(default_factory=list)  # (latencies recorded before it, unit seconds)

    def failed(self) -> int:
        """Failed operations: errors, results differing between runs, runs of wrongly answered ops."""
        wrong_runs = sum(1 for i in self.indices if i in self.wrong)
        return min(self.raised + self.mismatched + wrong_runs, len(self.latencies))


def run_loop(ops: list[Op], seconds: float, count: int | None = None, unit: Unit = PYTHON_UNIT) -> Loop:
    """Cycle through ``ops`` until ``seconds`` of op time have passed.

    With ``count`` set, run exactly that many operations instead.  The
    workloads order their ops so that any prefix of the list holds a
    fair share of every kind and size.
    """
    loop = Loop()
    next_unit = 0.0
    while True:
        for i, op in enumerate(ops):
            if len(loop.latencies) == count or (count is None and loop.busy_s >= seconds):
                return loop
            if loop.busy_s >= next_unit:
                loop.calibration.append((len(loop.latencies), unit.time()))
                next_unit = loop.busy_s + unit.every_s
            run_one(loop, i, op)


def run_one(loop: Loop, i: int, op: Op) -> None:
    """Time one call of op ``i``, then check or compare its result, and record it in ``loop``."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # counted as a failed operation, never fatal
        t1 = time.perf_counter()
        loop.raised += 1
        loop.errors.append(f"op {i} {op.kind}: {type(exc).__name__}: {exc}")
        result = _ERROR
    else:
        t1 = time.perf_counter()
    loop.latencies.append(t1 - t0)
    loop.indices.append(i)
    loop.busy_s += t1 - t0
    if result is _ERROR:
        return
    mark = fingerprint(result)
    if i in loop.first:
        if mark != loop.first[i]:
            loop.mismatched += 1
            loop.errors.append(f"op {i} {op.kind}: result differs from its first run")
        return
    loop.first[i] = mark
    try:
        ok = op.check(result)
    except Exception as exc:  # a check that crashes rejects the result
        ok = False
        loop.errors.append(f"op {i} {op.kind}: check raised {type(exc).__name__}: {exc}")
    if not ok:
        loop.wrong.add(i)
        loop.errors.append(f"op {i} {op.kind}: wrong result {result!r:.200}")


_ERROR = object()


def fingerprint(result) -> bytes:
    """A digest of the result's pickled fields: equal results give equal digests."""
    return hashlib.blake2b(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL), digest_size=16).digest()


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def host_factors(calibration: list, samples: int, reference_s: float) -> list[float]:
    """Per sample: the unit's reference time over the mean of the units timed around it."""
    units = [t for _, t in calibration]
    half = CALIBRATION_HALF_WINDOW
    smooth = [statistics.fmean(units[max(0, j - half):j + half + 1]) for j in range(len(units))]
    before = [n for n, _ in calibration]
    return [reference_s / smooth[max(0, bisect_right(before, k) - 1)] for k in range(samples)]


def latency_metrics(latencies_s: list[float], indices: list[int], factors: list[float]) -> dict:
    """Throughput and latency quantiles over the operations, each at its mean time.

    Every sample is first scaled by its host factor.  Every operation
    runs many times in a run, and the mean of its scaled runs is its
    latency; the quantiles are taken over the operations, so they move
    with the program and the fixed mix of inputs, not with which runs
    of an operation the host slowed.  ``ops_per_s`` is one pass over the
    list at those latencies.
    """
    runs = defaultdict(list)
    for i, t, f in zip(indices, latencies_s, factors):
        runs[i].append(t * f * 1e3)
    ms = [statistics.fmean(v) for v in runs.values()]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": deciles[8],
        "beyond_p90": sum(1 for x in ms if x > deciles[8]),
        "ops": len(ms),
        "fewest_runs": min(len(v) for v in runs.values()),
    }
