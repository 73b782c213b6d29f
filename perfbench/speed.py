"""Wall times scaled to a reference machine speed.

The benchmark runs on a shared machine whose speed drifts by tens of
percent within seconds: the same operation on the same document can take
25 % longer from one second to the next, and whole runs land in slower or
faster stretches. `Gauge.time` therefore times a fixed pure-Python kernel
right before and right after each timed interval and scales the interval's
wall time by KERNEL_REF_S over the mean of those two kernel times. The
result reads as milliseconds on the machine running at the reference speed;
the raw wall times are reported beside it.

Process start-up tracks that kernel poorly (the child may run on the other
core, and exec and page faults are not dict operations), so a CLI run is
scaled instead by a bare `python -c pass` launched right before it.
"""

from __future__ import annotations

import gc
import sys
import time

# The kernel's time at the reference speed (its typical time on the 2-core
# machine the benchmark was defined on).
KERNEL_REF_S = 0.004
# `python -c pass` at the reference speed.
INTERPRETER_REF_S = 0.05


def kernel() -> float:
    """Seconds a fixed workload of dict, tuple and frozenset operations takes now.

    The cyclic collector is off while it runs, so the garbage an operation
    left behind is not collected, and charged, here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(10_000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + 1
            frozenset((i, i + 1))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def time_process(start, argv: list[str]):
    """`(start(argv), wall seconds, wall seconds at the reference speed)` for
    a process launch, scaled by a bare interpreter launched just before."""
    t0 = time.perf_counter()
    start([sys.executable, "-c", "pass"])
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = start(argv)
    wall = time.perf_counter() - t0
    return result, wall, wall * INTERPRETER_REF_S / bare


class Gauge:
    """Times calls and scales each to the reference speed."""

    def __init__(self):
        self.kernel_samples: list[float] = []

    def time(self, fn, *args):
        """`(fn(*args), wall seconds, wall seconds at the reference speed)`."""
        before = kernel()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = kernel()
        self.kernel_samples += (before, after)
        return result, wall, wall * 2 * KERNEL_REF_S / (before + after)
