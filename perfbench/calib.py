"""Calibration unit (cu) and the meter that converts timed calls into cu.

The shared 2-vCPU hosts this benchmark was built on change speed from minute
to minute: identical runs of the same work took anywhere between 1x and 1.5x
the fastest wall time, with CPU time tracking wall time.  Every timed call is
therefore divided by the time of a fixed pure-Python kernel, run between the
timed calls.  The kernel uses no library code, so a change to the library
cannot move the unit.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from array import array

# The kernel has two halves.  The first allocates and indexes small objects
# (lists, tuples, a small dict), as payload arithmetic does; its speed tracked
# the `laws` workload best.  The second makes dependent lookups at scattered
# places in a flat 1 MB table, as the table-driven code does; it tracked
# `pairs` and `presentations` best.  The table is an array of machine ints so
# that it adds little to the measured process's peak memory.
#
# Set-up (imports, table building, input generation) is scaled by a lighter
# kernel: the first half at half its rounds, then the second.  The host
# switches between a fast and a slow state, and the first half slows more in
# the slow state than set-up does, the second about as much.  Set-up is
# mostly imports on `presentations` and payload arithmetic on `laws`, so no
# one half suits every workload.  Over 20 rounds of seven set-up processes
# per workload, the median set-up time spread (IQR over median) by at most
# 0.031 on any workload with this mix, 0.035 with the whole kernel and 0.045
# with the second half alone.
REFERENCE_SETUP_KERNEL_S = 0.008   # one set-up kernel run on the reference host
SMALL_ROUNDS = 2500
LOOKUPS = 15000
SPAN_S = 0.25                # timed work between two kernel runs, at most
WINDOW_S = 2.5               # a call's unit: kernel runs within this of it
_KEYS = 1 << 16
_BIG = array("i", ((i * 40503 + j * 977) & (_KEYS - 1)
                   for i in range(_KEYS) for j in range(4)))


def _objects(rounds: int) -> None:
    rows = [[(7 * i + 3 * k + 1) % 61 for k in range(6)] for i in range(61)]
    seen = {}
    acc = 0
    for r in range(rounds):
        x = r % 61
        for k in range(6):
            x = rows[x][k]
            key = (x, k, r & 7)
            acc += seen.get(key, k)
            seen[key] = acc & 255
        if r % 13 == 0:
            acc ^= len(frozenset(rows[x]))


def _lookups() -> None:
    big, mask = _BIG, _KEYS - 1
    x = acc = 0
    for r in range(LOOKUPS):
        x = big[((x + r) & mask) << 2 | (r & 3)]
        acc += x & 3


def _timed(object_rounds: int) -> float:
    """Run both halves once with GC paused; return their seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _objects(object_rounds)
        _lookups()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def kernel() -> float:
    """Run the calibration kernel once; return its seconds."""
    return _timed(SMALL_ROUNDS)


def setup_kernel() -> float:
    """Run the lighter kernel that set-up is scaled by; return its seconds."""
    return _timed(SMALL_ROUNDS // 2)


class Meter:
    """Times library calls and converts them into calibration units.

    A kernel run brackets every timed call, but consecutive short calls
    share one bracket: a new calibration is taken after a call once at least
    SPAN_S seconds of timed work have accumulated since the last one, so a
    call longer than SPAN_S always sits between two kernel runs of its own.

    Single kernel runs scatter by +-30% from one 10 ms run to the next on a
    busy host, so dividing a call by the two kernel runs that touch it would
    add that scatter to every call.  A call's unit is instead the median of
    the kernel runs within WINDOW_S seconds of it, always including the two
    that bracket it.  Slow drift (the host being slower for a minute) is
    followed; the 10 ms scatter is filtered out.
    """

    def __init__(self):
        self.times: list[float] = []        # midpoint of each kernel run
        self.kernels: list[float] = []      # its seconds
        self.calls: list[tuple[object, float, float]] = []   # key, start, seconds
        self._since = 0.0
        self.calibrate()

    def call(self, key, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as timed work charged to `key`."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.calls.append((key, t0, dt))
            self._since += dt
            if self._since >= SPAN_S:
                self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        k = kernel()
        self.times.append(t0 + k / 2)
        self.kernels.append(k)
        self._since = 0.0

    def unit(self, start: float, end: float) -> float:
        """Median kernel seconds around the interval [start, end]."""
        times = self.times
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = min(bisect.bisect_left(times, end), len(times) - 1)
        lo = min(before, bisect.bisect_left(times, start - WINDOW_S))
        hi = max(after, bisect.bisect_right(times, end + WINDOW_S) - 1)
        return statistics.median(self.kernels[lo:hi + 1])

    def totals(self) -> tuple[dict, dict]:
        """Per-key (seconds, cu) over every call so far."""
        seconds: dict = {}
        cu: dict = {}
        for key, t0, dt in self.calls:
            seconds[key] = seconds.get(key, 0.0) + dt
            cu[key] = cu.get(key, 0.0) + dt / self.unit(t0, t0 + dt)
        return seconds, cu

    def summary(self) -> dict:
        cal = self.kernels
        q = statistics.quantiles(cal, n=4) if len(cal) >= 2 else [cal[0]] * 3
        return {"count": len(cal), "median_s": statistics.median(cal),
                "q1_s": q[0], "q3_s": q[2], "min_s": min(cal), "max_s": max(cal)}
