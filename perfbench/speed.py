"""Reference kernel that tracks how fast the machine runs the benchmark's kind of code.

On a shared 2-core host the same code runs up to 1.6 times slower or faster
from one second to the next, with slow phases that last from a fraction of a
second to most of a run.  A run times this fixed kernel between its calls and
divides each call's time by ``local_speeds()``: the kernel's median time over
its nominal time among the samples taken within ``LOCAL_WINDOW_S`` of that
call, so that calls read as wall times at the reference speed.  One factor
for the whole run (``speed()``) cannot follow phases that come and go within
it: on that host the p90 of max_nash calls over repeated passes of the same
inputs spread (IQR/median) 0.18 with one factor and about 0.04 with local
factors, against 0.22 raw; windows of 0.15 s followed the phases better
than windows of 0.5 s or more.  The kernel never changes with the library:
it mixes the four kinds of work the workloads do (a float loop with math
calls, a method-call bisection, a numpy prefix-DP slice, argparse plus JSON).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
from time import perf_counter

import numpy as np

#: Median kernel time on the 2-core box this benchmark was defined on.
NOMINAL_S = 3.3e-3
#: Kernel samples within this many seconds of a call set that call's factor.
LOCAL_WINDOW_S = 0.15


class _Poly:
    __slots__ = ("a", "b", "s")

    def __init__(self, a: float, b: float, s: int):
        self.a, self.b, self.s = a, b, s

    def cumulative(self, x: float) -> float:
        return self.a * x ** (self.s + 1) / (self.s + 1) + self.b * x


def reference_kernel() -> int:
    acc = 0.0
    for i in range(1, 1500):
        x = i / 1500.0
        acc += math.erf(x) - x * x / (1.0 + x)

    poly = _Poly(1.3, 0.7, 3)
    total = poly.cumulative(1.0)
    for k in range(1, 8):
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if poly.cumulative(mid) < total * k / 8:
                lo = mid
            else:
                hi = mid
        acc += hi

    prefix = np.cumsum(np.linspace(0.1, 1.0, 1800).reshape(3, 600), axis=1)
    values = prefix[0].copy()
    best = 0
    for t in range(0, 600, 2):
        best = int(np.argmax(values[: t + 1] * (prefix[1, t] - prefix[1, : t + 1])))

    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("path")
        p.add_argument("--eta", type=float, default=1.0)
    parser.parse_args(["b", "--eta", "0.5", "file"])
    report = {f"k{i}": [i * 0.5 + acc, str(i)] for i in range(60)}
    return best + len(json.loads(json.dumps(report, sort_keys=True)))


def time_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Median kernel time over nominal: 1.0 at reference speed, 1.2 when 20% slower."""
    return statistics.median(samples) / NOMINAL_S


def local_speeds(starts: list[float], durations: list[float],
                 ref_times: list[float], refs: list[float]) -> list[float]:
    """Speed factor of each call, from the kernel samples taken near it.

    ``starts`` and ``durations`` describe the calls, ``ref_times`` (ascending)
    and ``refs`` the kernel samples; all times share one clock.  A call's
    factor is ``speed()`` of the samples taken from ``LOCAL_WINDOW_S`` before
    it starts to ``LOCAL_WINDOW_S`` after it ends, or of the nearest sample on
    each side when there is none in that span.
    """
    factors = []
    for start, duration in zip(starts, durations):
        lo = bisect.bisect_left(ref_times, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(ref_times, start + duration + LOCAL_WINDOW_S)
        if hi <= lo:
            lo, hi = max(0, lo - 1), lo + 1
        factors.append(speed(refs[lo:hi]))
    return factors
