"""Machine-speed probe that the benchmark's times are rescaled by.

On a shared host the CPU's speed for the same work swings by about 30 %
within seconds, and a whole 25-second run can land in a slow stretch, so
medians of raw wall time spread by 15-30 % between runs. Every timed
stretch (one operation, one set-up interpreter) is therefore bracketed by
a fixed pure-Python loop, and its wall time is rescaled to the speed at
which that loop takes REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(probe before, probe after)

The loop is benchmark code, so a change to dltl moves the scaled time as
much as the wall time. The raw wall time is kept as a per-layer metric.
"""

from __future__ import annotations

import time

# Time of one probe() at full speed on a 2.1 GHz Xeon (Sapphire Rapids class)
# KVM guest.
REFERENCE_S = 0.007


def probe() -> float:
    """Wall time of a fixed integer loop, about 7 ms on the reference host."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


def scale(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S / (0.5 * (before + after))
