"""Correction of wall times for load from outside the machine.

The benchmark was written on a 2-vCPU virtual machine on a shared host.
Over minutes, other tenants slowed every vCPU by up to 2x: the same pure
Python loop took 0.11 s at some times and 0.21 s at others, and whole-run
medians of vecfig's times moved by as much.  A short fixed probe, run
right before and right after each timed operation or short stretch of
operations, measures the speed of the host at that moment.  A duration is scaled by ``REFERENCE_S`` ÷ probe
time, which gives the time the operation would have taken at the
reference speed; on the host the benchmark was written on, at its least
loaded, the factor is about 1.  Raw durations are reported beside corrected
ones.

The correction assumes that load slows the probe and vecfig alike, which
holds for CPU-bound Python code on the same CPU; it does not cover time
spent waiting for the disk.  Corrected figures are not wall times on any
host: the benchmark declares them in units prefixed ``ref_``.
"""

from __future__ import annotations

import statistics
import time

# The fastest probe time seen on the host the benchmark was written on
# (Intel Xeon VM, 2 vCPUs, CPython 3.11.7).
REFERENCE_S = 0.0030
REPEATS = 7


def probe_work() -> int:
    """Fixed pure-Python work with vecfig's mix: floats, tuples, dicts, text."""
    table: dict[int, tuple[float, int]] = {}
    out = []
    acc = 0.0
    for i in range(6000):
        x = (i * 1.618) % 97.0
        table[i & 255] = (x, i)
        out.append(f"{x:.3f}")
        acc += table.get((i * 7) & 255, (0.0, 0))[0]
    return len("".join(out)) + int(acc)


class HostSpeed:
    """Speed of the host, relative to the reference (1.0 = reference).

    Each measurement is the median of REPEATS probe runs, so that one run
    that lost the CPU or started with cold caches does not count.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def measure(self) -> float:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            probe_work()
            times.append(time.perf_counter() - start)
        factor = REFERENCE_S / statistics.median(times)
        self.factors.append(factor)
        return factor
