"""Scaling measured times to one reference machine speed.

On a shared host the same work can run 1.4-1.8 times slower for spells
of seconds to minutes, as other work on the host competes for the core;
process time grows with wall time, so the process is not descheduled. A
result that is raw wall time mostly records how long a run spent in slow
spells. So the benchmark runs a fixed pure-Python kernel every
``INTERVAL_S`` on the same CPU as the measured work, and scales each
measured time by ``REFERENCE_S`` over the kernel's recent time. Times
are then in seconds at the reference speed, where the kernel takes
``REFERENCE_S``. That is the kernel's time in the fast state of the
shared 2-vCPU virtual machine the benchmark was built on (Python 3.11.7),
so there scaled times read like fast-state wall times.

The kernel allocates no objects the garbage collector tracks, so its
time does not depend on the heap of the program under test. It belongs
to the benchmark and must not change, or results stop being comparable.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.0017
INTERVAL_S = 0.1


def kernel() -> int:
    d: dict[int, int] = {}
    x = 1
    for i in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x % 1021
        d[k] = d.get(k, 0) + i
    return min(d.values())


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class SpeedProbe:
    """Calibrates on demand and scales raw times to the reference speed.

    The scale uses the median of the last three kernel times, so one
    disturbed calibration does not skew the ops around it.  The probe
    also keeps totals: ``cal_s`` spent calibrating, and the ``raw_s`` and
    ``ref_s`` of everything it scaled.
    """

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=3)
        self.last = float("-inf")
        self.cal_s = 0.0
        self.raw_s = 0.0
        self.ref_s = 0.0

    def calibrate_if_due(self) -> None:
        if perf_counter() - self.last >= INTERVAL_S:
            dt = kernel_time()
            self.recent.append(dt)
            self.cal_s += dt
            self.last = perf_counter()

    def scale(self, raw_s: float) -> float:
        """A time just measured, in seconds at the reference speed."""
        ref_s = raw_s * REFERENCE_S / statistics.median(self.recent)
        self.raw_s += raw_s
        self.ref_s += ref_s
        return ref_s

    def scaled_wall(self, wall_s: float, workers: int = 1) -> float:
        """A pass's wall time without the calibrations, at the reference
        speed; the calibrations were shared among ``workers`` processes."""
        if not self.raw_s:
            return wall_s
        return (wall_s - self.cal_s / workers) * self.ref_s / self.raw_s

    def totals(self) -> dict[str, float]:
        return {"cal_s": self.cal_s, "raw_s": self.raw_s, "ref_s": self.ref_s}

    def add_totals(self, totals: dict[str, float]) -> None:
        self.cal_s += totals["cal_s"]
        self.raw_s += totals["raw_s"]
        self.ref_s += totals["ref_s"]
