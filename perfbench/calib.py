"""Host-speed calibration inside a measured process.

The benchmark runs on shared machines whose CPUs change speed by up to about
2x, in episodes of one to several seconds and in slower drifts over minutes;
the two CPUs of a 2-CPU sandbox do not slow down together. Raw wall time then
spreads by 20-30% between runs of the same code. A timer therefore runs a
small fixed pure-Python kernel every `PERIOD_S` seconds in the measured
process itself, so the kernel meets the same CPU, at the same moments, as the
program. A measured interval is reported in reference seconds: its wall time
minus the kernel's own time, scaled by `REF_S` over the kernel's mean time
inside the interval. On an idle machine where the kernel takes `REF_S`,
reference seconds are wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# the kernel's time on this project's reference host (Xeon 2.1 GHz, idle)
REF_S = 0.0025


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return total


def ref_seconds(raw_s: float, busy_s: float, mean_s: float) -> float:
    """Wall seconds minus calibration time, at reference speed."""
    return (raw_s - busy_s) * REF_S / mean_s


class Calibrator:
    """Times `_kernel` on a SIGALRM timer; samples are (start, duration)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def window(self, lo: float = float("-inf"), hi: float = float("inf")) -> dict:
        """Kernel time spent in [lo, hi) and the kernel's mean time there
        (over the whole process when no sample fell inside)."""
        if not self.samples:
            self._tick()
        inside = [d for t, d in self.samples if lo <= t < hi]
        return {
            "busy_s": sum(inside),
            "mean_s": statistics.fmean(inside or [d for _, d in self.samples]),
            "n": len(inside),
        }

    def ref(self, raw_s: float, lo: float = float("-inf"), hi: float = float("inf")) -> float:
        w = self.window(lo, hi)
        return ref_seconds(raw_s, w["busy_s"], w["mean_s"])
