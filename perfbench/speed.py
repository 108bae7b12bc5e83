"""Machine-speed reference for the benchmark's timings.

Shared machines run the same code up to twice as slowly for stretches of
several seconds to minutes, which no choice of statistic inside a 25 s run
removes.  A fixed reference kernel, made of the same ingredients as the
solvers (interpreter-level loops over small numpy arrays, and small LAPACK
calls), is timed about every 100 ms between operations; it slows down with
the program, and no change to the program can alter it.  Scaled times are
what the measured time would be when the reference takes ``NOMINAL_S``:
each time is multiplied by ``NOMINAL_S`` over the median reference time
within one second of the measurement.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 1.6e-3  # the kernel's time on an unloaded 2 GHz Xeon core
EVERY_S = 0.1
WINDOW_S = 1.0


def reference_kernel() -> float:
    """Seconds taken by one fixed piece of work: a loop of small matrix
    products and element updates, then small QR and Hermitian eigenvalue
    calls."""
    x = np.full((6, 6), 1.0 / 6.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(400):
        y = x @ x
        acc += float(y[i % 6, (5 * i) % 6])
        x[i % 6, (i + 1) % 6] = 1.0 / (2.0 + acc % 1.0)
    for i in range(30):
        np.linalg.qr(x)
        acc += float(np.linalg.eigvalsh(x + x.T)[0])
        x[i % 6, (i + 2) % 6] = 1.0 / (2.0 + abs(acc) % 1.0)
    return time.perf_counter() - t0


class SpeedLog:
    """Reference-kernel times, sampled at most every EVERY_S seconds."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= EVERY_S:
            self.durations.append(reference_kernel())
            self.times.append(now)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median reference time within WINDOW_S of the
        interval [t0, t1]; scaled time = measured time * factor."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        return NOMINAL_S / statistics.median(self.durations[lo:hi] or self.durations)
