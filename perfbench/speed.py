"""Host speed probe: scales timings to a reference host speed.

On a shared host the same code runs up to 1.5x slower when other tenants
load the core (measured on a shared 2-core Xeon host: a fixed pure-Python loop
took 13-14 ms at best and 19-20 ms as its median, and 7-second block medians
of one workload moved by +-25%).  Raw wall times then mostly measure the
neighbours.  The probe runs a fixed pure-Python kernel from a SIGALRM
handler every INTERVAL_S while a timed region runs, so it samples the host's
speed during the very seconds the program ran.  The kernel is timed in
thread CPU time, which a core shared with other tenants inflates but waiting
for the interpreter lock does not, so a program that moves work to other
threads cannot make the host look slower.

A region's scaled time is (raw time - time spent in the handler) *
REFERENCE_KERNEL_S / median kernel time, i.e. the time the region would have
taken at the speed where the kernel takes REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
KERNEL_ITERATIONS = 5000
# Kernel time on an unloaded core of the reference host (Xeon, Python 3.11).
REFERENCE_KERNEL_S = 0.00035


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager sampling kernel speed until it exits."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _handle(self, signum, frame) -> None:
        start = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - c0)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        """Reference speed over measured speed; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        return REFERENCE_KERNEL_S / statistics.median(self.samples)

    def scale(self, raw_s: float) -> float:
        return (raw_s - self.handler_s) * self.factor
