"""Host-speed probe: rescales the chain's wall time to the host's own speed.

On a shared virtual machine the speed of a vCPU swings by about 1.6x in
phases from a second to several minutes, as other tenants come and go, so
raw wall times of one workload spread by 15-30% between runs.  The probe
times a fixed kernel every 50 ms on the benchmark's own thread (from a
SIGALRM handler, between bytecodes), so it sees the same slowdown as the
chain around it.  Each stretch of chain time is rescaled by the kernel's
reference time over the kernel's time at the end of the stretch.  The kernel
runs twice per sample and only the second, cache-warm pass is timed, so the
program's own cache use barely moves it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# the probe kernel's time on the reference machine when no other tenant
# slows it (2-vCPU Xeon at 2.0 GHz, see README.md)
REFERENCE_S = 1.3e-4


class SpeedProbe:
    """Context manager sampling the kernel while the chain runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        self._vector = rng.standard_normal(3000)
        self.samples: list[tuple[float, float, float]] = []  # (start, handler s, kernel s)

    def _kernel(self) -> float:
        total = 0.0
        for i in range(20):
            total += float(np.linalg.solve(self._matrix, self._vector[i : i + 3])[0])
        return total + float(np.exp(self._vector).sum())

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        timed = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - timed))

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, begin: float, end: float) -> tuple[float, float]:
        """(wall seconds of [begin, end] outside the probe, the same seconds
        at the reference speed).  Without a sample the two are equal."""
        inside = [s for s in self.samples if begin <= s[0] < end]
        wall = (end - begin) - sum(handler for _, handler, _ in inside)
        if not inside:
            return wall, wall
        scaled, since = 0.0, begin
        for start, handler, kernel in inside:
            scaled += (start - since) * REFERENCE_S / kernel
            since = start + handler
        scaled += (end - since) * REFERENCE_S / inside[-1][2]
        return wall, scaled
