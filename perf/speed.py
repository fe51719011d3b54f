"""Machine-speed sampling, so host times compare across noisy moments.

The reference container shares its cores with other tenants: the same
deterministic run took 1.75--3.8 s within two minutes, and the speed
changes within a second, so calibrating before and after a run misses
most of it.  :class:`SpeedSampler` instead interrupts the timed call
every :data:`INTERVAL_S` with a timer signal and runs a fixed
pure-Python kernel (heap, dict and float work, like the simulators'
inner loops) in the same thread on the same core.  The call's net time
(wall minus the time spent in the kernel) multiplied by the mean kernel
*speed* seen during the call is the work the machine could have done in
that time, expressed in seconds of a machine on which the kernel takes
:data:`KERNEL_NOMINAL_S` -- the reference container in its usual state.
On repeats of one deterministic run this cut the quartile spread from
0.21 of the median (raw wall) to 0.06.

The sampler only reads the clock and touches its own list, so it cannot
change what the timed call computes.  It is never active in the traced
pass, where the kernel's time would land in whatever layer it
interrupted.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List

__all__ = ["SpeedSampler", "reference_seconds", "timed_kernel", "kernel",
           "KERNEL_NOMINAL_S", "INTERVAL_S"]

#: Seconds between samples; with an ~8 ms kernel that is ~8 % overhead.
INTERVAL_S = 0.1
#: What one :func:`kernel` call takes on the reference container.
KERNEL_NOMINAL_S = 0.008


def kernel(n: int = 12_000) -> float:
    """A fixed amount of interpreter work; only its duration matters."""
    heap: list = []
    table: dict = {}
    x = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i & 1023] = x
        x += table.get((i * 31) & 1023, 0.0) * 1e-9 + i * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return x


def timed_kernel() -> float:
    """Seconds one :func:`kernel` call takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def reference_seconds(wall_s: float, samples: List[float]) -> float:
    """``wall_s`` of host time, during which the kernel ran once per
    entry of ``samples`` (its durations), at the reference speed."""
    # Speed is 1/duration, so mean speed is the harmonic mean.
    return ((wall_s - sum(samples)) * KERNEL_NOMINAL_S
            / statistics.harmonic_mean(samples))


class SpeedSampler:
    """Context manager sampling machine speed during its block.

    After the block, :meth:`reference_seconds` converts the block's wall
    time into reference-machine seconds.  Main thread only (signals).
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, wall_s: float) -> float:
        """``wall_s`` of the sampled block at the reference speed."""
        if not self.samples:
            # Shorter than one interval: calibrated right after it.
            return wall_s * KERNEL_NOMINAL_S / timed_kernel()
        return reference_seconds(wall_s, self.samples)
