# Differential-test oracle: the packet simulator's original event loop,
# ``src/repro/phynet/engine.py`` as it stood before it left the package,
# copied verbatim below this header
# (``git show 1587c51:src/repro/phynet/engine.py``).  ``repro.core.EventEngine``
# replaced it; ``tests/core/test_engine_equivalence.py`` drives both with the
# same interleaved schedule/run script and requires the same firing order and
# clock, and ``tests/faults/test_port_faults.py`` runs a fault injector on it.
# Do not optimise or "fix" this file: it is the reference, not product code.
"""Discrete-event simulation core.

A single binary heap of ``(time, sequence, callback, args)`` tuples.  The
monotonically increasing sequence number makes event ordering total and
deterministic: simultaneous events fire in scheduling order, so simulation
runs are exactly reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Simulator:
    """Event loop with O(log n) scheduling."""

    __slots__ = ("now", "tracer", "_queue", "_sequence", "_running")

    def __init__(self) -> None:
        self.now = 0.0
        #: Shared :class:`repro.obs.TraceSink` for every component driven
        #: by this loop; ``None`` (the default) disables tracing.
        self.tracer = None
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._running = False

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s into the past")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._sequence), callback,
                        args))

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} < now {self.now}")
        heapq.heappush(self._queue,
                       (when, next(self._sequence), callback, args))

    def run(self, until: Optional[float] = None) -> float:
        """Drain events until the queue empties or ``until`` is reached.

        Returns the virtual time at which the run stopped.  Events stamped
        exactly at ``until`` still fire.
        """
        self._running = True
        queue = self._queue
        try:
            while queue and self._running:
                when, _seq, callback, args = queue[0]
                if until is not None and when > until:
                    break
                heapq.heappop(queue)
                self.now = when
                callback(*args)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Abort :meth:`run` after the current event."""
        self._running = False

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
