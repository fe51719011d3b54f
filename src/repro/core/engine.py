"""Shared discrete-event core for every simulator fidelity.

Both simulators used to own their event machinery: the packet engine
kept a callback heap (that seed loop is now the test oracle
``tests/oracles/seed_engine.py``), and the fluid simulator
(:mod:`repro.flowsim.sim`) kept its own clock and sequence counter
inside its run loop.  This module factors the common core --
calendar queue, deterministic tie-breaking, and trace-sink wiring -- so
fidelity becomes a property of the *consumer*, not of the event
machinery:

* **Callback consumers** (the packet network) use the full loop:
  :meth:`EventEngine.schedule` / :meth:`EventEngine.schedule_at` /
  :meth:`EventEngine.run`, with the exact semantics of the seed loop
  (events stamped exactly at ``until`` still fire; simultaneous events
  fire in scheduling order;
  ``tests/core/test_engine_equivalence.py`` compares the two).
* **Loop consumers** (the fluid simulator) keep their own specialized
  heaps for epoch-invalidated finish predictions but draw the clock
  (:attr:`EventEngine.now`), tie-breaking sequence numbers
  (:meth:`EventEngine.next_seq`), and trace emission
  (:meth:`EventEngine.emit`) from the engine.

Determinism contract: a single monotone sequence number totally orders
simultaneous events, whether they live in the engine's own queue or in
a consumer's heap fed from :meth:`next_seq`.  Sequence numbers are
never serialized -- only their relative order matters -- so consumers
may mix engine-queued and self-queued events freely without perturbing
byte-identical campaign outputs.

The engine knows nothing about faults: a fault schedule is delivered
either as ordinary :meth:`EventEngine.schedule_at` callbacks
(:class:`repro.faults.inject.NetworkFaultInjector`) or through a
:class:`repro.faults.schedule.FaultClock` the consumer holds itself
(:class:`repro.flowsim.sim.ClusterSim`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

__all__ = ["EventEngine"]


class EventEngine:
    """Event loop with O(log n) scheduling and O(1) cancellation.

    Same ``now`` / ``tracer`` / ``schedule`` / ``schedule_at`` / ``run``
    / ``stop`` / ``pending_events`` surface and semantics as the seed
    packet loop it replaced, plus the extensions that let both
    fidelities share it: cancellation handles, an exported sequence
    counter, and guarded trace emission.
    """

    __slots__ = ("now", "tracer", "_queue", "_sequence", "_running")

    def __init__(self, tracer=None) -> None:
        """``tracer`` is an optional :class:`repro.obs.TraceSink` shared
        by every component driven by this engine; ``None`` disables
        tracing at zero cost."""
        self.now = 0.0
        #: Shared :class:`repro.obs.TraceSink` for every component driven
        #: by this loop; ``None`` (the default) disables tracing.
        self.tracer = tracer
        # Heap entries are *lists* so a handle can cancel in O(1) by
        # nulling the callback slot; comparison never reaches it because
        # the sequence number is unique.
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._running = False

    # -- scheduling ----------------------------------------------------------

    def next_seq(self) -> int:
        """Draw the next tie-breaking sequence number.

        Consumers keeping their own heaps (e.g. the fluid simulator's
        epoch-invalidated finish events) use this so their events share
        one total order with engine-queued events.
        """
        return next(self._sequence)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> list:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        Returns an opaque handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s into the past")
        entry = [self.now + delay, next(self._sequence), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any) -> list:
        """Run ``callback(*args)`` at absolute virtual time ``when``.

        Returns an opaque handle accepted by :meth:`cancel`.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} < now {self.now}")
        entry = [when, next(self._sequence), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Cancel a scheduled event by its handle; idempotent.

        The entry stays in the heap with its callback nulled and is
        skipped (not fired) when popped, so cancellation is O(1) and the
        uncancelled path pays nothing beyond one ``is None`` test per
        dispatch.
        """
        handle[2] = None

    def run(self, until: Optional[float] = None) -> float:
        """Drain events until the queue empties or ``until`` is reached.

        Returns the virtual time at which the run stopped.  Events
        stamped exactly at ``until`` still fire, matching the seed
        loop's contract.
        """
        self._running = True
        queue = self._queue
        try:
            while queue and self._running:
                when, _seq, callback, args = queue[0]
                if until is not None and when > until:
                    break
                heapq.heappop(queue)
                if callback is None:
                    continue  # cancelled
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
        """Number of events still queued (cancelled entries included)."""
        return len(self._queue)

    # -- tracing -------------------------------------------------------------

    def emit(self, event) -> None:
        """Emit a trace event through the attached sink, if any.

        The zero-overhead contract lives here once: consumers call
        ``emit`` unconditionally and pay one ``is None`` test when
        tracing is disabled.  (Hot paths that construct expensive event
        objects should still guard on :attr:`tracer` themselves.)
        """
        if self.tracer is not None:
            self.tracer.emit(event)
