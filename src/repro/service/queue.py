"""Bounded ingress queue with priorities, deadlines and shedding.

The admission service ingests three kinds of work -- fault events,
tenant departures and new admission requests -- through one queue whose
depth is explicitly bounded: when the bound is hit, *new admissions*
are rejected at the door with a retry-after hint (backpressure), and
under sustained overload queued admissions are shed oldest-deadline
first.  Control traffic (faults and departures) is never rejected or
shed: dropping a departure would leak capacity forever and dropping a
fault would leave unsound guarantees standing, so both always enqueue
(they are also naturally self-limiting: each maps to at most one unit
of existing state).

Priorities drain strictly in order ``FAULT < DEPARTURE < ADMIT``, so
recovery work always preempts new admissions.  Admissions drain
earliest-deadline-first and every admission carries a deadline; items
past their deadline at pop time are expired rather than processed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, List, Optional

__all__ = ["Priority", "IngressItem", "BoundedIngressQueue"]


class Priority(IntEnum):
    """Drain order of the ingress queue (lower drains first)."""

    FAULT = 0
    DEPARTURE = 1
    ADMIT = 2


@dataclass(eq=False)
class IngressItem:
    """One unit of queued work.

    ``payload`` is the operation itself (a request, a tenant id or a
    fault event); ``seq`` is the write-ahead-log sequence number so the
    processor can close the intent record when the item completes.
    """

    priority: Priority
    enqueued_at: float
    payload: Any
    seq: int = -1
    #: Absolute deadline (admissions only); ``None`` = no deadline.
    deadline: Optional[float] = None
    #: Client retry attempt this submission represents (admissions).
    attempt: int = 0
    #: Stable tie-breaker assigned by the queue (arrival order).
    order: int = field(default=0, compare=False)


#: Retry-after hint (seconds) of an empty queue on a first attempt.
RETRY_AFTER_BASE = 0.05


class BoundedIngressQueue:
    """The service's single ingress point, never deeper than ``capacity``.

    ``offer`` returns ``None`` on acceptance or a positive retry-after
    (seconds) when an admission was rejected for depth; the hint grows
    with the backlog so clients back off harder the fuller the queue
    is.  Control items always enqueue.  ``shed`` evicts queued
    admissions oldest-deadline-first down to a target depth and returns
    them (the service logs and answers each with a retry-after).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._faults: deque = deque()
        self._departures: deque = deque()
        #: (deadline, order, item) min-heap: pop = earliest deadline.
        self._admits: List[tuple] = []
        self._order = 0
        self.max_depth = 0
        #: Peak *admission* depth -- the class the capacity bound and
        #: shedding govern (control items always enqueue, so total
        #: depth may exceed ``capacity`` by the pending control items).
        self.max_admit_depth = 0

    def __len__(self) -> int:
        return (len(self._faults) + len(self._departures)
                + len(self._admits))

    def retry_after(self, attempt: int = 0) -> float:
        """Backoff hint for a rejected/shed admission.

        Scales with how full the queue is (server-side congestion
        signal) and doubles per client attempt up to 64x (client-side
        exponential backoff), so a hot loop of retries converges to a
        sustainable offered rate.
        """
        fill = len(self) / self.capacity
        return RETRY_AFTER_BASE * (1.0 + fill) * (2 ** min(attempt, 6))

    def offer(self, item: IngressItem,
              force: bool = False) -> Optional[float]:
        """Enqueue ``item``; admissions bounce with a retry-after when
        the queue is at capacity.

        ``force`` bypasses the depth bound -- used only by crash
        recovery to re-enqueue intents that were already accepted (and
        logged) before the crash; a subsequent :meth:`shed` pass trims
        any resulting overshoot.
        """
        if (not force and item.priority is Priority.ADMIT
                and len(self) >= self.capacity):
            return self.retry_after(item.attempt)
        item.order = self._order
        self._order += 1
        if item.priority is Priority.FAULT:
            self._faults.append(item)
        elif item.priority is Priority.DEPARTURE:
            self._departures.append(item)
        else:
            deadline = (item.deadline if item.deadline is not None
                        else float("inf"))
            heapq.heappush(self._admits, (deadline, item.order, item))
        depth = len(self)
        if depth > self.max_depth:
            self.max_depth = depth
        if len(self._admits) > self.max_admit_depth:
            self.max_admit_depth = len(self._admits)
        return None

    def pop(self) -> Optional[IngressItem]:
        """Highest-priority item (admissions earliest-deadline-first)."""
        if self._faults:
            return self._faults.popleft()
        if self._departures:
            return self._departures.popleft()
        if self._admits:
            return heapq.heappop(self._admits)[2]
        return None

    def pop_admissions(self, limit: int) -> List[IngressItem]:
        """Up to ``limit`` queued admissions, earliest deadline first."""
        batch: List[IngressItem] = []
        while self._admits and len(batch) < limit:
            batch.append(heapq.heappop(self._admits)[2])
        return batch

    def shed(self, target_depth: int) -> List[IngressItem]:
        """Evict admissions, oldest (nearest) deadline first, until the
        total depth is back at ``target_depth``; returns the victims.

        Only admissions are eligible; if control items alone exceed the
        target the queue sheds every queued admission and stops.
        """
        victims: List[IngressItem] = []
        while self._admits and len(self) > target_depth:
            victims.append(heapq.heappop(self._admits)[2])
        return victims
