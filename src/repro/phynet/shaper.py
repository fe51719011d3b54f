"""Event-driven hierarchical shaper: the pacer as it runs in the hypervisor.

:class:`~repro.pacer.hierarchy.VMPacer` stamps packets in FIFO order, which
is exact for a single stream (and is how the Fig. 10 microbenchmarks use
it).  A VM talking to several destinations needs real scheduler semantics:
per-destination queues whose head packets compete for the shared tenant and
peak buckets, served in *eligibility* order -- otherwise one backlogged
destination would delay traffic to idle destinations through the shared
buckets.

:class:`VMShaper` implements exactly that: it holds one FIFO per
destination, computes for each head packet the earliest instant all three
Fig. 8 buckets allow it out, releases the globally earliest, and re-arms.
Aggregate output conforms to ``{B, S}``, per-destination output to its
hose rate ``B_d``, and consecutive releases are spaced at ``Bmax``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import (Any, Callable, Deque, Dict, Hashable, List,
                    Optional, Tuple)

from repro.core import EventEngine
from repro.pacer.hierarchy import PacerConfig
from repro.pacer.token_bucket import TokenBucket

#: Slack when testing head-packet eligibility against the current clock:
#: absorbs float error from the schedule()/now round trip.  Simulation
#: times stay near zero, so an absolute epsilon is the right shape here
#: (a relative one would vanish at t=0).
_TIME_EPS = 1e-12

#: ``(bound, rank, destination, answer, t)``: see :meth:`VMShaper._index`.
_HeadEntry = Tuple[float, int, Hashable, float, float]


class VMShaper:
    """Hierarchical token-bucket scheduler for one VM's egress."""

    def __init__(self, sim: EventEngine, config: PacerConfig,
                 release: Callable[[Any], None]):
        self.sim = sim
        self.config = config
        self._release = release
        self._queues: Dict[Hashable, Deque[Any]] = {}
        #: Queue-creation index per destination: the tie-break order.
        self._rank: Dict[Hashable, int] = {}
        #: Min-heap of head entries; ``_indexed`` names each backlogged
        #: destination's live entry, any other entry is stale.
        self._heads: List[_HeadEntry] = []
        self._indexed: Dict[Hashable, _HeadEntry] = {}
        self._dest_buckets: Dict[Hashable, TokenBucket] = {}
        self._tenant = TokenBucket(config.bandwidth, config.burst,
                                   sim.now)
        self._peak = TokenBucket(config.peak_rate, config.packet_size,
                                 sim.now)
        self._generation = 0
        self._armed_at: Optional[float] = None
        self.backlog = 0.0
        self._dest_backlog: Dict[Hashable, float] = {}
        #: Optional :class:`repro.obs.TimeSeries` recording the shaper's
        #: total backlog (bytes awaiting their token-bucket stamps) on
        #: every submit/release.
        self.backlog_series = None

    # -- configuration ------------------------------------------------------

    def destination_bucket(self, destination: Hashable) -> TokenBucket:
        """The per-destination token bucket, created on first use."""
        bucket = self._dest_buckets.get(destination)
        if bucket is None:
            bucket = TokenBucket(self.config.bandwidth, self.config.burst,
                                 self.sim.now)
            self._dest_buckets[destination] = bucket
        return bucket

    def set_destination_rate(self, destination: Hashable,
                             rate: float) -> None:
        """Apply a hose coordination decision (Fig. 8's ``B_i``)."""
        self.destination_bucket(destination).set_rate(rate, self.sim.now)
        queue = self._queues.get(destination)
        if queue:
            self._index(destination, queue)
        self._reschedule()

    # -- data path -------------------------------------------------------------

    def destination_backlog(self, destination: Hashable) -> float:
        """Bytes queued in the shaper for one destination."""
        return self._dest_backlog.get(destination, 0.0)

    def submit(self, packet: Any) -> None:
        """Queue a packet for its destination; re-arm only if a head changed."""
        destination = packet.dst
        queue = self._queues.get(destination)
        if queue is None:
            queue = self._queues[destination] = deque()
            self._rank[destination] = len(self._rank)
            self.destination_bucket(destination)  # scans index it directly
        queue.append(packet)
        self.backlog += packet.size
        self._dest_backlog[destination] = (
            self._dest_backlog.get(destination, 0.0) + packet.size)
        if self.backlog_series is not None:
            self.backlog_series.record(self.sim.now, self.backlog)
        # Wake-up invariant: an armed wake-up moves earlier only when a
        # head packet, a destination rate or a bucket balance changed.
        # A packet queued *behind* a head changes none of them, and every
        # head's eligibility is non-decreasing in ``now``, so a rescan
        # could only confirm the armed time (or, through float rounding
        # of a partly filled bucket, undercut it by an ulp or so and arm
        # a spurious second wake-up).
        if len(queue) == 1:
            self._index(destination, queue)
            self._reschedule()
        elif self._armed_at is None:
            self._reschedule()

    def _index(self, destination: Hashable, queue: Deque[Any]) -> None:
        """(Re-)index a destination's head under its own bucket's answer.

        Called wherever that answer can change -- a release from the
        destination, a submit into its empty queue, a re-rate -- so the
        entry replaces the live one and any older entry goes stale.  The
        entry keeps the ``answer`` and the instant ``t`` it was probed
        at: a scan at that same instant reuses it instead of probing the
        unchanged bucket again.
        """
        now = self.sim.now
        answer = self._dest_buckets[destination].would_stamp(
            queue[0].size, now)
        entry = (answer - _TIME_EPS, self._rank[destination], destination,
                 answer, now)
        self._indexed[destination] = entry
        heapq.heappush(self._heads, entry)

    def _earliest_head(self) -> Tuple[Optional[Hashable], float]:
        """``(destination, eligible)`` of the head packet that may leave first.

        A head is eligible at the ``max`` over its three buckets (token
        balances only grow until a debit, so the per-bucket earliest
        times combine with ``max``).  The winner is the minimum of
        ``(eligible, rank)``, ``rank`` being the queue-creation index, so
        ties go to the first-registered destination.  The tenant and
        peak answers depend only on the head's size, so they are probed
        once per distinct size (``shared``).

        Heads are visited in ``(bound, rank)`` order from ``_heads``, a
        lazy-deletion heap holding one live entry per backlogged
        destination: ``bound`` is that destination bucket's
        ``would_stamp(head.size, t)`` at the ``t`` it was indexed, minus
        ``_TIME_EPS``.  Exactness:

        * ``eligible >= bound`` until the entry is replaced.  The bucket
          and the head have not changed since ``t`` (each change
          re-indexes), and ``would_stamp`` is non-decreasing in ``now``
          up to rounding of an ulp or so (docs/ARCHITECTURE.md, the
          one-ulp footnote), far below ``_TIME_EPS``.
        * ``eligible >= shared`` and ``eligible >= now`` (every
          ``would_stamp`` answers at or after ``now``).

        So a head whose ``(shared, rank)`` does not beat the best so far
        is skipped without touching its bucket, and once the next
        ``bound`` -- or both children of the heap's top, below which the
        rest hangs -- is above the best eligible time, no later head can
        win.  The rescan in queue-creation order this replaced computed
        the same ``eligible`` from the same probes and floats, and its own
        skip (``shared >= best``) and exit (a head eligible ``now``)
        only ever dropped heads that could not beat its strict ``<``:
        both return ``argmin(eligible, rank)``.  Visited entries are
        pushed back unchanged; stale ones are dropped at the top.
        """
        now = self.sim.now
        heads, indexed = self._heads, self._indexed
        queues, buckets = self._queues, self._dest_buckets
        tenant, peak = self._tenant, self._peak
        shared_for: Dict[float, float] = {}
        visited = []
        best_dest = None
        best_rank = -1
        best_time = math.inf
        while heads:
            entry = heads[0]
            bound, rank, destination, answer, indexed_at = entry
            if indexed.get(destination) is not entry:
                heapq.heappop(heads)
                continue
            if bound > best_time:
                break
            size = queues[destination][0].size
            shared = shared_for.get(size)
            if shared is None:
                shared = shared_for[size] = max(
                    tenant.would_stamp(size, now), peak.would_stamp(size, now))
            if shared < best_time or (shared == best_time
                                      and rank < best_rank):
                if indexed_at != now:
                    answer = buckets[destination].would_stamp(size, now)
                eligible = max(answer, shared)
                if eligible < best_time or (eligible == best_time
                                            and rank < best_rank):
                    best_dest, best_rank = destination, rank
                    best_time = eligible
            # The rest of the heap hangs below the top's two children.
            if ((len(heads) < 2 or heads[1][0] > best_time)
                    and (len(heads) < 3 or heads[2][0] > best_time)):
                break
            visited.append(heapq.heappop(heads))
        for entry in visited:
            heapq.heappush(heads, entry)
        return best_dest, best_time

    def _reschedule(self) -> None:
        destination, eligible = self._earliest_head()
        if destination is not None:
            self._arm(eligible)

    def _arm(self, eligible: float) -> None:
        if self._armed_at is not None and self._armed_at <= eligible:
            return  # an earlier-or-equal wakeup is already pending
        self._generation += 1
        self._armed_at = eligible
        self.sim.schedule(max(0.0, eligible - self.sim.now), self._fire,
                          self._generation)

    def _fire(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._armed_at = None
        destination, eligible = self._earliest_head()
        if destination is None:
            return
        now = self.sim.now
        if eligible > now + _TIME_EPS:
            self._arm(eligible)
            return
        queue = self._queues[destination]
        packet = queue.popleft()
        self.backlog -= packet.size
        self._dest_backlog[destination] -= packet.size
        self._dest_buckets[destination].stamp(packet.size, now)
        self._tenant.stamp(packet.size, now)
        self._peak.stamp(packet.size, now)
        if queue:
            self._index(destination, queue)
        else:
            del self._indexed[destination]
        if self.backlog_series is not None:
            self.backlog_series.record(now, self.backlog)
        self._release(packet)
        self._reschedule()
