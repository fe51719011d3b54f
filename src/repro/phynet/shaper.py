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

A wake-up carries its winner: the scan that arms it also proves, when it
can, that no other head can come within ``2 * _TIME_EPS`` of the winning
time, and the wake-up then releases that destination's head without a
second scan (:meth:`VMShaper._earliest_head`; docs/ARCHITECTURE.md,
"Shaper scheduling contract").
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
        #: The destination the armed wake-up releases without a scan, or
        #: ``None`` if it must rescan (see :meth:`_arm`).
        self._armed_winner: Optional[Hashable] = None
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

    def _earliest_head(self) -> Tuple[Optional[Hashable], float, bool]:
        """``(destination, eligible, clear)`` of the head that may leave first.

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

        ``clear`` says no other live head can come near the winner:
        ``floor``, the least lower bound on a losing head's eligibility
        the scan saw -- its computed ``eligible``, ``shared`` for a head
        skipped unprobed, the ``bound`` of the entry or the two children
        where it stopped -- is above ``eligible + 2 * _TIME_EPS``.  Until
        a head, rate or balance changes, the winner's own eligibility
        stays within rounding of ``eligible`` and every other head's at
        or above its bound, so a scan at the wake-up would return the
        same destination, eligible then: :meth:`_fire` releases it
        without scanning.
        """
        now = self.sim.now
        heads, indexed = self._heads, self._indexed
        queues, buckets = self._queues, self._dest_buckets
        tenant, peak = self._tenant, self._peak
        shared_for: Dict[float, float] = {}
        visited = []
        best_dest = None
        best_rank = -1
        best_time = floor = math.inf
        while heads:
            entry = heads[0]
            bound, rank, destination, answer, indexed_at = entry
            if indexed.get(destination) is not entry:
                heapq.heappop(heads)
                continue
            if bound > best_time:
                if bound < floor:
                    floor = bound
                break
            size = queues[destination][0].size
            shared = shared_for.get(size)
            if shared is None:
                # max() inline, here and for ``eligible``: a tie keeps
                # the first argument's float, as max does.
                shared = tenant.would_stamp(size, now)
                peak_at = peak.would_stamp(size, now)
                if peak_at > shared:
                    shared = peak_at
                shared_for[size] = shared
            if shared < best_time or (shared == best_time
                                      and rank < best_rank):
                if indexed_at != now:
                    answer = buckets[destination].would_stamp(size, now)
                eligible = shared if shared > answer else answer
                if eligible < best_time or (eligible == best_time
                                            and rank < best_rank):
                    if best_time < floor:
                        floor = best_time
                    best_dest, best_rank = destination, rank
                    best_time = eligible
                elif eligible < floor:
                    floor = eligible
            elif shared < floor:
                floor = shared
            # The rest of the heap hangs below the top's two children.
            n = len(heads)
            if ((n < 2 or heads[1][0] > best_time)
                    and (n < 3 or heads[2][0] > best_time)):
                if n >= 2 and heads[1][0] < floor:
                    floor = heads[1][0]
                if n >= 3 and heads[2][0] < floor:
                    floor = heads[2][0]
                break
            visited.append(heapq.heappop(heads))
        for entry in visited:
            heapq.heappush(heads, entry)
        return best_dest, best_time, floor > best_time + 2 * _TIME_EPS

    def _reschedule(self) -> None:
        destination, eligible, clear = self._earliest_head()
        if destination is not None:
            self._arm(eligible, destination if clear else None)

    def _arm(self, eligible: float, winner: Optional[Hashable]) -> None:
        """Arm a wake-up at ``eligible`` that releases ``winner``'s head
        without a scan (``None``: it rescans).

        A pending wake-up at or before ``eligible`` stays, but the scan
        that led here followed a change to a head, a rate or a balance,
        so the pending one keeps its winner only if this scan confirms
        the same destination at the same time, clear.
        """
        armed = self._armed_at
        if armed is not None and armed <= eligible:
            if armed != eligible or winner != self._armed_winner:
                self._armed_winner = None
            return
        self._generation += 1
        self._armed_at = eligible
        self._armed_winner = winner
        self.sim.schedule(max(0.0, eligible - self.sim.now), self._fire,
                          self._generation)

    def _fire(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._armed_at = None
        now = self.sim.now
        destination = self._armed_winner
        if destination is None:
            destination, eligible, clear = self._earliest_head()
            if destination is None:
                return
            if eligible > now + _TIME_EPS:
                self._arm(eligible, destination if clear else None)
                return
        queue = self._queues[destination]
        packet = queue.popleft()
        size = packet.size
        self.backlog -= size
        self._dest_backlog[destination] -= size
        self._dest_buckets[destination].stamp(size, now)
        self._tenant.stamp(size, now)
        self._peak.stamp(size, now)
        if queue:
            self._index(destination, queue)
        else:
            del self._indexed[destination]
        if self.backlog_series is not None:
            self.backlog_series.record(now, self.backlog)
        self._release(packet)
        self._reschedule()
