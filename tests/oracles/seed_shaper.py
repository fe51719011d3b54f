# Differential-test oracle: the ``VMShaper`` of ``src/repro/phynet/shaper.py``
# as it stood before the incremental-scheduling rewrite, copied verbatim
# below this header (``git show c2af1cf:src/repro/phynet/shaper.py``; the
# ``Simulator`` annotation now names the sibling oracle ``seed_engine``).
# It rescans every backlogged destination with three token-bucket probes
# on every submit, re-arm and fire; ``tests/phynet/test_shaper_oracle.py``
# drives it beside the live shaper and requires bit-equal output.  Do not
# optimise or "fix" this file: it is the reference, not product code.
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

from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, Optional

from repro.pacer.hierarchy import PacerConfig
from repro.pacer.token_bucket import TokenBucket

from seed_engine import Simulator

#: Slack when testing head-packet eligibility against the current clock:
#: absorbs float error from the schedule()/now round trip.  Simulation
#: times stay near zero, so an absolute epsilon is the right shape here
#: (a relative one would vanish at t=0).
_TIME_EPS = 1e-12


class VMShaper:
    """Hierarchical token-bucket scheduler for one VM's egress."""

    def __init__(self, sim: Simulator, config: PacerConfig,
                 release: Callable[[Any], None]):
        self.sim = sim
        self.config = config
        self._release = release
        self._queues: Dict[Hashable, Deque[Any]] = {}
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
        self._reschedule()

    # -- data path -------------------------------------------------------------

    def destination_backlog(self, destination: Hashable) -> float:
        """Bytes queued in the shaper for one destination."""
        return self._dest_backlog.get(destination, 0.0)

    def submit(self, packet: Any) -> None:
        """Queue a packet for its destination and re-evaluate the schedule."""
        queue = self._queues.get(packet.dst)
        if queue is None:
            queue = deque()
            self._queues[packet.dst] = queue
        queue.append(packet)
        self.backlog += packet.size
        self._dest_backlog[packet.dst] = (
            self._dest_backlog.get(packet.dst, 0.0) + packet.size)
        if self.backlog_series is not None:
            self.backlog_series.record(self.sim.now, self.backlog)
        self._reschedule()

    def _head_eligible_at(self, destination: Hashable, size: float) -> float:
        """Earliest time all three buckets allow a head packet out.

        Token balances only grow until a debit, so the per-bucket earliest
        times can be combined with ``max``.
        """
        now = self.sim.now
        t = self.destination_bucket(destination).would_stamp(size, now)
        t = max(t, self._tenant.would_stamp(size, now))
        return max(t, self._peak.would_stamp(size, now))

    def _best_candidate(self) -> Optional[Hashable]:
        best_dest = None
        best_time = None
        for destination, queue in self._queues.items():
            if not queue:
                continue
            eligible = self._head_eligible_at(destination, queue[0].size)
            if best_time is None or eligible < best_time:
                best_time = eligible
                best_dest = destination
        return best_dest

    def _reschedule(self) -> None:
        destination = self._best_candidate()
        if destination is None:
            return
        queue = self._queues[destination]
        eligible = self._head_eligible_at(destination, queue[0].size)
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
        destination = self._best_candidate()
        if destination is None:
            return
        queue = self._queues[destination]
        packet = queue[0]
        now = self.sim.now
        if self._head_eligible_at(destination, packet.size) > now + _TIME_EPS:
            self._reschedule()
            return
        queue.popleft()
        self.backlog -= packet.size
        self._dest_backlog[destination] -= packet.size
        self.destination_bucket(destination).stamp(packet.size, now)
        self._tenant.stamp(packet.size, now)
        self._peak.stamp(packet.size, now)
        if self.backlog_series is not None:
            self.backlog_series.record(now, self.backlog)
        self._release(packet)
        self._reschedule()
