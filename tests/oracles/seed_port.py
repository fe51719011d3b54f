# Differential-test oracle: the ``OutputPort`` of ``src/repro/phynet/port.py``
# as it stood before the port went lazy, copied verbatim below this header
# (``git show 4f76c47:src/repro/phynet/port.py``).  It schedules two events
# per packet per hop -- a tx-done at ``tx_time``, then the next-hop arrival
# ``prop_delay`` later -- and decides every departure at its own tx-done
# event.  ``tests/phynet/test_port_oracle.py`` drives it beside the live
# port on tie-free scripts and requires bit-equal output, and
# ``tests/core/test_engine_equivalence.py`` patches it into
# ``repro.phynet.network`` to replay the pre-port golden digests.  Do not
# optimise or "fix" this file: it is the reference, not product code.
"""Buffered output ports: where queuing (and loss, and marking) happens.

Each port is a strict-priority, drop-tail output queue draining at line
rate.  Optional ECN behaviours:

* ``ecn_threshold`` -- DCTCP-style: packets are marked when the queue they
  join exceeds ``K`` bytes;
* ``phantom_drain`` / ``phantom_threshold`` -- HULL-style phantom queue: a
  virtual counter drains at a fraction of line rate and marks when it
  backs up, keeping the *real* queue near-empty at the cost of bandwidth
  headroom.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro import units
from repro.core.engine import EventEngine
from repro.obs.events import PacketDrop, PacketEnqueue, PacketMark, PacketTx
from repro.phynet.packet import Packet

#: Per-hop propagation plus switching latency (short datacenter cables).
DEFAULT_PROP_DELAY = 0.5 * units.MICROS


#: Number of strict-priority traffic classes per port (802.1q split:
#: index 0 guaranteed, index 1 best-effort / speculative).
N_CLASSES = 2


def _zero_counts() -> List[int]:
    """Fresh per-class integer counters (one slot per traffic class)."""
    return [0] * N_CLASSES


def _zero_bytes() -> List[float]:
    """Fresh per-class byte counters (one slot per traffic class)."""
    return [0.0] * N_CLASSES


@dataclass
class PortStats:
    """Counters accumulated over a simulation run.

    ``drops`` counts congestion (tail) loss only; best-effort packets
    evicted to protect an arriving guaranteed-class packet are counted
    separately in ``pushouts``, and packets arriving at a failed port in
    ``fault_drops`` -- conflating them would make Silo's class protection
    or injected faults read as congestion loss in every exported metric.

    The ``class_*`` lists split the same events by strict-priority
    traffic class (index = :attr:`~repro.phynet.packet.Packet.priority`):
    with SWP's speculative duplicates riding the best-effort class, a
    spec-copy drop must stay distinguishable from congestion loss of
    guaranteed traffic.  Invariant: each aggregate counter equals the sum
    of its per-class list.
    """

    tx_packets: int = 0
    tx_bytes: float = 0.0
    drops: int = 0
    dropped_bytes: float = 0.0
    pushouts: int = 0
    pushed_out_bytes: float = 0.0
    fault_drops: int = 0
    fault_dropped_bytes: float = 0.0
    ecn_marks: int = 0
    max_queue_bytes: float = 0.0
    busy_time: float = 0.0
    class_drops: List[int] = field(default_factory=_zero_counts)
    class_dropped_bytes: List[float] = field(default_factory=_zero_bytes)
    class_pushouts: List[int] = field(default_factory=_zero_counts)
    class_pushed_out_bytes: List[float] = field(
        default_factory=_zero_bytes)
    class_max_queue_bytes: List[float] = field(default_factory=_zero_bytes)


class OutputPort:
    """One directed line-rate output queue."""

    __slots__ = ("sim", "name", "capacity", "buffer_bytes", "prop_delay",
                 "ecn_threshold", "phantom_drain", "phantom_threshold",
                 "stats", "_queues", "_queued_bytes", "_class_queued",
                 "_busy",
                 "_phantom_bytes", "_phantom_updated", "on_delivery",
                 "tracer", "depth_series", "_down", "_effective_capacity")

    def __init__(self, sim: EventEngine, name: str, capacity: float,
                 buffer_bytes: float,
                 prop_delay: float = DEFAULT_PROP_DELAY,
                 ecn_threshold: Optional[float] = None,
                 phantom_drain: Optional[float] = None,
                 phantom_threshold: Optional[float] = None,
                 on_delivery: Optional[Callable[[Packet], None]] = None,
                 tracer=None):
        if capacity <= 0:
            raise ValueError("port capacity must be positive")
        if buffer_bytes <= 0:
            raise ValueError("port buffer must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.buffer_bytes = buffer_bytes
        self.prop_delay = prop_delay
        self.ecn_threshold = ecn_threshold
        self.phantom_drain = phantom_drain
        self.phantom_threshold = phantom_threshold
        self.stats = PortStats()
        self._queues: tuple = tuple(deque() for _ in range(N_CLASSES))
        self._queued_bytes = 0.0
        self._class_queued = [0.0] * N_CLASSES
        self._busy = False
        self._phantom_bytes = 0.0
        # The phantom queue's drain clock starts at the port's creation
        # time, not 0.0: a port built mid-run must not begin life with a
        # huge phantom drain credit window already elapsed.
        self._phantom_updated = sim.now
        # Fault-injection state (see set_fault_factor): a down port gives
        # zero-rate service -- arrivals are dropped, queued packets stay
        # put until repair; a degraded port serializes at a fraction of
        # line rate.  Healthy ports never touch either branch beyond one
        # flag test.
        self._down = False
        self._effective_capacity = capacity
        self.on_delivery = on_delivery
        #: Optional :class:`repro.obs.TraceSink` receiving pkt.* events.
        self.tracer = tracer
        #: Optional :class:`repro.obs.TimeSeries` recording queue depth
        #: (bytes) on every enqueue/dequeue/eviction.
        self.depth_series = None

    # -- enqueue path ------------------------------------------------------

    def enqueue(self, packet: Packet) -> None:
        """Priority-aware drop-tail admission, ECN marking, transmission.

        A guaranteed-class packet arriving at a buffer filled by
        best-effort traffic pushes best-effort packets out (802.1q
        switches partition or push out across classes; plain shared
        drop-tail would let best-effort tenants inflict loss on
        guaranteed ones).

        Packets arriving at a *failed* port are dropped outright (a dead
        link delivers nothing), counted in ``stats.fault_drops`` rather
        than congestion ``drops``.
        """
        if self._down:
            self.stats.fault_drops += 1
            self.stats.fault_dropped_bytes += packet.size
            if self.tracer is not None:
                self.tracer.emit(PacketDrop(
                    time=self.sim.now, port=self.name, size=packet.size,
                    priority=packet.priority, reason="fault"))
            if packet.flow is not None:
                packet.flow.on_drop(packet)
            return
        if self._queued_bytes + packet.size > self.buffer_bytes:
            if packet.priority == 0:
                self._push_out_best_effort(packet.size)
            if self._queued_bytes + packet.size > self.buffer_bytes:
                self.stats.drops += 1
                self.stats.dropped_bytes += packet.size
                self.stats.class_drops[packet.priority] += 1
                self.stats.class_dropped_bytes[packet.priority] \
                    += packet.size
                if self.tracer is not None:
                    self.tracer.emit(PacketDrop(
                        time=self.sim.now, port=self.name,
                        size=packet.size, priority=packet.priority,
                        reason="tail"))
                if packet.flow is not None:
                    packet.flow.on_drop(packet)
                return
        self._queues[packet.priority].append(packet)
        self._queued_bytes += packet.size
        self._class_queued[packet.priority] += packet.size
        # Marking sees the queue the packet joins *including itself*:
        # DCTCP/HULL mark on the instantaneous occupancy at arrival, so
        # the packet that takes the queue past K is the first one marked.
        self._mark_if_needed(packet)
        if self._queued_bytes > self.stats.max_queue_bytes:
            self.stats.max_queue_bytes = self._queued_bytes
        if (self._class_queued[packet.priority]
                > self.stats.class_max_queue_bytes[packet.priority]):
            self.stats.class_max_queue_bytes[packet.priority] = \
                self._class_queued[packet.priority]
        if self.tracer is not None:
            self.tracer.emit(PacketEnqueue(
                time=self.sim.now, port=self.name, size=packet.size,
                priority=packet.priority, queued_bytes=self._queued_bytes))
        if self.depth_series is not None:
            self.depth_series.record(self.sim.now, self._queued_bytes)
        if not self._busy:
            self._transmit_next()

    def _push_out_best_effort(self, needed: float) -> None:
        """Evict queued best-effort packets to fit a guaranteed one.

        Evictions are class protection, not congestion loss: they land in
        ``stats.pushouts``, never in ``stats.drops``.
        """
        queue = self._queues[1]
        while queue and self._queued_bytes + needed > self.buffer_bytes:
            victim = queue.pop()
            self._queued_bytes -= victim.size
            self._class_queued[victim.priority] -= victim.size
            self.stats.pushouts += 1
            self.stats.pushed_out_bytes += victim.size
            self.stats.class_pushouts[victim.priority] += 1
            self.stats.class_pushed_out_bytes[victim.priority] \
                += victim.size
            if self.tracer is not None:
                self.tracer.emit(PacketDrop(
                    time=self.sim.now, port=self.name, size=victim.size,
                    priority=victim.priority, reason="pushout"))
            if victim.flow is not None:
                victim.flow.on_drop(victim)
        if self.depth_series is not None:
            self.depth_series.record(self.sim.now, self._queued_bytes)

    def _mark_if_needed(self, packet: Packet) -> None:
        if (self.ecn_threshold is not None
                and self._queued_bytes > self.ecn_threshold):
            packet.ecn = True
            self.stats.ecn_marks += 1
            if self.tracer is not None:
                self.tracer.emit(PacketMark(
                    time=self.sim.now, port=self.name, size=packet.size,
                    queue="queue", queued_bytes=self._queued_bytes))
        if self.phantom_drain is not None:
            now = self.sim.now
            drained = self.phantom_drain * (now - self._phantom_updated)
            self._phantom_bytes = max(0.0, self._phantom_bytes - drained)
            self._phantom_updated = now
            self._phantom_bytes += packet.size
            if (self.phantom_threshold is not None
                    and self._phantom_bytes > self.phantom_threshold):
                packet.ecn = True
                self.stats.ecn_marks += 1
                if self.tracer is not None:
                    self.tracer.emit(PacketMark(
                        time=now, port=self.name, size=packet.size,
                        queue="phantom",
                        queued_bytes=self._phantom_bytes))

    # -- transmit path -------------------------------------------------------

    def _transmit_next(self) -> None:
        if self._down:
            # Zero-rate service: the queue freezes (nothing is lost from
            # it) until set_fault_factor restores the port and re-kicks
            # transmission.
            self._busy = False
            return
        packet = None
        for queue in self._queues:
            if queue:
                packet = queue.popleft()
                break
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._queued_bytes -= packet.size
        self._class_queued[packet.priority] -= packet.size
        tx_time = packet.size / self._effective_capacity
        self.stats.tx_packets += 1
        self.stats.tx_bytes += packet.size
        self.stats.busy_time += tx_time
        if self.tracer is not None:
            self.tracer.emit(PacketTx(
                time=self.sim.now, port=self.name, size=packet.size,
                priority=packet.priority, queued_bytes=self._queued_bytes))
        if self.depth_series is not None:
            self.depth_series.record(self.sim.now, self._queued_bytes)
        self.sim.schedule(tx_time, self._transmit_done, packet)

    def _transmit_done(self, packet: Packet) -> None:
        self.sim.schedule(self.prop_delay, self._arrive_next_hop, packet)
        self._transmit_next()

    def _arrive_next_hop(self, packet: Packet) -> None:
        packet.advance()
        next_port = packet.next_port()
        if next_port is not None:
            next_port.enqueue(packet)
        elif self.on_delivery is not None:
            self.on_delivery(packet)

    # -- fault injection ----------------------------------------------------------

    def set_fault_factor(self, factor: float) -> None:
        """Apply a fault (or repair) to this port's service capacity.

        ``factor`` is the capacity multiplier: 0 takes the port down
        (arrivals dropped, queue frozen), values in ``(0, 1)`` degrade
        the serialization rate, 1 restores full health.  A packet
        already serializing finishes at the rate it started with -- it
        is on the wire; the new rate applies from the next packet.
        Restoring an idle port with queued packets resumes draining
        immediately.
        """
        if factor < 0 or factor > 1:
            raise ValueError("fault factor must be in [0, 1]")
        was_down = self._down
        self._down = factor <= 0.0
        if not self._down:
            self._effective_capacity = self.capacity * factor
        if was_down and not self._down and not self._busy:
            self._transmit_next()

    @property
    def is_down(self) -> bool:
        """Whether the port is failed (transmits nothing)."""
        return self._down

    @property
    def fault_factor(self) -> float:
        """Current capacity multiplier (0 when down)."""
        if self._down:
            return 0.0
        return self._effective_capacity / self.capacity

    # -- inspection ---------------------------------------------------------------

    @property
    def queued_bytes(self) -> float:
        """Bytes currently queued at the port."""
        return self._queued_bytes

    def class_queued_bytes(self, priority: int) -> float:
        """Bytes currently queued in one strict-priority traffic class."""
        return self._class_queued[priority]

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the port spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(self.stats.busy_time / elapsed, 1.0)

    def __repr__(self) -> str:
        return (f"OutputPort({self.name} "
                f"{units.to_gbps(self.capacity):.1f}Gbps "
                f"queued={self._queued_bytes:.0f}B)")
