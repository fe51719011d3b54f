"""Buffered output ports: where queuing (and loss, and marking) happens.

Each port is a strict-priority, drop-tail output queue draining at line
rate.  Optional ECN behaviours:

* ``ecn_threshold`` -- DCTCP-style: packets are marked when the queue they
  join exceeds ``K`` bytes;
* ``phantom_drain`` / ``phantom_threshold`` -- HULL-style phantom queue: a
  virtual counter drains at a fraction of line rate and marks when it
  backs up, keeping the *real* queue near-empty at the cost of bandwidth
  headroom.

Transmit contract: one event per packet per hop.  A port keeps the time
its wire frees (``_free_at``) instead of a tx-done event.  Each queued
packet starts at the instant the wire frees, but the port does that
bookkeeping (pop, counters, ``pkt.tx`` trace, depth record) only when
something next touches it: an :meth:`OutputPort.enqueue`, the next-hop
arrival of its own previous packet (which always fires within one
``prop_delay`` of the next start), :meth:`OutputPort.set_fault_factor`,
or a read (:attr:`OutputPort.stats`, :attr:`OutputPort.queued_bytes`,
:meth:`OutputPort.utilization`, :meth:`OutputPort.settle`).  Between two
touches nothing changes the queue, so a start decided late is the start
an eager port would have made; every number it records carries the
start time.  A touch of a port with nothing queued has nothing to
decide and skips that step.  A packet that reaches an idle wire starts
inside its own :meth:`OutputPort.enqueue`, without the round trip
through the queue, recording the same counters, ``pkt.enqueue`` and
``pkt.tx`` events and depth records in the same order.  Each start
schedules exactly one event, the next-hop arrival at
``start + tx_time + prop_delay``, and schedules it through the engine's
public ``schedule_at``, never onto its heap: a network runs on any loop
with that surface (the seed loop ``tests/oracles/seed_engine.py``
included).

Tie rule, where an eager port's order hung on event sequence numbers:

* at one instant, a port decides its departure before the enqueue, fault
  or read that touches it;
* arrivals due at the same instant fire in the order their transmissions
  were decided.

``pkt.tx`` trace events carry their start time but are emitted at the
deciding touch, so a trace is time-ordered per port, not across ports.
A depth series and a trace are complete up to the horizon once the port
has been read after the run (:meth:`PacketNetwork.port_stats
<repro.phynet.network.PacketNetwork.port_stats>` settles every port).
The eager port is the differential oracle ``tests/oracles/seed_port.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional

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
                 "_stats", "_queues", "_queued_bytes", "_class_queued",
                 "_free_at",
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
        # Written so NaN fails too: every comparison with NaN is false.
        if not 0 < capacity < math.inf:
            raise ValueError("port capacity must be positive and finite")
        if not 0 < buffer_bytes < math.inf:
            raise ValueError("port buffer must be positive and finite")
        if not prop_delay >= 0:
            raise ValueError("port propagation delay must be >= 0")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.buffer_bytes = buffer_bytes
        self.prop_delay = prop_delay
        self.ecn_threshold = ecn_threshold
        self.phantom_drain = phantom_drain
        self.phantom_threshold = phantom_threshold
        self._stats = PortStats()
        self._queues: tuple = tuple(deque() for _ in range(N_CLASSES))
        self._queued_bytes = 0.0
        self._class_queued = [0.0] * N_CLASSES
        # When the wire finishes the last packet started on it; the next
        # queued packet starts then (see the module docstring).
        self._free_at = sim.now
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
        now = self.sim.now
        queues = self._queues
        if self._free_at <= now and (queues[0] or queues[1]):
            self._start_due(now)
        stats = self._stats
        size = packet.size
        priority = packet.priority
        if self._down:
            stats.fault_drops += 1
            stats.fault_dropped_bytes += size
            if self.tracer is not None:
                self.tracer.emit(PacketDrop(
                    time=now, port=self.name, size=size,
                    priority=priority, reason="fault"))
            if packet.flow is not None:
                packet.flow.on_drop(packet)
            return
        queued = self._queued_bytes + size
        if queued > self.buffer_bytes:
            if priority == 0:
                self._push_out_best_effort(size)
                queued = self._queued_bytes + size
            if queued > self.buffer_bytes:
                stats.drops += 1
                stats.dropped_bytes += size
                stats.class_drops[priority] += 1
                stats.class_dropped_bytes[priority] += size
                if self.tracer is not None:
                    self.tracer.emit(PacketDrop(
                        time=now, port=self.name, size=size,
                        priority=priority, reason="tail"))
                if packet.flow is not None:
                    packet.flow.on_drop(packet)
                return
        self._queued_bytes = queued
        class_queued = self._class_queued
        priority_queued = class_queued[priority] + size
        class_queued[priority] = priority_queued
        # Marking sees the queue the packet joins *including itself*:
        # DCTCP/HULL mark on the instantaneous occupancy at arrival, so
        # the packet that takes the queue past K is the first one marked.
        if self.ecn_threshold is not None or self.phantom_drain is not None:
            self._mark_if_needed(packet)
        if queued > stats.max_queue_bytes:
            stats.max_queue_bytes = queued
        if priority_queued > stats.class_max_queue_bytes[priority]:
            stats.class_max_queue_bytes[priority] = priority_queued
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(PacketEnqueue(
                time=now, port=self.name, size=size,
                priority=priority, queued_bytes=queued))
        series = self.depth_series
        if series is not None:
            series.record(now, queued)
        if self._free_at > now:
            queues[priority].append(packet)
            return
        # The wire is idle, so the queue held nothing before this packet:
        # it starts now, with the numbers _start_due would record for it
        # had it gone through the queue.
        self._queued_bytes = queued = queued - size
        class_queued[priority] = priority_queued - size
        tx_time = size / self._effective_capacity
        stats.tx_packets += 1
        stats.tx_bytes += size
        stats.busy_time += tx_time
        if tracer is not None:
            tracer.emit(PacketTx(
                time=now, port=self.name, size=size, priority=priority,
                queued_bytes=queued))
        if series is not None:
            series.record(now, queued)
        self._free_at = free_at = now + tx_time
        self.sim.schedule_at(free_at + self.prop_delay,
                             self._arrive_next_hop, packet)

    def _push_out_best_effort(self, needed: float) -> None:
        """Evict queued best-effort packets to fit a guaranteed one.

        Evictions are class protection, not congestion loss: they land in
        ``stats.pushouts``, never in ``stats.drops``.
        """
        queue = self._queues[1]
        stats = self._stats
        while queue and self._queued_bytes + needed > self.buffer_bytes:
            victim = queue.pop()
            self._queued_bytes -= victim.size
            self._class_queued[victim.priority] -= victim.size
            stats.pushouts += 1
            stats.pushed_out_bytes += victim.size
            stats.class_pushouts[victim.priority] += 1
            stats.class_pushed_out_bytes[victim.priority] += victim.size
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
            self._stats.ecn_marks += 1
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
                self._stats.ecn_marks += 1
                if self.tracer is not None:
                    self.tracer.emit(PacketMark(
                        time=now, port=self.name, size=packet.size,
                        queue="phantom",
                        queued_bytes=self._phantom_bytes))

    # -- transmit path -------------------------------------------------------

    def _start_due(self, now: float) -> None:
        """Start, in strict-priority order, every queued packet whose
        wire frees at or before ``now``; each start is recorded at its
        own time and schedules its next-hop arrival.  A down port starts
        nothing: its queue freezes until set_fault_factor restores it."""
        if self._down:
            return
        queues = self._queues
        stats = self._stats
        class_queued = self._class_queued
        queued_bytes = self._queued_bytes
        capacity = self._effective_capacity
        tracer = self.tracer
        series = self.depth_series
        schedule_at = self.sim.schedule_at
        arrive = self._arrive_next_hop
        prop_delay = self.prop_delay
        free_at = self._free_at
        while free_at <= now:
            for queue in queues:
                if queue:
                    packet = queue.popleft()
                    break
            else:
                break
            size = packet.size
            queued_bytes -= size
            class_queued[packet.priority] -= size
            tx_time = size / capacity
            stats.tx_packets += 1
            stats.tx_bytes += size
            stats.busy_time += tx_time
            if tracer is not None:
                tracer.emit(PacketTx(
                    time=free_at, port=self.name, size=size,
                    priority=packet.priority, queued_bytes=queued_bytes))
            if series is not None:
                series.record(free_at, queued_bytes)
            free_at += tx_time
            schedule_at(free_at + prop_delay, arrive, packet)
        self._queued_bytes = queued_bytes
        self._free_at = free_at

    def _arrive_next_hop(self, packet: Packet) -> None:
        queues = self._queues
        if queues[0] or queues[1]:
            now = self.sim.now
            if self._free_at <= now:
                self._start_due(now)
        # Packet.advance and Packet.next_port, inline: this runs on
        # every hop of every packet.
        hop = packet.hop + 1
        packet.hop = hop
        route = packet.route
        if hop < len(route):
            route[hop].enqueue(packet)
        elif self.on_delivery is not None:
            self.on_delivery(packet)

    def settle(self) -> None:
        """Decide every departure due by now (see the module docstring);
        reads call it, so only code that reads a port's depth series or
        trace without reading the port needs it."""
        now = self.sim.now
        if self._free_at <= now:
            self._start_due(now)

    # -- fault injection ----------------------------------------------------------

    def set_fault_factor(self, factor: float) -> None:
        """Apply a fault (or repair) to this port's service capacity.

        ``factor`` is the capacity multiplier: 0 takes the port down
        (arrivals dropped, queue frozen), values in ``(0, 1)`` degrade
        the serialization rate, 1 restores full health.  A packet
        already serializing finishes at the rate it started with -- it
        is on the wire; the new rate applies from the next packet.
        Restoring a port with queued packets resumes draining once the
        wire is free.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("fault factor must be in [0, 1]")
        now = self.sim.now
        self.settle()
        was_down = self._down
        self._down = factor <= 0.0
        if not self._down:
            self._effective_capacity = self.capacity * factor
        if was_down and not self._down:
            if self._free_at < now:
                self._free_at = now
            self._start_due(now)

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
    def stats(self) -> PortStats:
        """Counters up to now (reading settles the port)."""
        self.settle()
        return self._stats

    @property
    def queued_bytes(self) -> float:
        """Bytes currently queued at the port."""
        self.settle()
        return self._queued_bytes

    def class_queued_bytes(self, priority: int) -> float:
        """Bytes currently queued in one strict-priority traffic class."""
        self.settle()
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
