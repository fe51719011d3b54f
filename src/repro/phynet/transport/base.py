"""Reliable, message-oriented transport base (TCP Reno mechanics).

One :class:`Transport` instance handles one VM pair (one "flow" in the
paper's terminology); applications multiplex *messages* onto it, exactly as
cloud applications multiplex messages onto long-lived connections (the
paper's footnote 1).  The base class implements standard Reno: slow start,
congestion avoidance, fast retransmit on three duplicate ACKs, and
retransmission timeouts with exponential backoff.  DCTCP and HULL override
the ECN reaction.

Sequence numbers count segments, not bytes; segments are MSS-sized except
a message's last one, and the receiver delivers in order, completing a
message when its final segment is consumed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import units
from repro.obs.events import FlowFinish
from repro.phynet.metrics import MessageRecord
from repro.phynet.packet import ACK_BYTES, HEADER_BYTES, Packet

#: Payload bytes of a full segment.
MSS = units.MTU - HEADER_BYTES
#: Minimum / initial retransmission timeout.  Datacenter stacks run with
#: a reduced min-RTO (the paper's testbed default is 200 ms).
MIN_RTO = 10 * units.MILLIS
#: Initial congestion window, segments.
INIT_CWND = 10.0
#: Event-time slop for deadline comparisons.  Simulation times sit in
#: the micro-to-millisecond range, so 1e-12 s is far below one ulp of
#: any deadline yet far above accumulated scheduling error.
_TIME_EPS = 1e-12


class Segment:
    """Sender-side bookkeeping for one MSS-or-smaller chunk."""

    __slots__ = ("seq", "size", "record", "is_last", "send_time",
                 "retransmitted")

    def __init__(self, seq: int, size: float, record: MessageRecord,
                 is_last: bool):
        self.seq = seq
        self.size = size
        self.record = record
        self.is_last = is_last
        self.send_time: Optional[float] = None
        self.retransmitted = False


class Transport:
    """One reliable unidirectional data flow between two VMs.

    The reverse direction carries only ACKs.  Use one instance per ordered
    VM pair; a bidirectional exchange (request/response) uses two.
    """

    #: The ECN reaction each ACK runs before its window update, called as
    #: ``(ecn_echo, ack_seq)``; ``None`` for Reno, which ignores ECN.
    #: DCTCP defines it as a method.
    _on_ecn_feedback: Optional[Callable[[bool, int], None]] = None

    def __init__(self, network: Any, src_vm: int, dst_vm: int,
                 priority: int):
        self.network = network
        self.sim = network.sim
        self.src_vm = src_vm
        self.dst_vm = dst_vm
        self.priority = priority
        #: Whether the network may hold this sender back
        #: (``network.sender_ready``); a :class:`PacketNetwork` clears it
        #: for a sender without a shaper.
        self.backpressured = True

        # Sender state.
        self.cwnd = INIT_CWND
        self.ssthresh = float("inf")
        self.next_seq = 0
        self.snd_una = 0
        self.dup_acks = 0
        self.send_queue: Deque[Segment] = deque()
        self.in_flight: Dict[int, Segment] = {}
        self.rto = MIN_RTO
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._rto_deadline: Optional[float] = None
        self._rto_pending = False
        self.rto_count = 0
        self._recovery_until = -1
        self.highest_sent = -1
        # The ports a data segment and an ACK cross, resolved on first
        # use: resolving them here would build ports no traffic has
        # reached yet.
        self._data_route: Optional[List[Any]] = None
        self._ack_route: Optional[List[Any]] = None

        # Receiver state.
        self.rcv_next = 0
        self.ooo_buffer: Dict[int, Tuple[float, bool, MessageRecord]] = {}
        self.delivered_bytes = 0.0

    # ------------------------------------------------------------------ sender

    def send_message(self, record: MessageRecord) -> None:
        """Segment a message and start transmitting within the window."""
        remaining = record.size
        if remaining <= 0:
            raise ValueError("message size must be positive")
        while remaining > 0:
            size = min(MSS, remaining)
            remaining -= size
            segment = Segment(self.next_seq, size, record,
                              is_last=(remaining <= 0))
            self.send_queue.append(segment)
            self.next_seq += 1
        self._pump()

    def _pump(self) -> None:
        """Send new segments while the window and the shaper have room.

        The second condition is the hypervisor's send-completion
        backpressure: when the VM's shaper queue is full the guest stack
        pauses rather than overrunning it, and resumes when notified.
        """
        while self.send_queue and len(self.in_flight) < int(self.cwnd):
            if (self.backpressured
                    and not self.network.sender_ready(self.src_vm,
                                                      self.dst_vm)):
                self.network.notify_when_ready(self.src_vm, self.dst_vm,
                                               self._pump)
                return
            segment = self.send_queue.popleft()
            self._transmit_segment(segment)

    def _transmit_segment(self, segment: Segment) -> None:
        segment.send_time = self.sim.now
        self.in_flight[segment.seq] = segment
        if segment.seq > self.highest_sent:
            self.highest_sent = segment.seq
        route = self._data_route
        if route is None:
            route = self._data_route = self.network.route(self.src_vm,
                                                          self.dst_vm)
        packet = Packet(
            src=self.src_vm, dst=self.dst_vm,
            size=segment.size + HEADER_BYTES, route=route,
            flow=self, priority=self.priority,
            payload=("data", segment.seq, segment.is_last, segment.record))
        packet.sent_time = self.sim.now
        self.network.transmit(packet, self.src_vm)
        self._arm_rto()

    # --------------------------------------------------------------- receiver

    def on_data(self, packet: Packet) -> None:
        """Called by the network when a data packet reaches ``dst_vm``."""
        _kind, seq, is_last, record = packet.payload
        if seq >= self.rcv_next and seq not in self.ooo_buffer:
            self.ooo_buffer[seq] = (packet.size - HEADER_BYTES, is_last,
                                    record)
        # Deliver in order.
        while self.rcv_next in self.ooo_buffer:
            size, last, rec = self.ooo_buffer.pop(self.rcv_next)
            self.delivered_bytes += size
            self.rcv_next += 1
            if last and rec is not None and rec.finish is None:
                rec.finish = self.sim.now
                tracer = self.network.tracer
                if tracer is not None:
                    tracer.emit(FlowFinish(
                        time=rec.finish, tenant_id=rec.tenant_id,
                        src=rec.src_vm, dst=rec.dst_vm,
                        latency=rec.finish - rec.start, size=rec.size))
                if rec.on_complete is not None:
                    rec.on_complete(rec)
        self._send_ack(ecn_echo=packet.ecn)

    def _send_ack(self, ecn_echo: bool) -> None:
        route = self._ack_route
        if route is None:
            route = self._ack_route = self.network.route(self.dst_vm,
                                                         self.src_vm)
        ack = Packet(
            src=self.dst_vm, dst=self.src_vm, size=ACK_BYTES, route=route,
            flow=self, priority=self.priority, is_control=True,
            payload=("ack", self.rcv_next, ecn_echo, None))
        self.network.transmit(ack, self.dst_vm)

    # ------------------------------------------------------------------- ACK path

    def on_ack(self, packet: Packet) -> None:
        """Called by the network when an ACK reaches the sender."""
        _kind, ack_seq, ecn_echo, _ = packet.payload
        if self._on_ecn_feedback is not None:
            self._on_ecn_feedback(ecn_echo, ack_seq)
        if ack_seq > self.snd_una:
            newly_acked = 0
            rtt_sample = None
            for seq in range(self.snd_una, ack_seq):
                segment = self.in_flight.pop(seq, None)
                if segment is not None:
                    newly_acked += 1
                    if not segment.retransmitted and segment.send_time is not None:
                        rtt_sample = self.sim.now - segment.send_time
            self.snd_una = ack_seq
            self.dup_acks = 0
            if rtt_sample is not None:
                self._update_rtt(rtt_sample)
            self._on_new_ack(newly_acked)
            if self.snd_una < self._recovery_until:
                # NewReno: a partial ACK during recovery exposes the next
                # hole; retransmit it immediately instead of stalling for
                # three dupacks or a timeout per loss.
                hole = self.in_flight.get(self.snd_una)
                if hole is not None:
                    hole.retransmitted = True
                    self._retransmit(hole)
            if self.in_flight:
                self._arm_rto()
            else:
                self._cancel_rto()
            self._pump()
        elif self.in_flight:
            self.dup_acks += 1
            if self.dup_acks == 3:
                self._fast_retransmit()

    def _on_new_ack(self, newly_acked: int) -> None:
        """Reno window growth; subclasses may extend."""
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / self.cwnd
        # The one RTO update of an ACK (RFC 6298 from srtt/rttvar).
        srtt = self.srtt
        self.rto = (MIN_RTO if srtt is None
                    else max(MIN_RTO, srtt + 4.0 * self.rttvar))

    def _fast_retransmit(self) -> None:
        if self.snd_una >= self._recovery_until:
            self.ssthresh = max(len(self.in_flight) / 2.0, 2.0)
            self.cwnd = self.ssthresh
            self._recovery_until = self.next_seq
        segment = self.in_flight.get(self.snd_una)
        if segment is not None:
            segment.retransmitted = True
            self._retransmit(segment)

    def _retransmit(self, segment: Segment) -> None:
        # Only a segment _transmit_segment sent comes back here, so the
        # data route is resolved.
        packet = Packet(
            src=self.src_vm, dst=self.dst_vm,
            size=segment.size + HEADER_BYTES, route=self._data_route,
            flow=self, priority=self.priority,
            payload=("data", segment.seq, segment.is_last, segment.record))
        segment.send_time = self.sim.now
        self.network.transmit(packet, self.src_vm)
        self._arm_rto()

    # ----------------------------------------------------------------------- RTO

    def _update_rtt(self, sample: float) -> None:
        """Fold an RTT sample into ``srtt``/``rttvar``; the RTO they give
        is set by :meth:`_on_new_ack`, which follows on every new ACK."""
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    def _arm_rto(self) -> None:
        """Push the retransmission deadline out; lazily (re)schedule.

        Keeping at most one pending timer event per flow (and extending it
        lazily when it fires early) keeps the event heap small even at
        millions of packets per second.
        """
        self._rto_deadline = self.sim.now + self.rto
        if not self._rto_pending:
            self._rto_pending = True
            self.sim.schedule(self.rto, self._rto_fire)

    def _cancel_rto(self) -> None:
        self._rto_deadline = None

    def _rto_fire(self) -> None:
        self._rto_pending = False
        if self._rto_deadline is None or not self.in_flight:
            return
        if self.sim.now < self._rto_deadline - _TIME_EPS:
            # The deadline moved (ACKs arrived); sleep out the remainder.
            self._rto_pending = True
            self.sim.schedule(self._rto_deadline - self.sim.now,
                              self._rto_fire)
            return
        self.rto_count += 1
        oldest = min(self.in_flight)
        segment = self.in_flight[oldest]
        segment.record.rto_events += 1
        segment.retransmitted = True
        self.ssthresh = max(len(self.in_flight) / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.rto = min(self.rto * 2.0, 2.0)
        self._recovery_until = self.next_seq
        self._retransmit(segment)

    # ------------------------------------------------------------------- drops

    def on_drop(self, packet: Packet) -> None:
        """A packet of this flow was dropped; recovery is ACK/RTO driven."""

    # -------------------------------------------------------------------- misc

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.src_vm}->{self.dst_vm} "
                f"cwnd={self.cwnd:.1f} inflight={len(self.in_flight)})")
