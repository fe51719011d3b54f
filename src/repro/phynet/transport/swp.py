"""SWP: speculative duplicate transmission for small messages.

The "speculative while paced" baseline (PAPERS.md: "Microsecond Network
SLOs Without Priorities"): every small message is transmitted twice.
The *original* copy goes through the hypervisor pacer at the guaranteed
rate in the high-priority (guaranteed) queue class; a *speculative*
copy of each segment is injected immediately -- bypassing the pacer --
into the best-effort queue class, where strict-priority scheduling
guarantees it can never delay guaranteed traffic.  Whichever copy
arrives first wins: the receiver's in-order delivery machinery already
dedups on segment sequence numbers, so the application sees every
message exactly once.

When the fabric is idle the spec copy delivers at line rate and the
message beats the pacer's serialization delay; when the fabric is
contended, spec copies are pushed out or tail-dropped (they sit in the
evictable best-effort class) and latency falls back to the paced
original -- without Silo's admission control there is no bound on how
bad that fallback gets, which is the comparison the
``mechanism-compare`` campaign measures.  The duplicate bytes are the
scheme's cost and are accounted per flow (:attr:`spec_bytes_sent`,
:attr:`spec_wins`, :attr:`duplicate_deliveries`).
"""

from __future__ import annotations

from typing import Any

from repro import units
from repro.phynet.packet import HEADER_BYTES, PRIORITY_BEST_EFFORT, Packet
from repro.phynet.transport.base import Segment, Transport

#: Messages at or below this size get a speculative duplicate; larger
#: ones only ever go paced (duplicating bulk traffic would double load
#: for no tail-latency benefit -- SWP speculates on *small* messages).
SPEC_THRESHOLD = 64 * units.KB


class SwpTransport(Transport):
    """Reno transport that speculatively duplicates small messages.

    Each first transmission of a segment belonging to a message no
    larger than :data:`SPEC_THRESHOLD` is mirrored by an immediate
    best-effort copy (``packet.spec=True``).  Retransmissions are never
    duplicated: recovery traffic is already late, so speculation buys
    nothing and would double the load exactly when the network is
    congested.
    """

    def __init__(self, network: Any, src_vm: int, dst_vm: int,
                 priority: int):
        super().__init__(network, src_vm, dst_vm, priority)
        #: Speculative copies injected (packets / wire bytes).
        self.spec_packets_sent = 0
        self.spec_bytes_sent = 0.0
        #: Fresh deliveries where the *speculative* copy arrived first.
        self.spec_wins = 0
        #: Arrivals of a copy whose segment was already delivered (the
        #: losing copy of a duplicated pair, or a spurious retransmit).
        self.duplicate_deliveries = 0

    # ------------------------------------------------------------------ sender

    def _transmit_segment(self, segment: Segment) -> None:
        """Transmit the paced original, then race a speculative copy."""
        super()._transmit_segment(segment)
        if segment.record.size > SPEC_THRESHOLD:
            return
        spec = Packet(
            src=self.src_vm, dst=self.dst_vm,
            size=segment.size + HEADER_BYTES, route=self._data_route,
            flow=self, priority=PRIORITY_BEST_EFFORT, spec=True,
            payload=("data", segment.seq, segment.is_last,
                     segment.record))
        spec.sent_time = self.sim.now
        self.spec_packets_sent += 1
        self.spec_bytes_sent += spec.size
        self.network.transmit(spec, self.src_vm)

    # --------------------------------------------------------------- receiver

    def on_data(self, packet: Packet) -> None:
        """First copy wins; count which copy it was and drop the loser.

        Exactly-once application delivery comes from the base class's
        in-order machinery: a segment enters the reassembly buffer only
        once (``seq`` dedup) and a message completes only once
        (``record.finish`` latch), regardless of the order in which the
        original and the speculative copy -- or neither -- arrive.
        """
        seq = packet.payload[1]
        fresh = seq >= self.rcv_next and seq not in self.ooo_buffer
        if not fresh:
            self.duplicate_deliveries += 1
        elif packet.spec:
            self.spec_wins += 1
        super().on_data(packet)
