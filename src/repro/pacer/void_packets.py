"""Void-packet pacing: precise inter-packet gaps without NIC support.

NICs transmit a handed-over batch back-to-back, so a software pacer cannot
leave gaps between packets of one batch -- unless the gaps are themselves
packets.  A *void packet* is a frame whose destination MAC equals its source
MAC: the NIC serializes it (preserving spacing) and the first-hop switch
drops it.  The smallest frame occupies 84 bytes on the wire (64-byte frame
+ preamble + inter-frame gap), giving a minimum spacing quantum of
``84 B / 10 Gbps = 67.2 ns`` -- the paper's "68 ns" figure.

:class:`VoidScheduler` converts a stream of *stamped* data packets (from the
token-bucket hierarchy) into the exact wire schedule: data packets at their
stamps, void packets filling the gaps, idle time only between batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import units
from repro.obs.events import VoidEmit

#: Wire overhead added to every frame: preamble (8) + inter-frame gap (12).
FRAME_OVERHEAD = 20
#: Smallest possible void frame on the wire, bytes.
MIN_VOID = units.MIN_WIRE_FRAME
#: Largest void frame on the wire (MTU + overhead), bytes.
MAX_VOID = units.MTU + FRAME_OVERHEAD


def min_void_spacing(link_rate: float) -> float:
    """Smallest achievable inter-packet spacing (seconds) on a link."""
    if link_rate <= 0:
        raise ValueError("link rate must be positive")
    return MIN_VOID / link_rate


def void_gap_for_rate(rate_limit: float, link_rate: float,
                      packet_size: float = units.MTU) -> float:
    """Wire bytes of void needed between packets to average ``rate_limit``.

    A source sending ``packet_size`` packets at average rate ``rate_limit``
    on a ``link_rate`` wire needs ``packet * (C/R - 1)`` bytes of spacing
    between consecutive packets.
    """
    if not 0 < rate_limit <= link_rate:
        raise ValueError("rate limit must be in (0, link rate]")
    return packet_size * (link_rate / rate_limit - 1.0)


def split_void_bytes(gap_bytes: float) -> List[int]:
    """Split a gap into valid void frames (each within [84, MTU+20] bytes).

    The gap is rounded to the nearest whole byte (wire serialization has
    no sub-byte resolution); any *positive* gap is then covered by whole
    frames, rounding short gaps **up** to one minimum (84-byte) frame.
    Rounding up means the following data packet departs at or *after* its
    token-bucket stamp -- never before it, which would violate the
    guarantee the stamp enforces.  Dropping sub-frame gaps instead (and
    letting data leave early) is exactly the bug this replaces; the void
    excess does not accumulate, because later gaps are computed from the
    absolute stamps and absorb it.
    """
    gap = int(round(gap_bytes))
    if gap <= 0:
        return []
    gap = max(gap, MIN_VOID)
    frames: List[int] = []
    while gap > 0:
        if gap <= MAX_VOID:
            frames.append(gap)
            break
        take = MAX_VOID
        # Never leave a remainder smaller than a minimum frame.
        if gap - take < MIN_VOID:
            take = gap - MIN_VOID
        frames.append(take)
        gap -= take
    return frames


@dataclass(frozen=True)
class WireSlot:
    """One frame on the wire: a data packet or a void filler.

    ``start_time`` is when the first bit hits the wire; ``stamp`` is the
    departure time the token buckets asked for (data slots only).
    """

    kind: str                 # "data" or "void"
    start_time: float
    wire_bytes: float
    stamp: Optional[float] = None

    @property
    def pacing_error(self) -> float:
        """How far from its stamp a data packet actually left (seconds)."""
        if self.stamp is None:
            return 0.0
        return self.start_time - self.stamp


@dataclass
class WireSchedule:
    """The output of the void scheduler plus summary statistics."""

    slots: List[WireSlot] = field(default_factory=list)
    link_rate: float = 0.0

    @property
    def data_slots(self) -> List[WireSlot]:
        """The schedule's data-frame slots."""
        return [s for s in self.slots if s.kind == "data"]

    @property
    def void_slots(self) -> List[WireSlot]:
        """The schedule's void-frame slots."""
        return [s for s in self.slots if s.kind == "void"]

    @property
    def data_bytes(self) -> float:
        """Total data bytes on the wire."""
        return sum(s.wire_bytes for s in self.slots if s.kind == "data")

    @property
    def void_bytes(self) -> float:
        """Total void bytes on the wire."""
        return sum(s.wire_bytes for s in self.slots if s.kind == "void")

    def rates(self) -> Tuple[float, float]:
        """(data, void) *wire* rates over the active span, bytes/second.

        Frame overhead (preamble + inter-frame gap) is included, so a
        fully busy wire sums to exactly the link rate.
        """
        if not self.slots:
            return (0.0, 0.0)
        start = self.slots[0].start_time
        last = self.slots[-1]
        span = last.start_time + last.wire_bytes / self.link_rate - start
        if span <= 0:
            return (0.0, 0.0)
        return (self.data_bytes / span, self.void_bytes / span)

    def max_pacing_error(self) -> float:
        """Worst data-frame deviation from its ideal send time."""
        errors = [abs(s.pacing_error) for s in self.data_slots]
        return max(errors) if errors else 0.0


class VoidScheduler:
    """Turns stamped data packets into a back-to-back wire schedule.

    Void packets are only generated "when there is another packet waiting
    to be sent" (section 5): gaps longer than ``idle_threshold`` are left as
    genuine idle time instead of being filled, so an idle network costs no
    CPU and no link power.
    """

    def __init__(self, link_rate: float,
                 idle_threshold: float = 50 * units.MICROS,
                 tracer=None, source: str = "nic"):
        if link_rate <= 0:
            raise ValueError("link rate must be positive")
        self.link_rate = link_rate
        self.idle_threshold = idle_threshold
        #: Optional :class:`repro.obs.TraceSink` receiving one
        #: ``pacer.void`` event per emitted void frame.
        self.tracer = tracer
        self.source = source

    def schedule(self, packets: Sequence[Tuple[float, float]]
                 ) -> WireSchedule:
        """Build the wire schedule for stamped ``(departure, size)`` packets.

        ``size`` is the packet size in bytes; frame overhead is added here.
        Stamps must be non-decreasing (the token-bucket hierarchy guarantees
        this).

        Pacing error is one-sided up to byte rounding: a data packet never
        departs more than half a byte-time before its stamp (the rounding
        quantum of :func:`split_void_bytes`), and departs late by less
        than one minimum void frame (84 byte-times) plus any serialization
        backlog of earlier packets.
        """
        schedule = WireSchedule(link_rate=self.link_rate)
        if not packets:
            return schedule
        wire_time = packets[0][0]
        previous_stamp = None
        for stamp, size in packets:
            if previous_stamp is not None and stamp < previous_stamp:
                raise ValueError("packet stamps must be non-decreasing")
            previous_stamp = stamp
            gap_seconds = stamp - wire_time
            if gap_seconds > self.idle_threshold:
                # Nothing worth pacing across: let the NIC go idle.
                wire_time = stamp
            elif gap_seconds > 0:
                for frame in split_void_bytes(gap_seconds * self.link_rate):
                    schedule.slots.append(WireSlot(
                        kind="void", start_time=wire_time,
                        wire_bytes=frame))
                    if self.tracer is not None:
                        self.tracer.emit(VoidEmit(
                            time=wire_time, source=self.source,
                            wire_bytes=frame))
                    wire_time += frame / self.link_rate
            wire_bytes = size + FRAME_OVERHEAD
            schedule.slots.append(WireSlot(
                kind="data", start_time=wire_time, wire_bytes=wire_bytes,
                stamp=stamp))
            wire_time += wire_bytes / self.link_rate
        return schedule
