"""Paced IO batching: amortize per-batch CPU cost, keep pacing exact.

Disabling IO batching makes fine pacing trivial but costs so much CPU that
a 10 Gbps link cannot be saturated (section 4.3.1).  Silo instead pulls
~50 us worth of stamped packets at a time, expands them with void packets
(:mod:`repro.pacer.void_packets`) and hands each batch to the NIC; the next
batch is scheduled off the previous batch's DMA-completion interrupt (a
soft-timers trick), so the NIC never idles mid-burst yet no hardware timer
is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro import units
from repro.pacer.void_packets import VoidScheduler, WireSchedule, WireSlot


@dataclass
class Batch:
    """One NIC hand-off: a contiguous run of wire slots."""

    slots: List[WireSlot]
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Wire time the batch occupies."""
        return self.end_time - self.start_time

    @property
    def data_packets(self) -> int:
        """Number of data frames in the batch."""
        return sum(1 for s in self.slots if s.kind == "data")

    @property
    def void_packets(self) -> int:
        """Number of void frames in the batch."""
        return sum(1 for s in self.slots if s.kind == "void")


class PacedBatcher:
    """Carve a wire schedule into DMA batches of bounded duration.

    The batch window bounds NIC queuing delay: a packet handed over in one
    batch waits at most ``batch_window`` behind earlier slots of the same
    batch.  Each batch is triggered by the completion interrupt of its
    predecessor, i.e. ``batch[i+1].start >= batch[i].end``.
    """

    def __init__(self, link_rate: float,
                 batch_window: float = 50 * units.MICROS):
        if batch_window <= 0:
            raise ValueError("batch window must be positive")
        self.link_rate = link_rate
        self.batch_window = batch_window
        self._void_scheduler = VoidScheduler(link_rate,
                                             idle_threshold=batch_window)

    def build(self, packets: Sequence[Tuple[float, float]]
              ) -> List[Batch]:
        """Schedule stamped packets onto the wire and group into batches."""
        return self.carve(self._void_scheduler.schedule(packets))

    def carve(self, schedule: WireSchedule) -> List[Batch]:
        """Group an existing wire schedule into batches."""
        batches: List[Batch] = []
        current: List[WireSlot] = []
        batch_start = None
        for slot in schedule.slots:
            slot_end = slot.start_time + slot.wire_bytes / self.link_rate
            if batch_start is None:
                batch_start = slot.start_time
            if (slot_end - batch_start > self.batch_window and current):
                batches.append(Batch(slots=current, start_time=batch_start,
                                     end_time=current[-1].start_time
                                     + current[-1].wire_bytes
                                     / self.link_rate))
                current = []
                batch_start = slot.start_time
            current.append(slot)
        if current:
            batches.append(Batch(slots=current, start_time=batch_start,
                                 end_time=current[-1].start_time
                                 + current[-1].wire_bytes / self.link_rate))
        return batches
