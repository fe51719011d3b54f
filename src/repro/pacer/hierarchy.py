"""The Fig. 8 token-bucket hierarchy enforcing a VM's guarantees.

A packet from a VM to destination ``d`` is stamped by three chained
buckets, each only able to push the departure time later:

1. a per-destination bucket of rate ``B_d`` -- these enforce the hose
   model; the EyeQ-style coordination (:mod:`repro.pacer.eyeq`) keeps
   ``sum_d B_d <= B`` when receivers are contended;
2. the tenant bucket ``{B, S}`` -- average rate ``B`` with burst
   allowance ``S``;
3. the peak bucket ``{Bmax, 1 packet}`` -- even a burst is serialized at
   no more than ``Bmax``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.obs.events import PacerStamp
from repro.pacer.token_bucket import TokenBucket


@dataclass(frozen=True)
class PacerConfig:
    """Static pacer parameters for one VM, derived from its guarantee."""

    bandwidth: float
    burst: float
    peak_rate: float
    packet_size: float = units.MTU

    @classmethod
    def from_guarantee(cls, guarantee: NetworkGuarantee,
                       packet_size: float = units.MTU) -> "PacerConfig":
        """A pacer configuration matching a tenant's guarantee."""
        return cls(bandwidth=guarantee.bandwidth,
                   burst=max(guarantee.burst, packet_size),
                   peak_rate=guarantee.effective_peak_rate,
                   packet_size=packet_size)


class VMPacer:
    """Stamps departure times for one VM's packets (Fig. 8 hierarchy)."""

    def __init__(self, config: PacerConfig, tracer=None,
                 source: str = "vm"):
        self.config = config
        self._tenant = TokenBucket(config.bandwidth, config.burst)
        self._peak = TokenBucket(config.peak_rate, config.packet_size)
        self._per_destination: Dict[Hashable, TokenBucket] = {}
        self._last_stamp = 0.0
        #: Optional :class:`repro.obs.TraceSink` receiving one
        #: ``pacer.stamp`` event per stamped packet; ``source`` labels
        #: this pacer in those events.
        self.tracer = tracer
        self.source = source

    def destination_bucket(self, destination: Hashable) -> TokenBucket:
        """The top-level bucket for one destination (created on demand).

        A new destination starts at the full tenant bandwidth ``B``; the
        hose coordination lowers it when the receiver is contended.
        """
        bucket = self._per_destination.get(destination)
        if bucket is None:
            bucket = TokenBucket(self.config.bandwidth, self.config.burst)
            self._per_destination[destination] = bucket
        return bucket

    def set_destination_rate(self, destination: Hashable, rate: float,
                             now: float) -> None:
        """Apply a hose-model rate decision for one destination."""
        self.destination_bucket(destination).set_rate(rate, now)

    def stamp(self, destination: Hashable, size: float,
              now: float) -> float:
        """Departure time for a ``size``-byte packet to ``destination``.

        Each stage stamps at or after the previous stage's time, so the
        result respects all three constraints simultaneously and is
        monotonically non-decreasing across calls.
        """
        asked = now
        now = max(now, self._last_stamp)
        t = self.destination_bucket(destination).stamp(size, now)
        t = self._tenant.stamp(size, t)
        t = self._peak.stamp(size, t)
        self._last_stamp = t
        if self.tracer is not None:
            self.tracer.emit(PacerStamp(
                time=asked, source=self.source, destination=str(destination),
                size=size, stamp=t))
        return t

    def backlog(self, now: float) -> float:
        """Virtual backlog (bytes) of the tenant bucket at ``now``.

        Stamped-but-not-yet-due bytes held against the ``{B, S}`` bucket
        -- the hierarchy's bottleneck for a conforming source; see
        :meth:`TokenBucket.deficit`.
        """
        return self._tenant.deficit(now)

    def earliest_departure(self, destination: Hashable, size: float,
                           now: float) -> float:
        """Like :meth:`stamp` but without consuming tokens."""
        now = max(now, self._last_stamp)
        t = self.destination_bucket(destination).would_stamp(size, now)
        t = self._tenant.would_stamp(size, t)
        return self._peak.would_stamp(size, t)
