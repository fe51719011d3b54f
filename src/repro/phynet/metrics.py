"""Measurement: message latency records and per-tenant summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.analysis.stats import percentile
from repro.obs.events import FlowStart

_NAN = float("nan")


@dataclass
class MessageRecord:
    """One application message's life, from first send to last delivery."""

    tenant_id: int
    src_vm: int
    dst_vm: int
    size: float
    start: float
    finish: Optional[float] = None
    rto_events: int = 0
    #: Optional callback invoked (with the record) on completion; lets
    #: applications chain work (next bulk chunk, RPC response) without
    #: polling.
    on_complete: Optional[Callable[["MessageRecord"], None]] = None

    @property
    def completed(self) -> bool:
        """Whether the message has finished."""
        return self.finish is not None

    @property
    def latency(self) -> float:
        """Send-to-finish latency of the message."""
        if self.finish is None:
            raise ValueError("message has not completed")
        return self.finish - self.start


class MetricsCollector:
    """Accumulates message records and computes the paper's metrics.

    Metrics defined as fractions or percentiles of the record set return
    ``NaN`` when the relevant set is empty: "no messages ran" must stay
    distinguishable from "every message met its bound".

    With a ``tracer`` attached, every :meth:`new_message` also emits a
    :class:`~repro.obs.events.FlowStart` event (the matching
    ``flow.finish`` is emitted by the transport on delivery).
    """

    def __init__(self, tracer=None) -> None:
        self.records: List[MessageRecord] = []
        self.tracer = tracer

    def new_message(self, tenant_id: int, src_vm: int, dst_vm: int,
                    size: float, start: float) -> MessageRecord:
        """Register a message send and return its record."""
        record = MessageRecord(tenant_id=tenant_id, src_vm=src_vm,
                               dst_vm=dst_vm, size=size, start=start)
        self.records.append(record)
        if self.tracer is not None:
            self.tracer.emit(FlowStart(
                time=start, tenant_id=tenant_id, src=src_vm, dst=dst_vm,
                size=size))
        return record

    # -- selections -------------------------------------------------------------

    def completed(self, tenant_id: Optional[int] = None
                  ) -> List[MessageRecord]:
        """Completed-message records (optionally one tenant's)."""
        return [r for r in self.records if r.completed
                and (tenant_id is None or r.tenant_id == tenant_id)]

    def latencies(self, tenant_id: Optional[int] = None) -> List[float]:
        """Completed-message latencies (optionally one tenant's)."""
        return [r.latency for r in self.completed(tenant_id)]

    def tenants(self) -> List[int]:
        """Tenant ids with at least one recorded message."""
        return sorted({r.tenant_id for r in self.records})

    # -- the paper's metrics ------------------------------------------------------

    def latency_percentile(self, q: float,
                           tenant_id: Optional[int] = None) -> float:
        """Latency percentile (``q`` in [0, 100]) over completed messages."""
        return percentile(self.latencies(tenant_id), q)

    def fraction_late(self, bound: float,
                      tenant_id: Optional[int] = None) -> float:
        """Fraction of messages later than ``bound`` (Table 1's metric).

        Messages that never completed within the simulation count as late.
        ``NaN`` when no messages were recorded at all -- 0.0 would read as
        "no SLO violations" for a tenant that never ran.
        """
        records = [r for r in self.records
                   if tenant_id is None or r.tenant_id == tenant_id]
        if not records:
            return _NAN
        late = sum(1 for r in records
                   if not r.completed or r.latency > bound)
        return late / len(records)

    def rto_message_fraction(self, tenant_id: int) -> float:
        """Fraction of a tenant's messages that suffered >= 1 RTO (Fig 13).

        ``NaN`` when the tenant recorded no messages.
        """
        records = [r for r in self.records if r.tenant_id == tenant_id]
        if not records:
            return _NAN
        hit = sum(1 for r in records if r.rto_events > 0)
        return hit / len(records)

    def outlier_class(self, tenant_id: int, estimate: float) -> float:
        """How far a tenant's 99th percentile latency exceeds an estimate.

        Returns the ratio ``p99 / estimate`` (Table 4 counts tenants with
        ratio > 1, > 2 and > 8).  Incomplete messages are treated as
        having infinite latency; ``NaN`` when the tenant recorded no
        messages at all.
        """
        records = [r for r in self.records if r.tenant_id == tenant_id]
        if not records:
            return _NAN
        values = [r.latency if r.completed else float("inf")
                  for r in records]
        return percentile(values, 99.0) / estimate

    # -- export -------------------------------------------------------------------

    def latency_rows(self) -> Iterable[Dict[str, Any]]:
        """One flat dict per completed message (CSV/JSON export)."""
        for r in self.records:
            if not r.completed:
                continue
            yield {"tenant_id": r.tenant_id, "src_vm": r.src_vm,
                   "dst_vm": r.dst_vm, "size": r.size, "start": r.start,
                   "finish": r.finish, "latency": r.latency,
                   "rto_events": r.rto_events}
