"""The long-running admission-control service loop.

Single-threaded, virtual-clock: callers submit admissions, departures
and fault events (each durably intent-logged before it is queued), and
:meth:`AdmissionService.tick` advances the service one scheduling round
-- all pending faults, then all departures, then one admission batch.
Clock discipline is the caller's job (the load generator drives virtual
time; ``python -m repro serve`` ticks as fast as it can), which keeps
every run bit-reproducible.

Robustness properties, in one place:

* **backpressure**: the bounded ingress queue bounces admissions with a
  retry-after hint once full (`submit_admission` returns it);
* **shedding**: under forced overshoot (crash-recovery re-enqueue) the
  queue is trimmed back to capacity, oldest deadline first, and every
  victim is answered with a retry-after; control traffic is never shed;
* **deadlines**: every admission carries one; items past it are expired
  unprocessed;
* **graceful pod degradation**: a pod that has lost half its servers
  is cordoned out of placement (:mod:`repro.service.cluster`); a tick
  folds every pending fault in before it admits, so an admission batch
  always decides against post-fault books;
* **crash consistency**: write-ahead intent log + periodic snapshot;
  a ``kill -9`` restarts to bit-identical placement books (see
  :mod:`repro.service.wal` for the replay contract).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import percentile
from repro.core.tenant import TenantRequest
from repro.faults.model import FaultEvent, FaultTarget
from repro.obs.events import (FaultInjected, ServiceDecision,
                              ServiceIngress, ServiceSnapshot)
from repro.service.cluster import ClusterBooks
from repro.service.queue import BoundedIngressQueue, IngressItem, Priority
from repro.service.snapshot import (dump_request, require_keys,
                                    restore_request)
from repro.service.wal import (SnapshotError, SnapshotStore,
                               WriteAheadLog, recovery_plan)
from repro.topology.tree import TreeTopology

__all__ = ["AdmissionService", "ServiceMetrics"]


class ServiceMetrics:
    """SLO counters and distributions for one service run."""

    def __init__(self) -> None:
        self.admitted = 0
        #: Rejected by the admission math (ran to completion).
        self.rejected_admission = 0
        #: Bounced at the ingress queue (backpressure).
        self.rejected_backpressure = 0
        self.shed = 0
        self.expired = 0
        self.departed = 0
        self.faults = 0
        self.ticks = 0
        #: Virtual seconds from enqueue to decision, per completed
        #: admission attempt (the admission-latency SLO series).
        self.admission_latencies: List[float] = []
        self.snapshots = 0
        self.replayed = 0

    def latency_percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile admission latency (``q`` in [0, 100]).

        Delegates to :func:`repro.analysis.stats.percentile` so the
        service SLO numbers use the same nearest-rank convention as
        every other percentile in the repo (an out-of-range ``q``
        raises instead of silently indexing).  ``None`` when no
        admissions have completed yet.
        """
        if not self.admission_latencies:
            if not 0 <= q <= 100:
                raise ValueError(f"q must be in [0, 100], got {q}")
            return None
        return percentile(self.admission_latencies, q)

    def to_dict(self, queue: Optional[BoundedIngressQueue] = None
                ) -> Dict[str, Any]:
        """Counters + latency percentiles (+ queue high-water marks)."""
        out: Dict[str, Any] = {
            "admitted": self.admitted,
            "rejected_admission": self.rejected_admission,
            "rejected_backpressure": self.rejected_backpressure,
            "shed": self.shed,
            "expired": self.expired,
            "departed": self.departed,
            "faults": self.faults,
            "ticks": self.ticks,
            "snapshots": self.snapshots,
            "replayed": self.replayed,
            "p50_admission_latency": self.latency_percentile(50.0),
            "p99_admission_latency": self.latency_percentile(99.0),
        }
        if queue is not None:
            out["max_queue_depth"] = queue.max_depth
            out["max_admit_depth"] = queue.max_admit_depth
        return out


class AdmissionService:
    """Admission control as an always-on, crash-consistent service.

    Constructing the service **is** recovery: if ``data_dir`` holds a
    snapshot and/or write-ahead log from a previous life, the books are
    restored bit-identically and open intents re-enqueued before the
    first ``submit_*`` call is accepted.

    Args:
        topology: the cluster to manage.
        data_dir: durable state directory (WAL + snapshot).
        queue_capacity: ingress queue depth bound.
        batch_size: admissions processed per tick.
        admission_timeout: default deadline budget (virtual seconds)
            granted to each admission.
        snapshot_every: checkpoint the books after this many completed
            items (0 disables periodic snapshots).
        tracer: optional obs sink; attached *after* replay, so recovery
            does not re-emit the previous life's events.
    """

    def __init__(self, topology: TreeTopology, data_dir,
                 queue_capacity: int = 256, batch_size: int = 16,
                 admission_timeout: float = 5.0,
                 snapshot_every: int = 200, tracer=None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.batch_size = batch_size
        self.admission_timeout = admission_timeout
        self.snapshot_every = snapshot_every
        self.cluster = ClusterBooks(topology)
        self.queue = BoundedIngressQueue(queue_capacity)
        self.metrics = ServiceMetrics()
        self.snapshots = SnapshotStore(self.data_dir / "snapshot.json")
        self._done_count = 0
        self._done_since_snapshot = 0
        self.tracer = None
        #: Optional callback ``(item, outcome, now)`` fired on every
        #: completed decision -- the closed-loop load generator's
        #: feedback channel for retry/backoff.
        self.on_decision = None
        # Loaded before the log is opened: a damaged snapshot must fail
        # the start without the WAL's torn-tail truncation having run.
        snapshot = self.snapshots.load()
        self.wal = WriteAheadLog(self.data_dir / "wal.jsonl")
        self._recover(snapshot)
        self.tracer = tracer

    # -- recovery ------------------------------------------------------------

    def _recover(self, snapshot: Optional[Dict[str, Any]]) -> None:
        folded = 0
        if snapshot is not None:
            try:
                require_keys(snapshot, ("cluster",), "top level")
                self.cluster.restore_state(snapshot["cluster"])
            except SnapshotError as exc:
                raise SnapshotError(
                    f"snapshot {self.snapshots.path}: {exc}") from None
            folded = int(snapshot.get("done_count", 0))
        redo, reenqueue, total_done = recovery_plan(self.wal.path, folded)
        for record in redo:
            self._redo(record)
        self._done_count = total_done
        self.metrics.replayed = len(redo)
        for record in reenqueue:
            self.queue.offer(self._item_from_enq(record), force=True)

    def _redo(self, record: Dict[str, Any]) -> None:
        done = record["done"]
        kind, outcome = record["kind"], done["outcome"]
        if kind == "admit":
            if outcome == "admitted":
                request = restore_request(record["payload"]["request"])
                self.cluster.adopt(request,
                                   [int(s) for s in done["vm_servers"]])
        elif kind == "depart":
            if outcome == "departed":
                self.cluster.depart(int(record["payload"]["tenant_id"]),
                                    now=done["time"])
        elif kind == "fault":
            self.cluster.apply_fault(self._event_from_payload(
                record["payload"]), now=done["time"])

    def _item_from_enq(self, record: Dict[str, Any]) -> IngressItem:
        kind = record["kind"]
        payload = record["payload"]
        if kind == "admit":
            return IngressItem(
                Priority.ADMIT, record["time"],
                restore_request(payload["request"]), seq=record["seq"],
                deadline=record.get("deadline"),
                attempt=int(payload.get("attempt", 0)))
        if kind == "depart":
            return IngressItem(Priority.DEPARTURE, record["time"],
                               int(payload["tenant_id"]),
                               seq=record["seq"])
        return IngressItem(Priority.FAULT, record["time"],
                           self._event_from_payload(payload),
                           seq=record["seq"])

    @staticmethod
    def _event_from_payload(payload: Dict[str, Any]) -> FaultEvent:
        return FaultEvent(time=payload["time"],
                          target=FaultTarget.parse(payload["target"]),
                          action=payload["action"],
                          factor=payload["factor"])

    # -- ingress -------------------------------------------------------------

    def submit_admission(self, request: TenantRequest, now: float,
                         deadline: Optional[float] = None,
                         attempt: int = 0,
                         source: Optional[int] = None
                         ) -> Tuple[str, Optional[float]]:
        """Offer an admission request; returns ``(status, retry_after)``
        where status is ``"queued"`` or ``"rejected"`` (backpressure)."""
        if deadline is None:
            deadline = now + self.admission_timeout
        seq = self.wal.log_enq(
            "admit", now,
            {"request": dump_request(request), "attempt": attempt},
            deadline=deadline, source=source)
        item = IngressItem(Priority.ADMIT, now, request, seq=seq,
                           deadline=deadline, attempt=attempt)
        retry_after = self.queue.offer(item)
        if retry_after is not None:
            self._log_done(seq, now, "rejected", reason="backpressure",
                           retry_after=retry_after)
            self.metrics.rejected_backpressure += 1
            self._emit_ingress(now, seq, "admit", "rejected",
                               retry_after)
            return "rejected", retry_after
        self._emit_ingress(now, seq, "admit", "queued", None)
        return "queued", None

    def submit_departure(self, tenant_id: int, now: float,
                         source: Optional[int] = None) -> None:
        """Queue a tenant departure (never rejected, never shed)."""
        seq = self.wal.log_enq("depart", now, {"tenant_id": tenant_id},
                               source=source)
        self.queue.offer(IngressItem(Priority.DEPARTURE, now, tenant_id,
                                     seq=seq))
        self._emit_ingress(now, seq, "depart", "queued", None)

    def submit_fault(self, event: FaultEvent,
                     now: Optional[float] = None,
                     source: Optional[int] = None) -> None:
        """Queue a fault/repair event (never rejected, never shed)."""
        if now is None:
            now = event.time
        payload = {"time": event.time, "target": event.target.spec,
                   "action": event.action, "factor": event.factor}
        seq = self.wal.log_enq("fault", now, payload, source=source)
        self.queue.offer(IngressItem(Priority.FAULT, now, event,
                                     seq=seq))
        self._emit_ingress(now, seq, "fault", "queued", None)

    # -- the scheduling round ------------------------------------------------

    def tick(self, now: float) -> Dict[str, int]:
        """One scheduling round at virtual time ``now``.

        Processes every pending fault, then every pending departure,
        then up to ``batch_size`` admissions as one amortized batch.
        Returns counts per outcome for this round.
        """
        self.metrics.ticks += 1
        counts = {"admitted": 0, "rejected": 0, "shed": 0, "expired": 0,
                  "departed": 0, "faults": 0}
        while self.queue._faults or self.queue._departures:
            item = self.queue.pop()
            if item.priority is Priority.FAULT:
                self._process_fault(item, now)
                counts["faults"] += 1
            else:
                self._process_departure(item, now)
                counts["departed"] += 1
        # Trim forced overshoot (crash-recovery re-enqueue) back to the
        # bound; oldest deadline goes first.
        for item in self.queue.shed(self.queue.capacity):
            retry_after = self.queue.retry_after(item.attempt)
            self._log_done(item.seq, now, "shed",
                           retry_after=retry_after)
            self.metrics.shed += 1
            counts["shed"] += 1
            self._emit_decision(now, item, "shed")
        batch = self.queue.pop_admissions(self.batch_size)
        live: List[IngressItem] = []
        for item in batch:
            if item.deadline is not None and item.deadline < now:
                self._log_done(item.seq, now, "expired")
                self.metrics.expired += 1
                counts["expired"] += 1
                self._emit_decision(now, item, "expired")
            else:
                live.append(item)
        placements = self.cluster.place_batch(
            [item.payload for item in live], now=now)
        for item, placement in zip(live, placements):
            if placement is not None:
                self._log_done(item.seq, now, "admitted",
                               vm_servers=list(placement.vm_servers))
                self.metrics.admitted += 1
                counts["admitted"] += 1
                outcome = "admitted"
            else:
                self._log_done(item.seq, now, "rejected",
                               reason="admission")
                self.metrics.rejected_admission += 1
                counts["rejected"] += 1
                outcome = "rejected"
            self.metrics.admission_latencies.append(
                now - item.enqueued_at)
            self._emit_decision(now, item, outcome)
        self._maybe_snapshot(now)
        return counts

    def _process_fault(self, item: IngressItem, now: float) -> None:
        event: FaultEvent = item.payload
        self.cluster.apply_fault(event, now=now)
        self._log_done(item.seq, now, "fault", target=event.target.spec)
        self.metrics.faults += 1
        if self.tracer is not None:
            self.tracer.emit(FaultInjected(time=now,
                                           target=event.target.spec,
                                           action=event.action,
                                           factor=event.factor))
        self._emit_decision(now, item, "fault")

    def _process_departure(self, item: IngressItem, now: float) -> None:
        tenant_id: int = item.payload
        try:
            self.cluster.depart(tenant_id, now=now)
            outcome = "departed"
        except KeyError:
            outcome = "unknown"
        self._log_done(item.seq, now, outcome)
        self.metrics.departed += 1
        self._emit_decision(now, item, outcome)

    # -- persistence ---------------------------------------------------------

    def _log_done(self, seq: int, now: float, outcome: str,
                  **extra: Any) -> None:
        self.wal.log_done(seq, now, outcome, **extra)
        self._done_count += 1
        self._done_since_snapshot += 1

    def _maybe_snapshot(self, now: float) -> None:
        if (self.snapshot_every > 0
                and self._done_since_snapshot >= self.snapshot_every):
            self.snapshot(now)

    def snapshot(self, now: float) -> str:
        """Checkpoint the books; returns their digest."""
        books = self.cluster.dump_state()
        self.snapshots.save({"time": now, "done_count": self._done_count,
                             "cluster": books})
        self._done_since_snapshot = 0
        self.metrics.snapshots += 1
        digest = self.cluster.state_digest(books)
        if self.tracer is not None:
            self.tracer.emit(ServiceSnapshot(time=now,
                                             last_seq=self._done_count,
                                             digest=digest))
        return digest

    def state_digest(self) -> str:
        """The books' identity certificate (see
        :meth:`ClusterBooks.state_digest`)."""
        return self.cluster.state_digest()

    def close(self) -> None:
        """Graceful shutdown: close the write-ahead log."""
        self.wal.close()

    # -- obs -----------------------------------------------------------------

    def _emit_ingress(self, now: float, seq: int, op: str, outcome: str,
                      retry_after: Optional[float]) -> None:
        if self.tracer is not None:
            self.tracer.emit(ServiceIngress(
                time=now, seq=seq, op=op, outcome=outcome,
                depth=len(self.queue), retry_after=retry_after))

    def _emit_decision(self, now: float, item: IngressItem,
                       outcome: str) -> None:
        if self.on_decision is not None:
            self.on_decision(item, outcome, now)
        if self.tracer is not None:
            op = {Priority.ADMIT: "admit",
                  Priority.DEPARTURE: "depart",
                  Priority.FAULT: "fault"}[item.priority]
            tenant_id = None
            if item.priority is Priority.ADMIT:
                tenant_id = item.payload.tenant_id
            elif item.priority is Priority.DEPARTURE:
                tenant_id = item.payload
            self.tracer.emit(ServiceDecision(
                time=now, seq=item.seq, op=op, outcome=outcome,
                latency=now - item.enqueued_at, tenant_id=tenant_id))
