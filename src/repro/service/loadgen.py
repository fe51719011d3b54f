"""Seeded closed-loop load generator for the admission service.

Drives an :class:`~repro.service.server.AdmissionService` with the
section 6.3 tenant mix on a virtual clock: tenant arrivals (Poisson,
from :class:`~repro.flowsim.workload.TenantWorkload`), departures when
admitted tenants' jobs complete, scheduled fault events, and
budget-aware retry with the service's own backoff hints.

Everything is pre-generated from the seed with **explicit tenant ids**
(arrival ordinal + 1), so a run is a pure function of
``(topology, seed, knobs)`` -- and a *restarted* run can resume the
same event stream: submissions carry a stable ``source`` index into the
pre-generated list, and on resume the generator skips every source the
write-ahead log already saw.

The ``on_tick`` hook is the chaos handle: the soak benchmark uses it to
``SIGKILL`` the process (or abandon the service object) at a seeded
random tick and assert the restarted books are bit-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.tenant import TenantRequest
from repro.flowsim.workload import TenantWorkload, WorkloadConfig
from repro.service.server import AdmissionService
from repro.service.wal import replay_records

__all__ = ["ClosedLoopLoadGen"]

#: ``source`` index namespaces (arrivals use the raw ordinal).
_FAULT_BASE = 1_000_000
_DEPART_BASE = 2_000_000


class ClosedLoopLoadGen:
    """Closed-loop driver: offered load reacts to service feedback.

    Args:
        service: the service to drive (already recovered).
        arrival_rate: tenant arrivals per virtual second.
        horizon: stop generating new arrivals after this virtual time;
            the run then drains pending work.
        seed: workload seed (arrivals, mixes, compute times) over the
            Table 3 mix.
        fault_events: optional list of
            :class:`~repro.faults.model.FaultEvent` to inject on
            schedule.
        tick_interval: virtual seconds between service ticks.
        retry_budget: how many times a bounced/shed admission is
            re-offered (with the service's retry-after backoff) before
            the client gives up.
    """

    def __init__(self, service: AdmissionService, arrival_rate: float,
                 horizon: float, seed: int = 0,
                 fault_events: Optional[List] = None,
                 tick_interval: float = 0.05,
                 retry_budget: int = 2) -> None:
        self.service = service
        self.horizon = horizon
        self.tick_interval = tick_interval
        self.retry_budget = retry_budget
        workload = TenantWorkload(WorkloadConfig(), arrival_rate,
                                  seed=seed)
        #: ordinal -> (time, request, compute_time); explicit tenant id
        #: = ordinal + 1, so ids survive a restart.
        self.arrivals: List[Tuple[float, TenantRequest, float]] = []
        for i, arrival in enumerate(workload.arrivals(horizon)):
            request = dc_replace(arrival.request, tenant_id=i + 1,
                                 name=f"tenant-{i + 1}")
            self.arrivals.append((arrival.time, request,
                                  arrival.compute_time))
        self.fault_events = sorted(fault_events or [],
                                   key=lambda e: (e.time, e.target.spec,
                                                  e.action))
        self._compute_time = {i + 1: c
                              for i, (_, _, c) in
                              enumerate(self.arrivals)}
        #: (time, order, kind, payload) pending submissions.
        self._pending: List[tuple] = []
        self._order = 0
        self._departure_scheduled: set = set()
        self.gave_up = 0

    # -- schedule construction ----------------------------------------------

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._pending, (time, self._order, kind, payload))
        self._order += 1

    def _seen_sources(self) -> set:
        seen = set()
        for record in replay_records(self.service.wal.path):
            if record.get("t") == "enq" and "source" in record:
                seen.add(int(record["source"]))
        return seen

    def _build_schedule(self) -> None:
        """Queue every not-yet-submitted event (resume-aware)."""
        seen = self._seen_sources()
        for i, (time, request, _compute) in enumerate(self.arrivals):
            if i not in seen:
                self._push(time, "admit", (i, request, 0))
        for j, event in enumerate(self.fault_events):
            if _FAULT_BASE + j not in seen:
                self._push(event.time, "fault", (j, event))
        # Tenants admitted in a previous life whose departure is
        # already in the log must not depart twice; everything else
        # placed gets its departure rescheduled by the first
        # _schedule_departures pass (compute times are deterministic).
        for tenant_id in sorted(self.service.cluster.placements):
            if _DEPART_BASE + tenant_id in seen:
                self._departure_scheduled.add(tenant_id)

    # -- feedback ------------------------------------------------------------

    def _on_decision(self, item, outcome: str, now: float) -> None:
        if outcome not in ("shed", "expired"):
            return
        source, request = self._decision_source(item)
        if source is None:
            return
        if item.attempt >= self.retry_budget:
            self.gave_up += 1
            return
        retry_after = self.service.queue.retry_after(item.attempt + 1)
        self._push(now + retry_after, "admit",
                   (source, request, item.attempt + 1))

    @staticmethod
    def _decision_source(item):
        request = item.payload
        if isinstance(request, TenantRequest):
            return request.tenant_id - 1, request
        return None, None

    # -- the drive loop ------------------------------------------------------

    def run(self, on_tick: Optional[Callable[[int, float], bool]] = None
            ) -> Dict[str, object]:
        """Drive the service until the horizon's work has drained.

        ``on_tick(tick_index, now)`` runs after every service tick;
        returning ``False`` stops the loop (the chaos hook).  Returns a
        summary dict (metrics + final digest).
        """
        service = self.service
        service.on_decision = self._on_decision
        self._build_schedule()
        drain_deadline = self.horizon * 2.0 + 64 * self.tick_interval
        tick_index = 0
        now = 0.0
        try:
            while True:
                now = (tick_index + 1) * self.tick_interval
                self._submit_due(now)
                service.tick(now)
                self._schedule_departures(now)
                tick_index += 1
                if on_tick is not None and on_tick(tick_index,
                                                   now) is False:
                    break
                if (now >= self.horizon and not self._pending
                        and len(service.queue) == 0):
                    break
                if now >= drain_deadline:
                    break
        finally:
            service.on_decision = None
        return {
            "ticks": tick_index,
            "end_time": now,
            "gave_up": self.gave_up,
            "metrics": service.metrics.to_dict(service.queue),
            "digest": service.state_digest(),
        }

    def _submit_due(self, now: float) -> None:
        service = self.service
        while self._pending and self._pending[0][0] <= now:
            _time, _order, kind, payload = heapq.heappop(self._pending)
            if kind == "admit":
                source, request, attempt = payload
                status, retry_after = service.submit_admission(
                    request, now, attempt=attempt, source=source)
                if status == "rejected":
                    if attempt < self.retry_budget:
                        self._push(now + retry_after, "admit",
                                   (source, request, attempt + 1))
                    else:
                        self.gave_up += 1
            elif kind == "fault":
                index, event = payload
                service.submit_fault(event, now=now,
                                     source=_FAULT_BASE + index)
            else:
                tenant_id = payload
                service.submit_departure(
                    tenant_id, now, source=_DEPART_BASE + tenant_id)

    def _schedule_departures(self, now: float) -> None:
        """Admitted tenants leave when their (seeded) job completes."""
        for tenant_id in self.service.cluster.placements:
            if tenant_id in self._departure_scheduled:
                continue
            compute = self._compute_time.get(tenant_id)
            if compute is None:
                continue  # not one of ours (pre-seeded tenant)
            self._departure_scheduled.add(tenant_id)
            self._push(now + compute, "depart", tenant_id)
