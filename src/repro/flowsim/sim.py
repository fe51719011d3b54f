"""The fluid cluster simulator (section 6.3's experiments).

Drives a placement manager with a tenant stream and evolves flows as
fluids between events (arrivals, flow completions, compute expirations).
Two sharing policies:

* ``reserved`` -- Silo / Oktopus: per-flow rates are the tenant's hose
  split, fixed at admission, never shared across tenants;
* ``maxmin`` -- ideal TCP under locality placement: global max-min fair
  share over the tree's link capacities, recomputed at every event.

The simulator is event-driven, on the shared event core: clock,
tie-breaking sequence numbers, and trace sink all come from an owned
:class:`repro.core.engine.EventEngine` (the same core that drives the
packet network).  Each flow's ``remaining`` is advanced
*lazily*: between rate changes it evolves linearly, so its finish time
is known the moment its rate is set and is kept in a min-heap alongside
job compute-end timers.  Rate changes invalidate a flow's scheduled
finish by bumping its epoch; stale heap entries are discarded on pop.
Carried bytes are integrated from an aggregate carried-rate sum rather
than per flow.  An event therefore costs O(affected flows · log n)
instead of the O(total flows) rescan of the original implementation.
That seed loop is the test oracle ``tests/oracles/seed_flowsim.py``;
``tests/flowsim/test_sim_equivalence.py`` asserts the two produce the
same stats under both sharing modes.

What carries the simulator to the paper's 32K-server scale is that
shared rates come from a persistent
:class:`repro.maxmin.IncrementalMaxMin`: an arrival or drain
re-waterfills only the connected component of the flow-link graph it
touched, and only the flows whose rate actually changed are re-set, one
``_set_rate`` call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.engine import EventEngine
from repro.core.tenant import TenantClass, TenantRequest
from repro.faults.model import FaultEvent
from repro.faults.schedule import FaultSchedule
from repro.flowsim.job import _DONE_EPS, FlowState, TenantJob
from repro.flowsim.workload import TenantArrival, TenantWorkload
from repro.maxmin import IncrementalMaxMin
from repro.obs.events import FaultInjected, FlowFinish, FlowStart
from repro.obs.timeseries import TimeSeries
from repro.pacer.eyeq import allocate_hose_rates
from repro.placement.base import PlacementManager
from repro.placement.controller import OUTCOME_EVICTED, ClusterController

_SHARING = ("reserved", "maxmin")

#: Event-time slop, matching the seed loop's arrival/completion slop.
_TIME_EPS = 1e-12


@dataclass
class ClusterStats:
    """Counters of one cluster run."""

    finished_jobs: int = 0
    carried_bytes: float = 0.0
    link_capacity_seconds: float = 0.0
    occupancy_integral: float = 0.0
    elapsed: float = 0.0
    job_durations: List[float] = field(default_factory=list)
    durations_by_tenant: Dict[int, float] = field(default_factory=dict)
    #: Jobs killed by faults (tenant evicted with no feasible re-place).
    evicted_jobs: int = 0
    #: Jobs whose flows were moved onto a new placement after a fault.
    rerouted_jobs: int = 0
    #: Highest number of simultaneously undrained flows.
    peak_concurrent_flows: int = 0

    @property
    def network_utilization(self) -> float:
        """Bytes carried over total link capacity-seconds."""
        if self.link_capacity_seconds <= 0:
            return 0.0
        return self.carried_bytes / self.link_capacity_seconds

    @property
    def mean_occupancy(self) -> float:
        """Time-averaged slot occupancy over the run."""
        if self.elapsed <= 0:
            return 0.0
        return self.occupancy_integral / self.elapsed


class ClusterSim:
    """Fluid simulation of tenant churn over a placement manager."""

    def __init__(self, manager: PlacementManager, sharing: str = "reserved",
                 tracer=None, faults: Optional[FaultSchedule] = None,
                 controller: Optional[ClusterController] = None):
        """``faults`` attaches a :class:`repro.faults.FaultSchedule`: its
        events are folded into the run loop's next-event search, effective
        link capacities are scaled by the composed health state, and a
        :class:`~repro.placement.controller.ClusterController` (an
        implicit one with ``retry_evicted=False`` unless ``controller``
        is given -- a killed job cannot resurrect) re-places affected
        tenants.  Re-placed tenants' jobs continue on the new paths (live
        migration semantics); evicted tenants' jobs are killed.  With no
        schedule attached the fault path costs one ``is None`` test per
        loop iteration.
        """
        if sharing not in _SHARING:
            raise ValueError(f"sharing must be one of {_SHARING}")
        self.manager = manager
        #: The shared event core (:class:`repro.core.engine.EventEngine`):
        #: owns the clock, the tie-breaking sequence numbers, and the
        #: trace sink.  The simulator keeps its specialized
        #: epoch-invalidated heaps (stale finish predictions are discarded
        #: on pop, which the generic queue has no reason to know about)
        #: but draws all three shared facilities from here.
        self.engine = EventEngine(tracer=tracer)
        #: Optional :class:`repro.obs.TimeSeries` of aggregate link
        #: utilization; attach via :meth:`monitor_utilization`.
        self.utilization_series = None
        self.topology = manager.topology
        self.sharing = sharing
        self.jobs: Dict[int, TenantJob] = {}
        self.stats = ClusterStats()
        self._link_capacity: Dict[int, float] = {
            port.port_id: port.capacity for port in self.topology.ports}
        self._rates_dirty = True
        # -- incremental sharing ----------------------------------------------
        #: The persistent max-min solver of the shared class: every flow
        #: over the full link capacities under "maxmin" sharing; the
        #: best-effort flows over *residual* capacities under "reserved",
        #: created at the first best-effort admission.
        self._solver: Optional[IncrementalMaxMin] = (
            IncrementalMaxMin(self._link_capacity)
            if sharing == "maxmin" else None)
        #: ``manager.reservation_version`` at the last residual rebuild
        #: (None forces a rebuild, e.g. after a fault rescales links).
        self._residual_version: Optional[int] = None
        #: solver key -> flow, for applying changed rates.
        self._solver_flows: Dict[Tuple[int, int], FlowState] = {}
        #: Intra-server flows admitted since the last recompute; they get
        #: NIC line rate at the next recompute, exactly where the full
        #: rebuild used to assign it.
        self._pending_linkless: List[FlowState] = []
        #: Actual rate changes applied (epoch bumps); no-op updates are
        #: skipped and do not count.
        self.rate_update_count = 0
        self._live_flows = 0
        # -- event heaps ------------------------------------------------------
        # Tie-breaking sequence numbers come from ``self.engine.next_seq``
        # so these heaps share one total order with engine-queued events.
        # (finish_time, seq, epoch, flow): valid iff epoch == flow.epoch.
        self._flow_events: List[Tuple[float, int, int, FlowState]] = []
        # (compute_end, seq, tenant_id): pushed once network traffic drains.
        self._job_events: List[Tuple[float, int, int]] = []
        #: sum(rate * hops) over running flows -- carried bytes integrate
        #: from this instead of per-flow advances.
        self._carried_rate = 0.0
        self._active_flows: Dict[int, int] = {}  # tenant -> undrained flows
        self._admit_order: Dict[int, int] = {}   # tenant -> admission seq
        self._n_admitted = 0
        self._n_best_effort = 0
        self._ready: List[int] = []  # jobs finishable at the current time
        #: Optional per-port used-rate recorder (duck-typed; see
        #: :class:`repro.hybrid.recorder.PortUsageRecorder`); attach via
        #: :meth:`monitor_port_usage`.  ``None`` keeps the hot paths at
        #: one ``is None`` test per actual rate change.
        self._port_usage = None
        # -- fault injection --------------------------------------------------
        # The schedule's time-sorted events and the index of the next
        # undelivered one, folded into the run loop's next-event search;
        # empty schedules attach nothing.
        self._faults: Optional[Tuple[FaultEvent, ...]] = (
            None if faults is None or faults.is_empty else faults.events)
        self._fault_cursor = 0
        self.controller: Optional[ClusterController] = None
        self._base_capacity: Dict[int, float] = {}
        self._down_ports: frozenset = frozenset()
        if self._faults is not None or controller is not None:
            self.controller = (controller if controller is not None
                               else ClusterController(manager, tracer=tracer,
                                                      retry_evicted=False))
            self._base_capacity = dict(self._link_capacity)

    def monitor_utilization(self, interval: float,
                            reservoir_size: int = 0):
        """Attach a :class:`repro.obs.TimeSeries` sampling aggregate link
        utilization (carried rate over total capacity) and return it."""
        self.utilization_series = TimeSeries(
            name="utilization", interval=interval,
            reservoir_size=reservoir_size)
        return self.utilization_series

    def monitor_port_usage(self, recorder) -> None:
        """Feed every actual flow rate change to ``recorder``.

        ``recorder.record(links, old_rate, new_rate, now)`` is called
        once per change -- the residual-capacity feed of the
        hybrid-fidelity simulation, which hands in a
        :class:`repro.hybrid.recorder.PortUsageRecorder` over the ports
        it watches.  Detached, the hot paths pay one ``is None`` test
        per rate change.
        """
        self._port_usage = recorder

    @property
    def tracer(self):
        """Optional :class:`repro.obs.TraceSink` receiving ``flow.start``
        / ``flow.finish`` events (plus the manager's admission events
        when the manager shares this tracer); owned by :attr:`engine`."""
        return self.engine.tracer

    @tracer.setter
    def tracer(self, sink) -> None:
        """Point the shared engine (and so every consumer) at ``sink``."""
        self.engine.tracer = sink

    @property
    def now(self) -> float:
        """Current virtual time, read from the shared engine clock."""
        return self.engine.now

    # -- admission -------------------------------------------------------------

    def _admit(self, arrival: TenantArrival, now: float) -> bool:
        placement = self.manager.place(arrival.request, now=now)
        if placement is None:
            return False
        flows = self._build_flows(arrival, placement.vm_servers)
        tracer = self.tracer
        for flow in flows:
            flow.updated = now
            if tracer is not None:
                tracer.emit(FlowStart(
                    time=now, tenant_id=flow.tenant_id, src=flow.src_vm,
                    dst=flow.dst_vm, size=flow.remaining))
        job = TenantJob(request=arrival.request, placement=placement,
                        flows=flows, compute_time=arrival.compute_time,
                        arrival=now)
        tenant_id = arrival.request.tenant_id
        self.jobs[tenant_id] = job
        self._admit_order[tenant_id] = self._n_admitted
        self._n_admitted += 1
        if arrival.request.guarantee is None:
            self._n_best_effort += 1
        active = sum(1 for flow in flows if not flow.done)
        self._active_flows[tenant_id] = active
        self._live_flows += active
        if self._live_flows > self.stats.peak_concurrent_flows:
            self.stats.peak_concurrent_flows = self._live_flows
        if active == 0:
            self._schedule_compute_end(job, now)
        if self.sharing == "reserved":
            self._assign_reserved_rates(job, now)
            if arrival.request.guarantee is None:
                self._register_shared_flows(job)
        else:
            self._register_shared_flows(job)
            self._rates_dirty = True
        return True

    def _register_shared_flows(self, job: TenantJob) -> None:
        """Enter a job's flows into the incremental sharing solver."""
        if self._solver is None:
            self._solver = IncrementalMaxMin()
            self._refresh_residual(force=True)
        solver = self._solver
        tenant_id = job.tenant_id
        for i, flow in enumerate(job.flows):
            key = (tenant_id, i)
            flow.key = key
            if flow.links:
                solver.add_flow(key, flow.links, math.inf)
                self._solver_flows[key] = flow
            else:
                self._pending_linkless.append(flow)

    def _solver_discard(self, flow: FlowState) -> None:
        """Drop a drained/killed flow from its sharing solver, if any."""
        key = flow.key
        if key is None:
            return
        solver = self._solver
        if solver is not None and key in solver:
            solver.remove_flow(key)
            del self._solver_flows[key]

    def _build_flows(self, arrival: TenantArrival,
                     vm_servers: List[int]) -> List[FlowState]:
        flows = []
        for src_idx, dst_idx in arrival.pairs:
            src_server = vm_servers[src_idx]
            dst_server = vm_servers[dst_idx]
            links = tuple(p.port_id for p in
                          self.topology.path_ports(src_server, dst_server))
            flows.append(FlowState(
                tenant_id=arrival.request.tenant_id, src_vm=src_idx,
                dst_vm=dst_idx, links=links,
                remaining=max(arrival.flow_bytes, 1.0)))
        return flows

    def _assign_reserved_rates(self, job: TenantJob, now: float) -> None:
        """Hose-model split of the tenant's own guarantee (no sharing).

        Best-effort jobs (no guarantee) are handled dynamically instead:
        they share the *residual* capacity max-min (section 4.4's
        low-priority class), recomputed as guaranteed tenants come and
        go.
        """
        guarantee = job.request.guarantee
        if guarantee is None:
            self._rates_dirty = True
            return
        demands = {(f.src_vm, f.dst_vm): math.inf for f in job.flows}
        hoses = {vm: guarantee.bandwidth
                 for f in job.flows for vm in (f.src_vm, f.dst_vm)}
        rates = allocate_hose_rates(demands, hoses)
        for flow in job.flows:
            flow.nominal_rate = max(rates[(flow.src_vm, flow.dst_vm)], 1.0)
            self._set_rate(flow, self._reserved_rate(flow), now)
        if self._n_best_effort:
            # The residual capacity changed under the best-effort class.
            self._rates_dirty = True

    def _refresh_residual(self, force: bool = False) -> None:
        """Sync the best-effort solver's residual capacity map.

        Residual capacity per port is line rate minus the placement
        manager's current bandwidth reservations (the 802.1q split: the
        low-priority class sees only what the guaranteed class leaves).
        The map is cached against ``manager.reservation_version`` and
        rebuilt only when reservations (or, via ``force``/a cleared
        version, effective link capacities) actually changed.
        """
        version = self.manager.reservation_version
        if not force and version == self._residual_version:
            return
        solver = self._solver
        states = self.manager.states
        for port_id, capacity in self._link_capacity.items():
            reserved = states[port_id].bandwidth
            # Leave the best-effort class a sliver even on a fully
            # reserved port, as real low-priority queues drain whenever
            # the guaranteed class pauses.
            solver.set_capacity(port_id,
                                max(capacity - reserved, 0.01 * capacity))
        self._residual_version = version

    def _reserved_rate(self, flow: FlowState) -> float:
        """The flow's reserved rate, capped by its weakest effective link.

        Without faults this is exactly the nominal hose split (one dict
        test).  Under faults, a down link pins the flow at zero and a
        degraded link caps it at the scaled capacity -- a fluid
        approximation (concurrent reserved flows on a degraded link may
        sum past it), which errs toward optimism for the *faulted*
        interval only.
        """
        rate = flow.nominal_rate
        if not self._base_capacity:
            return rate
        for port_id in flow.links:
            capacity = self._link_capacity[port_id]
            if capacity < rate:
                rate = capacity
        return rate

    # -- max-min sharing -------------------------------------------------------------

    def _recompute(self, now: float) -> None:
        """Re-solve the shared class: every flow under "maxmin" sharing,
        the best-effort flows over the residual capacity under
        "reserved"."""
        reserved = self.sharing == "reserved"
        if reserved and not self._n_best_effort:
            # No best-effort jobs anywhere: guaranteed rates are fixed at
            # admission, nothing to recompute.
            self._rates_dirty = False
            return
        if self._pending_linkless:
            self._flush_pending_linkless(now)
        solver = self._solver
        if not reserved or len(solver):
            if reserved:
                self._refresh_residual()
            changed = solver.recompute()
            if changed:
                self._apply_rates(changed, now)
        self._rates_dirty = False

    def _flush_pending_linkless(self, now: float) -> None:
        # Intra-server flows: bounded by the vswitch, modelled at NIC
        # line rate.  Set once, before the solved rates, exactly where
        # the full rebuild used to assign them.
        rate = self.topology.link_rate
        for flow in self._pending_linkless:
            self._set_rate(flow, rate, now)
        self._pending_linkless.clear()

    def _apply_rates(self, changed: Dict[Tuple[int, int], float],
                     now: float) -> None:
        """Apply a solver's changed rates, in ``changed`` order."""
        flows_map = self._solver_flows
        for key, rate in changed.items():
            flow = flows_map[key]
            self._set_rate(flow, rate if rate > 0.0 else 0.0, now)
            if flow.remaining <= _DONE_EPS:
                # Drained inside the rate change (aggregate overshoot):
                # the next from-scratch solve would skip it, so the
                # persistent solver must drop it too.
                self._solver_discard(flow)

    # -- event engine ----------------------------------------------------------

    def _materialize(self, flow: FlowState, now: float) -> None:
        """Bring a flow's lazily-advanced ``remaining`` up to ``now``."""
        dt = now - flow.updated
        if dt > 0.0 and flow.rate > 0.0 and flow.remaining > 0.0:
            moved = flow.rate * dt
            if moved > flow.remaining:
                # The aggregate carried-rate integral ran this flow past
                # its tail (the nanosecond clamp, or float slop); refund
                # the overshoot so carried_bytes stays exact.
                self.stats.carried_bytes -= ((moved - flow.remaining)
                                             * len(flow.links))
                moved = flow.remaining
            flow.remaining -= moved
        flow.updated = now

    def _set_rate(self, flow: FlowState, rate: float, now: float) -> None:
        """Change a flow's fluid rate and reschedule its finish event.

        A no-op when the rate is unchanged: the flow's trajectory -- and
        therefore its already-scheduled finish event -- is still exact.
        This is what keeps global recomputes cheap in steady state.
        """
        if rate == flow.rate:
            return
        self._materialize(flow, now)
        self._carried_rate += (rate - flow.rate) * len(flow.links)
        if self._port_usage is not None:
            self._port_usage.record(flow.links, flow.rate, rate, now)
        flow.rate = rate
        flow.epoch += 1
        self.rate_update_count += 1
        if rate > 0.0 and flow.remaining > _DONE_EPS:
            # Same nanosecond clamp as the seed loop, so time always
            # advances even when remaining/rate underflows next to `now`.
            finish = now + max(flow.remaining / rate, 1e-9)
            heappush(self._flow_events,
                     (finish, self.engine.next_seq(), flow.epoch, flow))

    def _schedule_compute_end(self, job: TenantJob, now: float) -> None:
        end = job.arrival + job.compute_time
        if end <= now + _TIME_EPS:
            self._ready.append(job.tenant_id)
        else:
            heappush(self._job_events,
                     (end, self.engine.next_seq(), job.tenant_id))

    def _on_flow_finish(self, flow: FlowState, epoch: int,
                        now: float) -> bool:
        """Handle a popped flow-finish event; True if the flow drained."""
        if epoch != flow.epoch or flow.remaining <= _DONE_EPS:
            return False  # superseded by a rate change, or already done
        self._materialize(flow, now)
        if flow.remaining > _DONE_EPS:
            # Fired early (nanosecond clamp / pop slop): reschedule.
            flow.epoch += 1
            finish = now + max(flow.remaining / flow.rate, 1e-9)
            heappush(self._flow_events,
                     (finish, self.engine.next_seq(), flow.epoch, flow))
            return False
        # Drained: its share frees up for others.
        self._carried_rate -= flow.rate * len(flow.links)
        if self._port_usage is not None:
            self._port_usage.record(flow.links, flow.rate, 0.0, now)
        flow.epoch += 1
        self._rates_dirty = True
        self._solver_discard(flow)
        self._live_flows -= 1
        tenant_id = flow.tenant_id
        if self.tracer is not None:
            job = self.jobs.get(tenant_id)
            started = job.arrival if job is not None else now
            self.tracer.emit(FlowFinish(
                time=now, tenant_id=tenant_id, src=flow.src_vm,
                dst=flow.dst_vm, latency=now - started))
        self._active_flows[tenant_id] -= 1
        if self._active_flows[tenant_id] == 0:
            job = self.jobs.get(tenant_id)
            if job is not None:
                self._schedule_compute_end(job, now)
        return True

    def _on_compute_end(self, tenant_id: int, now: float) -> bool:
        job = self.jobs.get(tenant_id)
        if job is None or self._active_flows.get(tenant_id, 1) != 0:
            return False
        self._ready.append(tenant_id)
        return True

    def _finish_ready(self, now: float) -> bool:
        """Retire every job whose flows drained and compute time passed."""
        if not self._ready:
            return False
        if len(self._ready) > 1:
            # The seed loop collects same-instant finishers in
            # admission order (its jobs-dict scan); match it.
            self._ready.sort(key=self._admit_order.__getitem__)
        for tenant_id in self._ready:
            job = self.jobs.pop(tenant_id, None)
            if job is None:
                continue
            job.finish = now
            self.stats.finished_jobs += 1
            self.stats.job_durations.append(job.duration)
            self.stats.durations_by_tenant[tenant_id] = job.duration
            self.manager.remove(tenant_id)
            if self.controller is not None:
                self.controller.notify_departed(tenant_id, now)
            if job.request.guarantee is None:
                self._n_best_effort -= 1
            del self._active_flows[tenant_id]
            del self._admit_order[tenant_id]
            self._rates_dirty = True
        self._ready.clear()
        return True

    # -- fault handling --------------------------------------------------------

    def _apply_fault(self, event: FaultEvent, now: float) -> None:
        """Fold one fault event into the running simulation.

        The controller owns the control-plane reaction (release, fence,
        re-place, classify); this method mirrors the data plane: scaled
        link capacities, per-flow rate caps, job kills and reroutes.
        """
        controller = self.controller
        outcomes = controller.apply(event, now)
        if self.tracer is not None:
            self.tracer.emit(FaultInjected(
                time=now, target=event.target.spec, action=event.action,
                factor=event.factor))
        health = controller.health
        for port_id, base in self._base_capacity.items():
            self._link_capacity[port_id] = base * health.factor(port_id)
        self._down_ports = frozenset(health.down_ports)
        if self.sharing == "maxmin":
            for port_id, capacity in self._link_capacity.items():
                self._solver.set_capacity(port_id, capacity)
        # Effective capacities moved under the best-effort residuals.
        self._residual_version = None
        for tenant_id in sorted(outcomes):
            job = self.jobs.get(tenant_id)
            if job is None:
                continue  # affected tenant's job already departed/killed
            if outcomes[tenant_id] == OUTCOME_EVICTED:
                self._kill_job(job, now)
            else:
                self._reroute_job(job, now)
        self._cap_reserved_rates(now)
        self._rates_dirty = True

    def _kill_job(self, job: TenantJob, now: float) -> None:
        """Remove an evicted tenant's job; its traffic stops here.

        The controller already released the tenant's reservations; this
        is pure simulator bookkeeping.
        """
        tenant_id = job.tenant_id
        for flow in job.flows:
            if not flow.done:
                self._set_rate(flow, 0.0, now)
                flow.remaining = 0.0
                self._live_flows -= 1
            self._solver_discard(flow)
        if self._pending_linkless:
            self._pending_linkless = [
                f for f in self._pending_linkless
                if f.tenant_id != tenant_id]
        self.jobs.pop(tenant_id, None)
        self._active_flows.pop(tenant_id, None)
        self._admit_order.pop(tenant_id, None)
        if tenant_id in self._ready:
            self._ready.remove(tenant_id)
        if job.request.guarantee is None:
            self._n_best_effort -= 1
        self.stats.evicted_jobs += 1
        self._rates_dirty = True

    def _reroute_job(self, job: TenantJob, now: float) -> None:
        """Move a re-placed tenant's flows onto its new paths.

        Live-migration semantics: each flow keeps its remaining bytes and
        continues over the new placement's links.
        """
        placement = self.manager.placements[job.tenant_id]
        job.placement = placement
        vm_servers = placement.vm_servers
        moved = False
        shared = (self.sharing == "maxmin"
                  or job.request.guarantee is None)
        for flow in job.flows:
            if flow.done:
                continue
            links = tuple(p.port_id for p in self.topology.path_ports(
                vm_servers[flow.src_vm], vm_servers[flow.dst_vm]))
            if links != flow.links:
                # Retire the old path's carried rate before swapping the
                # hop count under the aggregate integral.
                self._set_rate(flow, 0.0, now)
                if shared:
                    self._solver_discard(flow)
                    if flow in self._pending_linkless:
                        self._pending_linkless.remove(flow)
                flow.links = links
                if shared and not flow.done:
                    if links:
                        self._solver.add_flow(flow.key, links, math.inf)
                        self._solver_flows[flow.key] = flow
                    else:
                        self._pending_linkless.append(flow)
                moved = True
            if (self.sharing == "reserved"
                    and job.request.guarantee is not None):
                self._set_rate(flow, self._reserved_rate(flow), now)
        if moved:
            self.stats.rerouted_jobs += 1
        self._rates_dirty = True

    def _cap_reserved_rates(self, now: float) -> None:
        """Re-cap every reserved flow after effective capacities changed."""
        if self.sharing != "reserved":
            return
        for job in self.jobs.values():
            if job.request.guarantee is None:
                continue
            for flow in job.flows:
                if flow.done or not flow.links:
                    continue
                self._set_rate(flow, self._reserved_rate(flow), now)

    # -- main loop -----------------------------------------------------------------

    def run(self, workload: TenantWorkload, until: float) -> ClusterStats:
        """Drive the simulation to ``until`` seconds of virtual time."""
        arrivals = iter(workload.arrivals(until))
        pending = next(arrivals, None)
        engine = self.engine
        now = engine.now = 0.0
        total_capacity = sum(self._link_capacity.values())
        flow_events = self._flow_events
        job_events = self._job_events
        faults = self._faults
        stats = self.stats

        while now < until:
            if self._rates_dirty:
                self._recompute(now)
            # Drop stale finish predictions so they can't drag t_next back.
            while flow_events:
                head = flow_events[0]
                flow = head[3]
                if head[2] != flow.epoch or flow.remaining <= _DONE_EPS:
                    heappop(flow_events)
                else:
                    break
            # Earliest next event.
            t_next = until
            if pending is not None and pending.time < t_next:
                t_next = pending.time
            if flow_events and flow_events[0][0] < t_next:
                t_next = flow_events[0][0]
            if job_events and job_events[0][0] < t_next:
                t_next = job_events[0][0]
            if (faults is not None and self._fault_cursor < len(faults)
                    and faults[self._fault_cursor].time < t_next):
                t_next = faults[self._fault_cursor].time
            if t_next < now:
                t_next = now
            dt = t_next - now
            # Advance accounting; fluids advance lazily.
            if dt > 0:
                stats.carried_bytes += self._carried_rate * dt
                stats.occupancy_integral += self.manager.occupancy * dt
                stats.link_capacity_seconds += total_capacity * dt
                if self.utilization_series is not None and total_capacity:
                    self.utilization_series.record(
                        now, self._carried_rate / total_capacity)
            # Advance the shared clock with the local one, so hooks (trace
            # sinks, port-usage recorders) and cross-fidelity consumers
            # read the authoritative time from the engine.
            now = engine.now = t_next
            progressed = dt > 0
            # Faults first: capacity changes and evictions take effect
            # before same-instant drains and arrivals see them.
            if faults is not None:
                while (self._fault_cursor < len(faults)
                       and faults[self._fault_cursor].time
                       <= now + _TIME_EPS):
                    fault = faults[self._fault_cursor]
                    self._fault_cursor += 1
                    self._apply_fault(fault, now)
                    progressed = True
            # Flow drains at (or before) now.
            while flow_events and flow_events[0][0] <= now + _TIME_EPS:
                _, _, epoch, flow = heappop(flow_events)
                if self._on_flow_finish(flow, epoch, now):
                    progressed = True
            # Compute expirations.
            while job_events and job_events[0][0] <= now + _TIME_EPS:
                _, _, tenant_id = heappop(job_events)
                if self._on_compute_end(tenant_id, now):
                    progressed = True
            # Arrivals at (or before) now.
            while pending is not None and pending.time <= now + _TIME_EPS:
                self._admit(pending, now)
                pending = next(arrivals, None)
                progressed = True
            # Completions.
            finished = self._finish_ready(now)
            if not progressed and not finished and pending is None:
                # No progress possible: mirror the seed loop's
                # defensive stuck check (rare; O(jobs) is fine here).
                remaining_ends = [job.arrival + job.compute_time
                                  for job in self.jobs.values()
                                  if not (job.network_done and
                                          job.arrival + job.compute_time
                                          <= now)]
                blocked = [f for job in self.jobs.values()
                           for f in job.flows
                           if not f.done and f.rate <= 0]
                if not remaining_ends and not blocked:
                    break
                if blocked and not remaining_ends:
                    down = self._down_ports
                    if not (down and all(
                            any(link in down for link in flow.links)
                            for flow in blocked)):
                        raise RuntimeError(
                            "flows stuck with zero rate; sharing policy "
                            "bug")
                    # Every blocked flow crosses a down port: fault
                    # stall, frozen until repair (or the end of the run).
        # Bring every live flow up to the final clock so post-run
        # inspection (and the carried-bytes refunds) see current state.
        for job in self.jobs.values():
            for flow in job.flows:
                if flow.rate > 0.0 and flow.remaining > _DONE_EPS:
                    self._materialize(flow, now)
        stats.elapsed = now
        return stats
