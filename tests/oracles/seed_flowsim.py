# Differential-test oracle: the seed fluid simulator,
# ``src/repro/flowsim/reference.py`` as it stood before it left the package,
# copied verbatim below this header
# (``git show 1587c51:src/repro/flowsim/reference.py``); the only edits
# are the ``max_min_fair_reference`` import, which now comes from the
# sibling oracle ``seed_maxmin``, and the docstring's list of who runs it:
# ``tests/flowsim/test_sim_equivalence.py``, beside ``ClusterSim``.  Do not
# optimise or "fix" this file: it is the reference, not product code.
"""The reference (seed) fluid simulator, kept verbatim as an oracle.

:class:`~repro.flowsim.sim.ClusterSim` is event-driven: it keeps a
min-heap of predicted flow-finish and compute-end times and advances
flows lazily, so an event costs O(affected · log n).  This module
preserves the original O(total flows)-per-event implementation --
rescan every flow of every job to find ``t_next``, then advance every
fluid -- exactly as it shipped in the seed.

It exists as a cross-check: the property tests in
``tests/flowsim/test_sim_equivalence.py`` run both simulators over identical
workloads and assert the resulting :class:`ClusterStats` agree
(``finished_jobs`` exactly; ``carried_bytes``/``job_durations`` to
1e-6 relative).  Do not optimise this file; optimise ``sim.py`` and
prove it here.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.flowsim.job import FlowState, TenantJob
from repro.flowsim.sim import _SHARING, _TIME_EPS, ClusterStats
from repro.flowsim.workload import TenantArrival, TenantWorkload
from repro.pacer.eyeq import allocate_hose_rates
from repro.placement.base import PlacementManager

from seed_maxmin import max_min_fair_reference as max_min_fair


class ReferenceClusterSim:
    """Fluid simulation of tenant churn: the seed implementation."""

    def __init__(self, manager: PlacementManager,
                 sharing: str = "reserved"):
        if sharing not in _SHARING:
            raise ValueError(f"sharing must be one of {_SHARING}")
        self.manager = manager
        self.topology = manager.topology
        self.sharing = sharing
        self.jobs: Dict[int, TenantJob] = {}
        self.stats = ClusterStats()
        self._link_capacity: Dict[int, float] = {
            port.port_id: port.capacity for port in self.topology.ports}
        self._rates_dirty = True

    # -- admission -------------------------------------------------------------

    def _admit(self, arrival: TenantArrival, now: float) -> bool:
        placement = self.manager.place(arrival.request)
        if placement is None:
            return False
        flows = self._build_flows(arrival, placement.vm_servers)
        job = TenantJob(request=arrival.request, placement=placement,
                        flows=flows, compute_time=arrival.compute_time,
                        arrival=now)
        self.jobs[arrival.request.tenant_id] = job
        if self.sharing == "reserved":
            self._assign_reserved_rates(job)
        else:
            self._rates_dirty = True
        return True

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

    def _assign_reserved_rates(self, job: TenantJob) -> None:
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
            flow.rate = max(rates[(flow.src_vm, flow.dst_vm)], 1.0)
        if any(j.request.guarantee is None for j in self.jobs.values()):
            # The residual capacity changed under the best-effort class.
            self._rates_dirty = True

    def _recompute_best_effort(self) -> None:
        """Max-min share the residual capacity among best-effort flows.

        Residual capacity per port is line rate minus the placement
        manager's current bandwidth reservations (the 802.1q split: the
        low-priority class sees only what the guaranteed class leaves).
        """
        flows = {}
        index = {}
        for job in self.jobs.values():
            if job.request.guarantee is not None:
                continue
            for i, flow in enumerate(job.flows):
                if flow.done:
                    continue
                if not flow.links:
                    flow.rate = self.topology.link_rate
                    continue
                key = (job.tenant_id, i)
                flows[key] = (flow.links, math.inf)
                index[key] = flow
        if not flows:
            self._rates_dirty = False
            return
        residual = {}
        for port_id, capacity in self._link_capacity.items():
            reserved = self.manager.states[port_id].bandwidth
            # Leave the best-effort class a sliver even on a fully
            # reserved port, as real low-priority queues drain whenever
            # the guaranteed class pauses.
            residual[port_id] = max(capacity - reserved, 0.01 * capacity)
        rates = max_min_fair(flows, residual)
        for key, flow in index.items():
            flow.rate = max(rates[key], 0.0)
        self._rates_dirty = False

    # -- max-min sharing -------------------------------------------------------------

    def _recompute_maxmin(self) -> None:
        flows = {}
        index = {}
        for job in self.jobs.values():
            for i, flow in enumerate(job.flows):
                if flow.done:
                    continue
                if not flow.links:
                    # Intra-server flow: bounded by the vswitch, modelled
                    # at NIC line rate.
                    flow.rate = self.topology.link_rate
                    continue
                key = (job.tenant_id, i)
                flows[key] = (flow.links, math.inf)
                index[key] = flow
        if not flows:
            self._rates_dirty = False
            return
        rates = max_min_fair(flows, self._link_capacity)
        for key, flow in index.items():
            flow.rate = max(rates[key], 0.0)
        self._rates_dirty = False

    # -- main loop -----------------------------------------------------------------

    def run(self, workload: TenantWorkload, until: float) -> ClusterStats:
        """Drive the simulation to ``until`` seconds of virtual time."""
        arrivals = iter(workload.arrivals(until))
        pending = next(arrivals, None)
        now = 0.0
        total_capacity = sum(self._link_capacity.values())

        while now < until:
            if self._rates_dirty:
                if self.sharing == "maxmin":
                    self._recompute_maxmin()
                else:
                    self._recompute_best_effort()
            # Earliest next event.
            t_next = until
            if pending is not None:
                t_next = min(t_next, pending.time)
            for job in self.jobs.values():
                compute_end = job.arrival + job.compute_time
                if job.network_done:
                    t_next = min(t_next, max(compute_end, now))
                    continue
                for flow in job.flows:
                    if not flow.done and flow.rate > 0:
                        # Clamp to nanosecond granularity so time always
                        # advances even when remaining/rate underflows
                        # relative to ``now``.
                        finish_dt = max(flow.remaining / flow.rate, 1e-9)
                        t_next = min(t_next, now + finish_dt)
            t_next = max(t_next, now)
            dt = t_next - now
            # Advance fluids and accounting.
            if dt > 0:
                for job in self.jobs.values():
                    for flow in job.flows:
                        if flow.done or flow.rate <= 0:
                            continue
                        moved = min(flow.remaining, flow.rate * dt)
                        flow.remaining -= moved
                        self.stats.carried_bytes += moved * len(flow.links)
                        if flow.done:
                            # A drained flow frees its share for others.
                            self._rates_dirty = True
                self.stats.occupancy_integral += (
                    self.manager.occupancy * dt)
                self.stats.link_capacity_seconds += total_capacity * dt
            now = t_next
            # Arrivals at (or before) now.
            while pending is not None and pending.time <= now + _TIME_EPS:
                self._admit(pending, now)
                pending = next(arrivals, None)
            # Completions.
            finished = [t for t, job in self.jobs.items()
                        if job.network_done
                        and now + _TIME_EPS
                        >= job.arrival + job.compute_time]
            for tenant_id in finished:
                job = self.jobs.pop(tenant_id)
                job.finish = now
                self.stats.finished_jobs += 1
                self.stats.job_durations.append(job.duration)
                self.stats.durations_by_tenant[tenant_id] = job.duration
                self.manager.remove(tenant_id)
                self._rates_dirty = True
            if dt <= 0 and pending is None and not finished:
                # No progress possible: only compute timers remain.
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
                    raise RuntimeError(
                        "flows stuck with zero rate; sharing policy bug")
        self.stats.elapsed = now
        return self.stats
