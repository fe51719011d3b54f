"""Observability hooks in the fluid simulator.

Same contract as the packet simulator's tracing tests: events mirror the
simulator's own accounting, and running with no sink attached changes
nothing.
"""

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.flowsim import ClusterSim
from repro.flowsim.workload import TenantArrival
from repro.obs import RingBufferSink
from repro.placement import SiloPlacementManager
from repro.placement.audit import AdmissionAudit
from repro.topology import TreeTopology


def topo():
    return TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=4,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=2.0)


def arrival(tenant_id, time=0.0, n_vms=2, bandwidth=units.gbps(1),
            flow_bytes=10 * units.MB):
    request = TenantRequest(
        tenant_id=tenant_id, n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=bandwidth,
                                   burst=1.5 * units.KB),
        tenant_class=TenantClass.CLASS_B)
    pairs = [(i, (i + 1) % n_vms) for i in range(n_vms)]
    return TenantArrival(time=time, request=request, pairs=pairs,
                         flow_bytes=flow_bytes, compute_time=0.0)


class StaticWorkload:
    def __init__(self, items):
        self._items = items

    def arrivals(self, until):
        return iter([a for a in self._items if a.time < until])


def run_traced(sink, audit=None, utilization=False):
    manager = SiloPlacementManager(topo())
    manager.audit, manager.tracer = audit, sink
    sim = ClusterSim(manager, sharing="reserved", tracer=sink)
    series = (sim.monitor_utilization(interval=0.1)
              if utilization else None)
    items = [arrival(0, time=0.0), arrival(1, time=0.5)]
    stats = sim.run(StaticWorkload(items), until=10.0)
    return stats, series


class TestFlowEvents:
    def test_lifecycle_events_match_accounting(self):
        sink = RingBufferSink()
        stats, _ = run_traced(sink)
        starts = sink.of_kind("flow.start")
        finishes = sink.of_kind("flow.finish")
        # Two tenants, two flows each (the ring of 2 VMs has 2 pairs).
        assert len(starts) == 4
        assert len(finishes) == 4
        assert {e.tenant_id for e in starts} == {0, 1}
        # Each flow's traced latency matches the fluid model: 10 MB over
        # a 1 Gbps hose shared by nothing else.
        expected = 10 * units.MB / units.gbps(1)
        for event in finishes:
            assert event.latency == pytest.approx(expected, rel=0.01)

    def test_admission_events_and_audit(self):
        sink = RingBufferSink()
        audit = AdmissionAudit()
        stats, _ = run_traced(sink, audit=audit)
        decisions = sink.of_kind("admission")
        assert len(decisions) == len(audit.records) == 2
        assert all(d.admitted for d in decisions)
        # Arrival times annotate the decisions.
        assert sorted(d.time for d in decisions) == [0.0, 0.5]

    def test_utilization_series_records(self):
        manager = SiloPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        series = sim.monitor_utilization(interval=0.1)
        # 8 VMs exceed one 4-slot server, so the flows cross real links
        # (same-server traffic would leave utilization at zero).
        sim.run(StaticWorkload([arrival(0, n_vms=8)]), until=10.0)
        assert series.count > 0
        peak = max(b.vmax for b in series.buckets())
        assert 0.0 < peak <= 1.0

    def test_tracing_does_not_change_results(self):
        def run(sink):
            manager = SiloPlacementManager(topo())
            manager.tracer = sink
            sim = ClusterSim(manager, sharing="reserved", tracer=sink)
            items = [arrival(0, time=0.0), arrival(1, time=0.5)]
            stats = sim.run(StaticWorkload(items), until=10.0)
            return (stats.finished_jobs, tuple(stats.job_durations),
                    manager.accepted, manager.rejected)

        assert run(None) == run(RingBufferSink())
