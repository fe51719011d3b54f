"""Fluid cluster simulator: jobs, sharing policies, accounting."""

import math

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.flowsim.workload import TenantArrival
from repro.hybrid.recorder import PortUsageRecorder
from repro.placement import (
    LocalityPlacementManager,
    OktopusPlacementManager,
    SiloPlacementManager,
)
from repro.topology import TreeTopology


def topo(**kwargs):
    defaults = dict(n_pods=1, racks_per_pod=2, servers_per_rack=4,
                    slots_per_server=4, link_rate=units.gbps(10),
                    oversubscription=2.0)
    defaults.update(kwargs)
    return TreeTopology(**defaults)


def arrival(time=0.0, n_vms=4, bandwidth=units.gbps(1),
            flow_bytes=10 * units.MB, compute=0.0, pairs=None):
    request = TenantRequest(
        n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=bandwidth,
                                   burst=1.5 * units.KB),
        tenant_class=TenantClass.CLASS_B)
    if pairs is None:
        pairs = [(i, (i + 1) % n_vms) for i in range(n_vms)]
    return TenantArrival(time=time, request=request, pairs=pairs,
                         flow_bytes=flow_bytes, compute_time=compute)


class StaticWorkload:
    """A fixed arrival list standing in for the Poisson stream."""

    def __init__(self, items):
        self._items = items

    def arrivals(self, until):
        return iter([a for a in self._items if a.time < until])


class TestReservedSharing:
    def test_job_finishes_at_hose_rate(self):
        manager = OktopusPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        # One tenant, 2 VMs, one flow of 10 MB at a 1 Gbps hose.
        item = arrival(n_vms=2, pairs=[(0, 1)],
                       flow_bytes=10 * units.MB)
        stats = sim.run(StaticWorkload([item]), until=10.0)
        assert stats.finished_jobs == 1
        expected = 10 * units.MB / units.gbps(1)
        assert stats.job_durations[0] == pytest.approx(expected, rel=0.01)

    def test_compute_time_extends_job(self):
        manager = OktopusPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        item = arrival(n_vms=2, pairs=[(0, 1)], flow_bytes=units.MB,
                       compute=2.0)
        stats = sim.run(StaticWorkload([item]), until=10.0)
        assert stats.finished_jobs == 1
        assert stats.job_durations[0] == pytest.approx(2.0, rel=0.01)

    def test_all_to_one_splits_receiver_hose(self):
        manager = OktopusPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        pairs = [(i, 3) for i in range(3)]
        item = arrival(n_vms=4, pairs=pairs, flow_bytes=10 * units.MB)
        stats = sim.run(StaticWorkload([item]), until=100.0)
        # Three senders share the receiver's 1 Gbps hose.
        expected = 10 * units.MB / (units.gbps(1) / 3)
        assert stats.job_durations[0] == pytest.approx(expected, rel=0.01)

    def test_slots_freed_on_departure(self):
        manager = OktopusPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        sim.run(StaticWorkload([arrival(flow_bytes=units.MB)]), until=10.0)
        assert manager.used_slots == 0


class TestMaxminSharing:
    def test_single_flow_gets_line_rate(self):
        manager = LocalityPlacementManager(topo())
        sim = ClusterSim(manager, sharing="maxmin")
        item = arrival(n_vms=8, pairs=[(0, 7)], flow_bytes=10 * units.MB)
        stats = sim.run(StaticWorkload([item]), until=10.0)
        assert stats.finished_jobs == 1
        # VMs 0 and 7 land on different servers under locality packing;
        # the flow should get the full 10 Gbps path.
        expected = 10 * units.MB / units.gbps(10)
        assert stats.job_durations[0] == pytest.approx(expected, rel=0.05)

    def test_contending_flows_share_fairly(self):
        manager = LocalityPlacementManager(topo())
        sim = ClusterSim(manager, sharing="maxmin")
        # Two flows from one server converging on another: they share the
        # sender NIC, so each runs at half rate and the job takes twice
        # as long as a lone flow would.
        a = arrival(n_vms=8, pairs=[(0, 7), (1, 7)],
                    flow_bytes=10 * units.MB)
        stats = sim.run(StaticWorkload([a]), until=10.0)
        assert stats.finished_jobs == 1
        expected = 10 * units.MB / (units.gbps(10) / 2)
        assert stats.job_durations[0] == pytest.approx(expected, rel=0.05)

    def test_intra_server_flows_run_at_link_rate(self):
        manager = LocalityPlacementManager(topo())
        sim = ClusterSim(manager, sharing="maxmin")
        item = arrival(n_vms=2, pairs=[(0, 1)], flow_bytes=units.MB)
        stats = sim.run(StaticWorkload([item]), until=10.0)
        assert stats.finished_jobs == 1


class TestNoOpRateSkip:
    def test_disjoint_component_drain_skips_untouched_flows(self):
        """Draining one rack-local tenant must not re-rate the other.

        Two 16-VM tenants fill the two racks of a 32-slot tree; each
        runs one rack-local flow, so the max-min components are
        disjoint.  When the short flow drains, the recompute must leave
        the long flow's rate (and epoch) untouched: exactly two rate
        updates happen over the whole run, one per flow at admission.
        """
        manager = LocalityPlacementManager(topo(oversubscription=1.0))
        sim = ClusterSim(manager, sharing="maxmin")
        short = arrival(n_vms=16, bandwidth=units.gbps(2), pairs=[(0, 15)],
                        flow_bytes=1 * units.MB)
        long = arrival(n_vms=16, bandwidth=units.gbps(2), pairs=[(0, 15)],
                       flow_bytes=200 * units.MB)
        stats = sim.run(StaticWorkload([short, long]), until=30.0)
        assert stats.finished_jobs == 2
        assert sim.rate_update_count == 2
        # The departed flow was alone in its component, so the
        # drain-time recompute found an empty dirty closure and cost
        # nothing: one counted solve (admission) over two flows, ever.
        assert sim._solver.recompute_count == 1
        assert sim._solver.affected_flow_count == 2


class TestAccounting:
    def test_utilization_counts_hops(self):
        manager = OktopusPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        # 8 VMs span two servers of one rack; the 0->7 flow crosses the
        # sender NIC and the receiver's ToR port.
        item = arrival(n_vms=8, pairs=[(0, 7)], flow_bytes=10 * units.MB)
        stats = sim.run(StaticWorkload([item]), until=100.0)
        assert stats.finished_jobs == 1
        assert stats.carried_bytes == pytest.approx(2 * 10 * units.MB,
                                                    rel=0.01)

    def test_occupancy_integral(self):
        manager = OktopusPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        item = arrival(n_vms=16, pairs=[(0, 15)],
                       flow_bytes=units.gbps(1) * 1.0, compute=1.0)
        stats = sim.run(StaticWorkload([item]), until=2.0)
        # 16 of 32 slots for ~1 s of 2 s.
        assert stats.mean_occupancy == pytest.approx(0.25, rel=0.1)

    def test_maxmin_run_keeps_plain_floats(self):
        """Clock, accumulators and recorder breakpoints are exactly
        ``float``, so nothing downstream needs a ``float(...)`` cast."""
        topology = topo(n_pods=2, oversubscription=2.0)
        sim = ClusterSim(LocalityPlacementManager(topology),
                         sharing="maxmin")
        recorder = PortUsageRecorder(port.port_id for port in topology.ports)
        sim.monitor_port_usage(recorder)
        workload = TenantWorkload(
            WorkloadConfig(b_flow_bytes=20 * units.MB,
                           mean_compute_time=0.5),
            arrival_rate=6.0, seed=9)
        stats = sim.run(workload, until=8.0)
        assert stats.finished_jobs > 0
        assert type(sim.now) is float
        assert type(stats.carried_bytes) is float
        assert type(stats.occupancy_integral) is float
        breakpoints = [value for series in recorder.series.values()
                       for pair in series for value in pair]
        assert breakpoints
        assert {type(value) for value in breakpoints} == {float}

    def test_rejected_tenants_leave_no_trace(self):
        manager = SiloPlacementManager(topo())
        sim = ClusterSim(manager, sharing="reserved")
        impossible = arrival(n_vms=1000)
        stats = sim.run(StaticWorkload([impossible]), until=1.0)
        assert stats.finished_jobs == 0
        assert manager.used_slots == 0

    def test_sharing_validation(self):
        with pytest.raises(ValueError):
            ClusterSim(OktopusPlacementManager(topo()), sharing="anarchic")


class TestWorkloadGenerator:
    def test_arrivals_are_ordered_and_bounded(self):
        wl = TenantWorkload(WorkloadConfig(), arrival_rate=50.0, seed=1)
        items = list(wl.arrivals(until=2.0))
        times = [a.time for a in items]
        assert times == sorted(times)
        assert all(0 < t < 2.0 for t in times)
        assert len(items) > 20

    def test_class_mix(self):
        wl = TenantWorkload(WorkloadConfig(class_a_fraction=0.5),
                            arrival_rate=100.0, seed=2)
        items = list(wl.arrivals(until=5.0))
        a = sum(1 for i in items
                if i.request.tenant_class is TenantClass.CLASS_A)
        assert 0.3 < a / len(items) < 0.7

    def test_class_a_is_all_to_one(self):
        wl = TenantWorkload(WorkloadConfig(class_a_fraction=1.0),
                            arrival_rate=100.0, seed=3)
        item = next(iter(wl.arrivals(until=5.0)))
        receivers = {dst for _, dst in item.pairs}
        assert len(receivers) == 1
        assert len(item.pairs) == item.request.n_vms - 1

    def test_for_occupancy_scales_rate(self):
        low = TenantWorkload.for_occupancy(WorkloadConfig(), 0.3, 1000)
        high = TenantWorkload.for_occupancy(WorkloadConfig(), 0.9, 1000)
        assert high.arrival_rate > low.arrival_rate

    def test_vm_counts_respect_bounds(self):
        cfg = WorkloadConfig(min_vms=3, max_vms=10)
        wl = TenantWorkload(cfg, arrival_rate=100.0, seed=4)
        for item in wl.arrivals(until=3.0):
            assert 3 <= item.request.n_vms <= 10
