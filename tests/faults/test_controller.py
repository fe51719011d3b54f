"""The self-healing cluster controller: release, fence, re-place, report."""

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.faults import FaultEvent, FaultTarget
from repro.obs import RingBufferSink
from repro.placement import ClusterController, SiloPlacementManager
from repro.topology import TreeTopology


def build_manager(servers_per_rack=2, racks=2, slots=4):
    topo = TreeTopology(n_pods=1, racks_per_pod=racks,
                        servers_per_rack=servers_per_rack,
                        slots_per_server=slots, link_rate=units.gbps(10),
                        oversubscription=2.5,
                        buffer_bytes=312 * units.KB)
    return SiloPlacementManager(topo)


def class_b_request(n_vms, mbps=250.0, tenant_id=None):
    kwargs = {} if tenant_id is None else {"tenant_id": tenant_id}
    return TenantRequest(
        n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(mbps),
                                   burst=15 * units.KB),
        tenant_class=TenantClass.CLASS_B, **kwargs)


def class_a_request(n_vms, mbps=250.0, delay=1e-3, tenant_id=None):
    kwargs = {} if tenant_id is None else {"tenant_id": tenant_id}
    return TenantRequest(
        n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(mbps),
                                   burst=15 * units.KB, delay=delay,
                                   peak_rate=units.gbps(1)),
        tenant_class=TenantClass.CLASS_A, **kwargs)


class TestCrashRecovery:
    def test_crash_relocates_tenant_off_dead_server(self):
        manager = build_manager()
        controller = ClusterController(manager)
        request = class_b_request(6)
        assert manager.place(request, now=0.0) is not None
        victim_server = next(iter(
            manager.placements[request.tenant_id].vms_per_server()))
        outcomes = controller.apply(
            FaultEvent.down(1.0, FaultTarget("server", victim_server)))
        assert outcomes == {request.tenant_id: "recovered"}
        # Still placed, but not on the crashed (cordoned) server.
        servers = manager.placements[request.tenant_id].vms_per_server()
        assert victim_server not in servers
        assert manager.cordoned_servers == [victim_server]
        assert manager.tenants_on_server(victim_server) == []

    def test_unaffected_tenants_are_left_alone(self):
        manager = build_manager()
        controller = ClusterController(manager)
        a = class_b_request(2)
        b = class_b_request(4)  # does not fit next to a: lands elsewhere
        assert manager.place(a, now=0.0) is not None
        assert manager.place(b, now=0.0) is not None
        server_a = next(iter(
            manager.placements[a.tenant_id].vms_per_server()))
        placement_b = manager.placements[b.tenant_id]
        outcomes = controller.apply(
            FaultEvent.down(1.0, FaultTarget("server", server_a)))
        assert b.tenant_id not in outcomes
        assert manager.placements[b.tenant_id] is placement_b

    def test_no_capacity_means_eviction_then_repair_readmits(self):
        manager = build_manager(servers_per_rack=1, racks=2, slots=4)
        controller = ClusterController(manager)
        spanning = class_b_request(8)  # needs both servers
        assert manager.place(spanning, now=0.0) is not None
        outcomes = controller.apply(
            FaultEvent.down(1.0, FaultTarget("server", 0)))
        assert outcomes == {spanning.tenant_id: "evicted"}
        assert spanning.tenant_id not in manager.placements
        # Repair: the evicted tenant is re-admitted (retry_evicted=True).
        outcomes = controller.apply(
            FaultEvent.up(3.0, FaultTarget("server", 0)))
        assert outcomes == {spanning.tenant_id: "recovered"}
        assert manager.cordoned_servers == []
        [row] = controller.report().rows
        assert row.outcome == "recovered"
        assert row.time_to_recover == pytest.approx(2.0)
        # 2 s without the guarantee, VM-weighted.
        assert row.guarantee_seconds_lost == pytest.approx(2.0 * 8)

    def test_flowsim_mode_does_not_resurrect_evicted_tenants(self):
        manager = build_manager(servers_per_rack=1, racks=2, slots=4)
        controller = ClusterController(manager, retry_evicted=False)
        spanning = class_b_request(8)
        assert manager.place(spanning, now=0.0) is not None
        controller.apply(FaultEvent.down(1.0, FaultTarget("server", 0)))
        outcomes = controller.apply(
            FaultEvent.up(3.0, FaultTarget("server", 0)))
        assert outcomes == {}
        assert spanning.tenant_id not in manager.placements


class TestDegradedMode:
    def test_degraded_link_is_fenced_for_admission(self):
        manager = build_manager()
        controller = ClusterController(manager)
        port_id = manager.topology.tor_up(0).port_id
        capacity = manager.states[port_id].port.capacity
        controller.apply(
            FaultEvent.degrade(1.0, FaultTarget("link", port_id), 0.25))
        # 75% of the link is fenced off from admission.
        assert manager.states[port_id].bandwidth == \
            pytest.approx(0.75 * capacity)
        controller.apply(
            FaultEvent.up(2.0, FaultTarget("link", port_id)))
        assert manager.states[port_id].bandwidth == 0.0

    def test_delay_tenant_falls_back_to_bandwidth_only(self):
        # A 600us delay budget admits rack-scope paths only.  After the
        # crash the survivors span both racks (a class-B blocker holds
        # rack 1's slots), so the full guarantee is infeasible but the
        # bandwidth-only fallback places cluster-wide -> degraded, and
        # the repair upgrades it back.
        manager = build_manager(servers_per_rack=2, racks=2, slots=4)
        controller = ClusterController(manager)
        request = class_a_request(6, mbps=400.0, delay=600e-6)
        assert manager.place(request, now=0.0) is not None
        assert set(manager.placements[request.tenant_id]
                   .vms_per_server()) == {0, 1}
        blocker = class_b_request(6, mbps=100.0)
        assert manager.place(blocker, now=0.0) is not None
        outcomes = controller.apply(
            FaultEvent.down(1.0, FaultTarget("server", 0)))
        assert outcomes == {request.tenant_id: "degraded"}
        # Still placed (bandwidth-only, now cross-rack); the original
        # guarantee stays in the controller's book for the upgrade.
        servers = manager.placements[request.tenant_id].vms_per_server()
        assert {manager.topology.rack_of(s) for s in servers} == {0, 1}
        outcomes = controller.apply(
            FaultEvent.up(2.0, FaultTarget("server", 0)))
        assert outcomes == {request.tenant_id: "recovered"}
        [row] = controller.report().rows
        assert row.time_to_recover == pytest.approx(1.0)
        assert row.guarantee_seconds_lost == pytest.approx(1.0 * 6)


class TestReporting:
    def test_recovery_events_reach_the_tracer(self):
        manager = build_manager()
        sink = RingBufferSink()
        controller = ClusterController(manager, tracer=sink)
        request = class_b_request(6)
        assert manager.place(request, now=0.0) is not None
        server = next(iter(
            manager.placements[request.tenant_id].vms_per_server()))
        controller.apply(FaultEvent.down(1.0, FaultTarget("server",
                                                          server)))
        kinds = [e.kind for e in sink.events]
        assert "fault.recovery" in kinds

    def test_departure_closes_the_outage_interval(self):
        manager = build_manager(servers_per_rack=1, racks=2, slots=4)
        controller = ClusterController(manager)
        spanning = class_b_request(8)
        assert manager.place(spanning, now=0.0) is not None
        controller.apply(
            FaultEvent.down(1.0, FaultTarget("server", 0)))
        controller.notify_departed(spanning.tenant_id, now=4.0)
        controller.finalize(end_time=100.0)
        [row] = controller.report().rows
        assert row.outcome == "evicted"
        # Accrues only up to departure, not to the campaign end.
        assert row.guarantee_seconds_lost == pytest.approx(3.0 * 8)

    def test_finalize_accrues_open_intervals(self):
        manager = build_manager(servers_per_rack=1, racks=2, slots=4)
        controller = ClusterController(manager)
        spanning = class_b_request(8)
        assert manager.place(spanning, now=0.0) is not None
        controller.apply(
            FaultEvent.down(1.0, FaultTarget("server", 0)))
        controller.finalize(end_time=5.0)
        controller.finalize(end_time=50.0)  # idempotent
        report = controller.report()
        assert report.guarantee_seconds_lost == pytest.approx(4.0 * 8)
        assert report.count("recovered") == 0
        assert report.mean_time_to_recover is None


class TestAffectedTenantDiscovery:
    def test_placement_ports_are_the_all_pairs_path_set(self):
        """The watch set the hybrid simulator used to build by hand
        (``HybridSim._foreground_ports``, pinned here): every port on
        any path between two of the placement's servers."""
        topo = TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=2,
                            slots_per_server=4, link_rate=units.gbps(10))
        manager = SiloPlacementManager(topo)
        controller = ClusterController(manager)
        # Two servers of one rack, a second rack of pod 0, one of pod 1.
        placement = manager.adopt(class_b_request(7, mbps=50.0),
                                  {0: 2, 1: 1, 3: 2, 6: 2})
        servers = sorted(set(placement.vm_servers))
        all_pairs = {port.port_id
                     for src in servers for dst in servers if src != dst
                     for port in topo.path_ports(src, dst)}
        assert controller._placement_ports(placement) == all_pairs
        assert len(all_pairs) == 4 * 2 + 3 * 2 + 2 * 2
        alone = manager.adopt(class_b_request(3, mbps=50.0), {7: 3})
        assert controller._placement_ports(alone) == set()
