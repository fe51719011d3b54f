"""Cross-module integration: placement -> pacing -> packet network.

These tests exercise the full Silo pipeline the way the paper's evaluation
does: admit tenants through the placement manager, configure pacers from
the admitted guarantees, drive traffic through the packet simulator, and
check that the tenant-visible latency bound actually holds.
"""

import random

import pytest

from repro import SiloController, units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.phynet import MetricsCollector, PacketNetwork
from repro.phynet.apps import BulkApp, EpochBurstApp
from repro.topology import TreeTopology
from repro.workloads import Fixed
from repro.workloads.patterns import all_to_all_pairs


def build_network_from_controller(controller):
    """Instantiate the packet network from admitted placements."""
    net = PacketNetwork(controller.topology)
    vm_ids = {}
    next_vm = 0
    for tenant in controller.tenants.values():
        ids = []
        for server in tenant.placement.vm_servers:
            net.add_vm(next_vm, tenant.tenant_id, server,
                       guarantee=tenant.request.guarantee,
                       paced=tenant.pacer_config is not None,
                       pacer_config=tenant.pacer_config)
            ids.append(next_vm)
            next_vm += 1
        vm_ids[tenant.tenant_id] = ids
    return net, vm_ids


class TestGuaranteeHolds:
    def test_admitted_tenant_meets_its_latency_bound_under_contention(self):
        """The headline property: an admitted class-A tenant's messages
        finish within the bound it computed from {B, S, d, Bmax},
        regardless of a bandwidth-hungry neighbour."""
        topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                            slots_per_server=6,
                            link_rate=units.gbps(10))
        controller = SiloController(topo)
        message_size = 15 * units.KB
        class_a = TenantRequest(
            n_vms=6,
            guarantee=NetworkGuarantee(bandwidth=units.mbps(250),
                                       burst=15 * units.KB,
                                       delay=units.msec(1),
                                       peak_rate=units.gbps(1)),
            tenant_class=TenantClass.CLASS_A)
        class_b = TenantRequest(
            n_vms=6,
            guarantee=NetworkGuarantee(bandwidth=units.gbps(2),
                                       burst=1.5 * units.KB),
            tenant_class=TenantClass.CLASS_B)
        assert controller.admit(class_a) is not None
        assert controller.admit(class_b) is not None
        bound = controller.message_latency_bound(class_a.tenant_id,
                                                 message_size)

        net, vm_ids = build_network_from_controller(controller)
        metrics = MetricsCollector()
        rng = random.Random(11)
        app_a = EpochBurstApp(net, metrics, class_a.tenant_id,
                              vm_ids[class_a.tenant_id],
                              Fixed(message_size),
                              epoch=2400 * units.MICROS, rng=rng)
        app_b = BulkApp(net, metrics, class_b.tenant_id,
                        all_to_all_pairs(vm_ids[class_b.tenant_id]),
                        chunk_size=units.MB)
        app_a.start()
        app_b.start()
        net.sim.run(until=0.06)

        latencies = metrics.latencies(class_a.tenant_id)
        assert len(latencies) >= 100
        assert max(latencies) <= bound
        # The class-B tenant still gets (close to) its reserved hose.
        assert app_b.throughput(0.06) >= 0.85 * 6 * units.gbps(2)
        # And no switch dropped anything: the placement sized the buffers.
        assert net.port_stats()["drops"] == 0

    def test_no_loss_for_any_admitted_mix(self):
        """Admit a random mix until first rejection, blast worst-case
        all-to-one bursts, and require zero drops: the Fig. 5 property."""
        rng = random.Random(5)
        topo = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=3,
                            slots_per_server=4,
                            link_rate=units.gbps(10))
        controller = SiloController(topo)
        tenants = []
        for _ in range(10):
            request = TenantRequest(
                n_vms=rng.randint(4, 8),
                guarantee=NetworkGuarantee(
                    bandwidth=units.mbps(rng.choice([100, 250, 500])),
                    burst=rng.choice([5, 10, 15]) * units.KB,
                    delay=units.msec(1),
                    peak_rate=units.gbps(1)),
                tenant_class=TenantClass.CLASS_A)
            if controller.admit(request) is not None:
                tenants.append(request)
        assert tenants, "nothing admitted; topology misconfigured"

        net, vm_ids = build_network_from_controller(controller)
        metrics = MetricsCollector()
        apps = []
        for request in tenants:
            app = EpochBurstApp(net, metrics, request.tenant_id,
                                vm_ids[request.tenant_id],
                                Fixed(request.guarantee.burst),
                                epoch=units.msec(2), rng=rng,
                                jitter=units.MICROS)
            app.start(phase=0.0)  # worst case: all tenants synchronized
            apps.append(app)
        net.sim.run(until=0.03)
        assert net.port_stats()["drops"] == 0
        for request in tenants:
            bound = request.guarantee.message_latency_bound(
                request.guarantee.burst)
            lats = metrics.latencies(request.tenant_id)
            assert lats and max(lats) <= bound


class TestBaselineContrast:
    def test_tcp_tail_suffers_where_silo_does_not(self):
        """Miniature Fig. 12: same workload, Silo vs plain TCP."""
        def run(scheme):
            topo = TreeTopology(n_pods=1, racks_per_pod=1,
                                servers_per_rack=3, slots_per_server=6,
                                link_rate=units.gbps(10))
            net = PacketNetwork(topo)
            metrics = MetricsCollector()
            g_a = NetworkGuarantee(bandwidth=units.mbps(250),
                                   burst=15 * units.KB,
                                   delay=units.msec(1),
                                   peak_rate=units.gbps(1))
            g_b = NetworkGuarantee(bandwidth=units.gbps(2),
                                   burst=1.5 * units.KB)
            paced = scheme == "silo"
            for i in range(6):
                net.add_vm(i, 1, i % 3,
                           guarantee=g_a if paced else None, paced=paced)
            for i in range(6, 12):
                net.add_vm(i, 2, i % 3,
                           guarantee=g_b if paced else None, paced=paced)
            rng = random.Random(2)
            app_a = EpochBurstApp(net, metrics, 1, list(range(6)),
                                  Fixed(15 * units.KB),
                                  epoch=2400 * units.MICROS, rng=rng)
            app_b = BulkApp(net, metrics, 2,
                            all_to_all_pairs(list(range(6, 12))),
                            chunk_size=units.MB)
            app_a.start()
            app_b.start()
            net.sim.run(until=0.05)
            lats = sorted(metrics.latencies(1))
            return lats[int(len(lats) * 0.99)]

        p99_silo = run("silo")
        p99_tcp = run("tcp")
        assert p99_tcp > 2 * p99_silo
