"""Network glue and application models."""

import random

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector, PacketNetwork
from repro.phynet.apps import BulkApp, EpochBurstApp, MemcachedApp
from repro.phynet.packet import PRIORITY_BEST_EFFORT
from repro.topology import TreeTopology
from repro.workloads import EtcWorkload, Fixed
from repro.workloads.patterns import all_to_all_pairs


def small_topo():
    return TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                        slots_per_server=6, link_rate=units.gbps(10))


class TestNetworkConstruction:
    def test_vm_validation(self):
        net = PacketNetwork(small_topo())
        net.add_vm(0, 1, 0)
        with pytest.raises(ValueError):
            net.add_vm(0, 1, 1)  # duplicate id
        with pytest.raises(ValueError):
            net.add_vm(1, 1, 99)  # bad server
        with pytest.raises(ValueError):
            net.add_vm(2, 1, 0, paced=True)  # paced needs guarantee

    def test_routes_are_cached_and_shared(self):
        net = PacketNetwork(small_topo())
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        assert net.route(0, 1) is net.route(0, 1)

    def test_hull_ports_have_phantom_queues(self):
        net = get_mechanism("hull").build_network(small_topo())
        port = next(iter(net.ports.values()))
        assert port.phantom_drain is not None
        assert port.phantom_drain < port.capacity

    def test_dctcp_ports_have_ecn(self):
        net = get_mechanism("dctcp").build_network(small_topo())
        port = next(iter(net.ports.values()))
        assert port.ecn_threshold is not None


class TestIntraServerDelivery:
    def test_same_server_bypasses_network(self):
        net = PacketNetwork(small_topo())
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 0)
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        record = metrics.new_message(1, 0, 1, 1000.0, 0.0)
        flow.send_message(record)
        net.sim.run(until=0.01)
        assert record.completed
        assert all(p.stats.tx_packets == 0 for p in net.ports.values())


class TestEpochBurstApp:
    def test_messages_flow_every_epoch(self):
        net = PacketNetwork(small_topo())
        metrics = MetricsCollector()
        for i in range(4):
            net.add_vm(i, 1, i % 3)
        app = EpochBurstApp(net, metrics, 1, [0, 1, 2, 3],
                            Fixed(15 * units.KB),
                            epoch=units.msec(1), rng=random.Random(7))
        app.start(phase=0.0)
        net.sim.run(until=0.0105)
        # 3 senders x ~10 epochs.
        assert 27 <= len(metrics.completed(1)) <= 33

    def test_stop_halts_generation(self):
        net = PacketNetwork(small_topo())
        metrics = MetricsCollector()
        for i in range(3):
            net.add_vm(i, 1, i)
        app = EpochBurstApp(net, metrics, 1, [0, 1, 2],
                            Fixed(units.KB), epoch=units.msec(1),
                            rng=random.Random(7))
        app.start(phase=0.0)
        net.sim.run(until=0.0025)
        app.stop()
        count = len(metrics.records)
        net.sim.run(until=0.01)
        assert len(metrics.records) == count

    def test_needs_two_vms(self):
        net = PacketNetwork(small_topo())
        with pytest.raises(ValueError):
            EpochBurstApp(net, MetricsCollector(), 1, [0],
                          Fixed(1.0), units.msec(1), random.Random(1))


class TestBulkApp:
    def test_saturates_unpaced_link(self):
        net = PacketNetwork(small_topo())
        metrics = MetricsCollector()
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        app = BulkApp(net, metrics, 1, [(0, 1)], chunk_size=256 * units.KB)
        app.start()
        net.sim.run(until=0.02)
        # One TCP flow on an uncontended 10G path: well above 5 Gbps.
        assert app.throughput(0.02) > units.gbps(5)

    def test_chunks_chain(self):
        net = PacketNetwork(small_topo())
        metrics = MetricsCollector()
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        app = BulkApp(net, metrics, 1, [(0, 1)], chunk_size=10 * units.KB)
        app.start()
        net.sim.run(until=0.01)
        assert len(metrics.completed(1)) > 3


class TestMemcachedApp:
    def test_rpcs_complete_and_measure_full_roundtrip(self):
        net = PacketNetwork(small_topo())
        metrics = MetricsCollector()
        for i in range(4):
            net.add_vm(i, 1, i % 3)
        app = MemcachedApp(net, metrics, 1, server_vm=0,
                           client_vms=[1, 2, 3],
                           workload=EtcWorkload(),
                           rng=random.Random(3))
        app.start()
        net.sim.run(until=0.05)
        assert app.rpcs_completed > 100
        lats = metrics.latencies(1)
        # RPC latency includes request + response network time: at least
        # two one-way trips (the simulator models no end-host stack, so
        # the floor is microseconds, not the testbed's ~100 us).
        assert min(lats) > 2 * units.MICROS


class TestPriorities:
    def test_best_effort_marked_low_priority(self):
        net = PacketNetwork(small_topo())
        net.add_vm(0, 1, 0, priority=PRIORITY_BEST_EFFORT)
        net.add_vm(1, 1, 1, priority=PRIORITY_BEST_EFFORT)
        flow = net.transport(0, 1)
        assert flow.priority == PRIORITY_BEST_EFFORT


class TestHoseCoordination:
    def test_all_to_one_senders_share_receiver_hose(self):
        """Six paced senders converging on one receiver must end up with
        ~B/6 each after coordination."""
        topo = small_topo()
        net = PacketNetwork(topo)
        metrics = MetricsCollector()
        g = NetworkGuarantee(bandwidth=units.gbps(1.2),
                             burst=1.5 * units.KB)
        for i in range(7):
            net.add_vm(i, 1, i % 3, guarantee=g, paced=True)
        pairs = [(i, 6) for i in range(6)]
        app = BulkApp(net, metrics, 1, pairs, chunk_size=units.MB)
        app.start()
        net.sim.run(until=0.05)
        # Aggregate at the receiver is capped by its hose, not 6x.
        assert app.throughput(0.05) <= units.gbps(1.4)
        assert app.throughput(0.05) >= units.gbps(0.8)
