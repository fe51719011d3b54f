"""Network glue and application models."""

import random

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms import get_mechanism
from repro.pacer.hierarchy import PacerConfig
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

    def test_a_pacer_config_paces_and_nothing_else_does(self):
        net = PacketNetwork(small_topo())
        config = PacerConfig(bandwidth=units.mbps(100), burst=units.MTU,
                             peak_rate=units.gbps(1))
        g = NetworkGuarantee(bandwidth=units.mbps(100), burst=units.MTU)
        assert net.add_vm(0, 1, 0, pacer_config=config).pacer.config \
            is config
        # A guarantee alone is bookkeeping: the network derives no pacer.
        assert net.add_vm(1, 1, 1, guarantee=g).pacer is None
        # No hose split or other timer is started behind the caller.
        assert net.sim.pending_events == 0

    def test_routes_are_cached_and_shared(self):
        net = PacketNetwork(small_topo())
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        assert net.route(0, 1) is net.route(0, 1)

    @staticmethod
    def routed(mechanism):
        """``mechanism``'s network with one cross-server route built."""
        net = get_mechanism(mechanism).build_network(small_topo())
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        assert net.ports == {}
        route = net.route(0, 1)
        assert route == [net.ports[p.port_id]
                         for p in net.topology.path_ports(0, 1)]
        return net, route

    def test_hull_ports_have_phantom_queues(self):
        _, route = self.routed("hull")
        assert all(port.phantom_drain is not None
                   and port.phantom_drain < port.capacity
                   for port in route)

    def test_dctcp_ports_have_ecn(self):
        _, route = self.routed("dctcp")
        assert all(port.ecn_threshold is not None for port in route)

    def test_ports_are_built_when_a_route_first_reaches_them(self):
        net, route = self.routed("none")
        assert sorted(net.ports) == sorted(
            p.port_id for p in net.topology.path_ports(0, 1))
        # Reaching a built port again returns it, it builds no twin.
        assert net.port(net.topology.nic_up(0).port_id) is route[0]

    def test_port_outside_the_topology_is_an_error(self):
        net = PacketNetwork(small_topo())
        for port_id in (-1, len(net.topology.ports)):
            with pytest.raises(ValueError, match="not a port"):
                net.port(port_id)
        assert net.ports == {}


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
        # Only the vswitch was reached: no fabric port was even built.
        assert net.ports == {}


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

    @pytest.mark.parametrize("epoch", [0.0, -1e-3])
    def test_needs_a_positive_epoch(self, epoch):
        """A zero epoch used to re-fire the epoch loop at the same
        instant forever, so the run never reached its horizon."""
        net = PacketNetwork(small_topo())
        for i in range(2):
            net.add_vm(i, 1, i)
        with pytest.raises(ValueError, match="epoch"):
            EpochBurstApp(net, MetricsCollector(), 1, [0, 1],
                          Fixed(1.0), epoch, random.Random(1))


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
        mech = get_mechanism("silo")
        net = mech.build_network(small_topo())
        metrics = MetricsCollector()
        g = NetworkGuarantee(bandwidth=units.gbps(1.2),
                             burst=1.5 * units.KB)
        mech.attach(net, 1, [i % 3 for i in range(7)], g)
        pairs = [(i, 6) for i in range(6)]
        app = BulkApp(net, metrics, 1, pairs, chunk_size=units.MB)
        app.start()
        net.sim.run(until=0.05)
        # Aggregate at the receiver is capped by its hose, not 6x.
        assert app.throughput(0.05) <= units.gbps(1.4)
        assert app.throughput(0.05) >= units.gbps(0.8)


class TestPublicScheduleSurface:
    """Ports, transports, apps and the shaper schedule only through
    ``schedule``/``schedule_at``, so ``PacketNetwork(sim=...)`` runs on
    any loop with that surface.  The seed loop keeps tuple heap entries
    and returns no handles: a component that pushed onto the engine's
    heap or kept a handle would fail or diverge on it."""

    @staticmethod
    def run_cell(monkeypatch, mechanism, sim_class):
        from repro.campaign.scenarios import _run_section62
        import repro.phynet.network as network
        monkeypatch.setattr(network, "EventEngine", sim_class)
        _result, run = _run_section62(mechanism, "fig12", 0.002, 1234)
        assert type(run.net.sim) is sim_class
        # Tenant ids count up across runs; keep their placement order.
        tenant = {t.request.tenant_id: i for i, t in enumerate(run.tenants)}
        records = [(tenant[r.tenant_id], r.src_vm, r.dst_vm, r.size,
                    r.start, r.finish, r.rto_events)
                   for r in run.metrics.records]
        return records, run.net.port_stats()

    # ``none``: unpaced TCP, class-B bulk under class-A incast, with
    # drops, push-outs and RTOs; ``silo``: every VM behind the shaper.
    @pytest.mark.parametrize("mechanism", ["none", "silo"])
    def test_seed_loop_runs_a_cell_like_the_engine(self, monkeypatch,
                                                   mechanism):
        from repro.core.engine import EventEngine
        from seed_engine import Simulator
        records, stats = self.run_cell(monkeypatch, mechanism, Simulator)
        assert len(records) > 50
        assert stats["tx_bytes"] > 0
        assert (records, stats) == self.run_cell(monkeypatch, mechanism,
                                                 EventEngine)
