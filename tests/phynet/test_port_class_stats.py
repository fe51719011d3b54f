"""Per-traffic-class OutputPort accounting: drops, pushouts, queue peaks."""

import pytest

from repro import units
from repro.core import EventEngine
from repro.phynet.packet import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_GUARANTEED,
    Packet,
)
from repro.phynet.port import N_CLASSES, OutputPort


def port(sim, buffer_bytes=4500.0):
    delivered = []
    p = OutputPort(sim, "t", units.gbps(10), buffer_bytes,
                   on_delivery=delivered.append)
    return p, delivered


def packet(priority, size=1500.0):
    return Packet(src=0, dst=1, size=size, route=[], priority=priority)


class TestClassSplit:
    def test_tail_drops_attributed_to_their_class(self):
        sim = EventEngine()
        p, delivered = port(sim)
        # One transmits immediately, three fill the buffer, the rest of
        # each class tail-drops against same-class occupancy.
        p.enqueue(packet(PRIORITY_GUARANTEED))
        for _ in range(3):
            p.enqueue(packet(PRIORITY_GUARANTEED))
        dropped_high = [packet(PRIORITY_GUARANTEED) for _ in range(2)]
        for pk in dropped_high:
            p.enqueue(pk)
        sim.run()
        assert p.stats.class_drops[PRIORITY_GUARANTEED] == 2
        assert p.stats.class_drops[PRIORITY_BEST_EFFORT] == 0
        assert p.stats.class_dropped_bytes[PRIORITY_GUARANTEED] == 3000.0

    def test_pushouts_attributed_to_the_victim_class(self):
        sim = EventEngine()
        p, _ = port(sim)
        p.enqueue(packet(PRIORITY_GUARANTEED))  # occupies the wire
        for _ in range(3):
            p.enqueue(packet(PRIORITY_BEST_EFFORT))
        for _ in range(3):
            p.enqueue(packet(PRIORITY_GUARANTEED))
        sim.run()
        # The evicted packets were best effort; the class split must
        # blame them, not the guaranteed arrivals that triggered it.
        assert p.stats.class_pushouts[PRIORITY_BEST_EFFORT] == 3
        assert p.stats.class_pushouts[PRIORITY_GUARANTEED] == 0
        assert p.stats.class_pushed_out_bytes[PRIORITY_BEST_EFFORT] \
            == 3 * 1500.0
        assert p.stats.pushouts == 3

    def test_aggregates_equal_class_sums(self):
        sim = EventEngine()
        p, _ = port(sim)
        p.enqueue(packet(PRIORITY_GUARANTEED))
        for _ in range(3):
            p.enqueue(packet(PRIORITY_BEST_EFFORT))
        for _ in range(5):
            p.enqueue(packet(PRIORITY_GUARANTEED))
        sim.run()
        stats = p.stats
        assert stats.drops == sum(stats.class_drops)
        assert stats.dropped_bytes == sum(stats.class_dropped_bytes)
        assert stats.pushouts == sum(stats.class_pushouts)
        assert stats.pushed_out_bytes == sum(stats.class_pushed_out_bytes)

    def test_per_class_queue_peaks(self):
        sim = EventEngine()
        p, _ = port(sim)
        p.enqueue(packet(PRIORITY_GUARANTEED))  # on the wire
        p.enqueue(packet(PRIORITY_BEST_EFFORT, size=500.0))
        p.enqueue(packet(PRIORITY_GUARANTEED))
        p.enqueue(packet(PRIORITY_GUARANTEED))
        assert p.class_queued_bytes(PRIORITY_GUARANTEED) == 3000.0
        assert p.class_queued_bytes(PRIORITY_BEST_EFFORT) == 500.0
        sim.run()
        assert p.stats.class_max_queue_bytes[PRIORITY_GUARANTEED] == 3000.0
        assert p.stats.class_max_queue_bytes[PRIORITY_BEST_EFFORT] == 500.0
        assert p.class_queued_bytes(PRIORITY_GUARANTEED) == 0.0
        assert p.class_queued_bytes(PRIORITY_BEST_EFFORT) == 0.0
        assert max(p.stats.class_max_queue_bytes) \
            <= p.stats.max_queue_bytes

    def test_class_lists_sized_by_n_classes(self):
        sim = EventEngine()
        p, _ = port(sim)
        assert len(p.stats.class_drops) == N_CLASSES
        assert len(p.stats.class_pushouts) == N_CLASSES
        assert len(p.stats.class_max_queue_bytes) == N_CLASSES


class TestNetworkRollup:
    def test_port_stats_include_class_lists(self):
        from repro.core.guarantees import NetworkGuarantee
        from repro.phynet.network import PacketNetwork
        from repro.topology import TreeTopology
        topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=2,
                            slots_per_server=2, link_rate=units.gbps(1))
        net = PacketNetwork(topo)
        stats = net.port_stats()
        assert stats["class_drops"] == [0] * N_CLASSES
        assert stats["class_pushouts"] == [0] * N_CLASSES

    def test_port_stats_of_a_run_that_built_a_subset_of_ports(self):
        """Only the ports traffic reached are built; the roll-up reports
        what those carried, and equals the roll-up of the same run with
        every port of the tree built up front."""
        from repro.phynet.metrics import MetricsCollector
        from repro.phynet.network import PacketNetwork
        from repro.topology import TreeTopology

        def run(build_every_port):
            topo = TreeTopology(n_pods=1, racks_per_pod=2,
                                servers_per_rack=2, slots_per_server=2,
                                link_rate=units.gbps(1),
                                buffer_bytes=8 * units.KB)
            net = PacketNetwork(topo)
            if build_every_port:
                for spec in topo.ports:
                    net.port(spec.port_id)
            metrics = MetricsCollector()
            # Two senders in one rack converge on a server of the other.
            for vm, server in enumerate((0, 1, 2)):
                net.add_vm(vm, 1, server)
            for src in (0, 1):
                flow = net.transport(src, 2)
                flow.cwnd = 32.0
                flow.send_message(
                    metrics.new_message(1, src, 2, 200 * units.KB, 0.0))
            net.sim.run(until=0.05)
            return net

        lazy, eager = run(False), run(True)
        assert len(eager.ports) == len(eager.topology.ports)
        assert 0 < len(lazy.ports) < len(eager.ports)
        stats = lazy.port_stats()
        carried = [lazy.ports[port_id] for port_id in sorted(lazy.ports)]
        assert stats["drops"] == sum(p.stats.drops for p in carried) > 0
        assert stats["tx_bytes"] == sum(p.stats.tx_bytes for p in carried)
        assert stats["max_queue_bytes"] == max(
            p.stats.max_queue_bytes for p in carried)
        assert stats["class_drops"] == [
            sum(p.stats.class_drops[c] for p in carried)
            for c in range(N_CLASSES)]
        assert stats == eager.port_stats()
