"""Transport behaviour: reliability, congestion response, messages."""

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms import get_mechanism
from repro.phynet import (
    Dctcp,
    MetricsCollector,
    PacketNetwork,
    TcpReno,
)
from repro.phynet.transport.base import MSS
from repro.topology import TreeTopology


def two_vm_network():
    topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=2,
                        slots_per_server=4, link_rate=units.gbps(10))
    net = PacketNetwork(topo)
    net.add_vm(0, tenant_id=1, server=0)
    net.add_vm(1, tenant_id=1, server=1)
    return net


def shallow_network(mechanism, topo):
    """``mechanism``'s network on ``topo``, marking ports (if it has
    any) retuned to a shallow-buffer 15 KB threshold."""
    net = get_mechanism(mechanism).build_network(topo)
    for spec in topo.ports:
        port = net.port(spec.port_id)
        if port.ecn_threshold is not None:
            port.ecn_threshold = 15 * units.KB
    return net


class TestReliableDelivery:
    def test_single_packet_message(self):
        net = two_vm_network()
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        record = metrics.new_message(1, 0, 1, 1000.0, 0.0)
        flow.send_message(record)
        net.sim.run(until=0.01)
        assert record.completed
        assert record.latency < 100 * units.MICROS

    def test_multi_packet_message_completes_in_order(self):
        net = two_vm_network()
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        record = metrics.new_message(1, 0, 1, 100 * units.KB, 0.0)
        flow.send_message(record)
        net.sim.run(until=0.05)
        assert record.completed
        assert flow.delivered_bytes == pytest.approx(100 * units.KB)

    def test_messages_complete_fifo_per_connection(self):
        net = two_vm_network()
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        records = [metrics.new_message(1, 0, 1, 10 * units.KB, 0.0)
                   for _ in range(5)]
        for r in records:
            flow.send_message(r)
        net.sim.run(until=0.05)
        finishes = [r.finish for r in records]
        assert all(r.completed for r in records)
        assert finishes == sorted(finishes)

    def test_zero_size_message_rejected(self):
        net = two_vm_network()
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        record = metrics.new_message(1, 0, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            flow.send_message(record)

    def test_transport_is_cached_per_pair(self):
        net = two_vm_network()
        assert net.transport(0, 1) is net.transport(0, 1)
        assert net.transport(0, 1) is not net.transport(1, 0)

    def test_transport_rejects_self_pair(self):
        net = two_vm_network()
        with pytest.raises(ValueError):
            net.transport(0, 0)


class TestCongestionResponse:
    def test_slow_start_grows_cwnd(self):
        net = two_vm_network()
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        initial = flow.cwnd
        record = metrics.new_message(1, 0, 1, 500 * units.KB, 0.0)
        flow.send_message(record)
        net.sim.run(until=0.05)
        assert flow.cwnd > initial

    def test_recovery_after_drops(self):
        """Overflow a tiny buffer; the message must still complete via
        retransmissions and the window must have been cut."""
        topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=2,
                            slots_per_server=4,
                            link_rate=units.gbps(1),
                            buffer_bytes=8 * units.KB)
        net = PacketNetwork(topo)
        net.add_vm(0, tenant_id=1, server=0)
        net.add_vm(1, tenant_id=1, server=1)
        metrics = MetricsCollector()
        flow = net.transport(0, 1)
        flow.cwnd = 64.0
        record = metrics.new_message(1, 0, 1, 300 * units.KB, 0.0)
        flow.send_message(record)
        net.sim.run(until=1.0)
        drops = sum(p.stats.drops for p in net.ports.values())
        assert drops > 0
        assert record.completed
        assert flow.delivered_bytes == pytest.approx(300 * units.KB)

    def test_rto_fires_when_tail_of_window_lost(self):
        """A lost tail generates no dupacks, so only the timeout can
        recover it; the RTO must be recorded against the message."""
        topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=2,
                            slots_per_server=4,
                            link_rate=units.gbps(1),
                            buffer_bytes=3 * units.KB)
        net = PacketNetwork(topo)
        net.add_vm(0, tenant_id=1, server=0)
        net.add_vm(1, tenant_id=1, server=1)
        metrics = MetricsCollector()
        # An 8-segment burst into a 2-packet buffer loses the tail.
        flow = net.transport(0, 1)
        flow.cwnd = 8.0
        record = metrics.new_message(1, 0, 1, 8 * MSS, 0.0)
        flow.send_message(record)
        net.sim.run(until=2.0)
        assert record.completed
        assert flow.rto_count > 0
        assert record.rto_events > 0


class TestDctcp:
    def test_alpha_rises_under_persistent_marking(self):
        topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                            slots_per_server=4, link_rate=units.gbps(1))
        net = shallow_network("dctcp", topo)
        for i in range(3):
            net.add_vm(i, tenant_id=1, server=i)
        metrics = MetricsCollector()
        # Two senders converge on VM 2 to build a standing queue.
        flows = [net.transport(src, 2) for src in (0, 1)]
        for f in flows:
            record = metrics.new_message(1, f.src_vm, 2, units.MB, 0.0)
            f.send_message(record)
        net.sim.run(until=0.1)
        assert isinstance(flows[0], Dctcp)
        assert any(f.alpha > 0 for f in flows)
        marks = sum(p.stats.ecn_marks for p in net.ports.values())
        assert marks > 0

    def test_dctcp_keeps_queues_below_tcp(self):
        def max_queue(mechanism):
            topo = TreeTopology(n_pods=1, racks_per_pod=1,
                                servers_per_rack=3, slots_per_server=4,
                                link_rate=units.gbps(1))
            net = shallow_network(mechanism, topo)
            for i in range(3):
                net.add_vm(i, tenant_id=1, server=i)
            metrics = MetricsCollector()
            for src in (0, 1):
                flow = net.transport(src, 2)
                flow.send_message(
                    metrics.new_message(1, src, 2, units.MB, 0.0))
            net.sim.run(until=0.1)
            return max(p.stats.max_queue_bytes
                       for p in net.ports.values())

        assert max_queue("dctcp") < max_queue("none")
