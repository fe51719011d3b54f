"""Observability hooks in the packet simulator.

The contract under test: with a sink attached every packet/flow lifecycle
step emits a typed event with consistent bookkeeping, and with no sink
attached behaviour is identical (the hooks are pure observers).
"""

import random

import pytest

from repro import units
from repro.core import EventEngine
from repro.core.guarantees import NetworkGuarantee
from repro.obs import RingBufferSink, TimeSeries
from repro.phynet import MetricsCollector, PacketNetwork
from repro.phynet.apps import EpochBurstApp
from repro.phynet.packet import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_GUARANTEED,
    Packet,
)
from repro.phynet.port import OutputPort
from repro.topology import TreeTopology
from repro.workloads import Fixed


def packet(size=1500.0, priority=PRIORITY_GUARANTEED):
    return Packet(src=0, dst=1, size=size, route=[], priority=priority)


def small_topo():
    return TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                        slots_per_server=6, link_rate=units.gbps(10))


class TestPortEvents:
    def test_enqueue_and_tx_events(self):
        sim = EventEngine()
        sink = RingBufferSink()
        port = OutputPort(sim, "t", units.gbps(10), 1e6, tracer=sink)
        port.enqueue(packet())
        port.enqueue(packet())
        sim.run()
        enq = sink.of_kind("pkt.enqueue")
        tx = sink.of_kind("pkt.tx")
        assert len(enq) == 2 and len(tx) == 2
        assert all(e.port == "t" for e in enq)
        # Enqueue depth includes the packet itself; tx depth excludes it.
        assert enq[0].queued_bytes == 1500.0
        assert tx[-1].queued_bytes == 0.0

    def test_tail_drop_event(self):
        sim = EventEngine()
        sink = RingBufferSink()
        port = OutputPort(sim, "t", units.gbps(10), 3000.0, tracer=sink)
        for _ in range(5):
            port.enqueue(packet())
        drops = sink.of_kind("pkt.drop")
        assert drops
        assert all(d.reason == "tail" for d in drops)
        assert len(drops) == port.stats.drops

    def test_pushout_drop_event(self):
        sim = EventEngine()
        sink = RingBufferSink()
        port = OutputPort(sim, "t", units.gbps(10), 3000.0, tracer=sink)
        port.enqueue(packet())  # takes the wire
        port.enqueue(packet(priority=PRIORITY_BEST_EFFORT))
        port.enqueue(packet(priority=PRIORITY_BEST_EFFORT))
        port.enqueue(packet())  # evicts one best-effort packet
        pushed = [d for d in sink.of_kind("pkt.drop")
                  if d.reason == "pushout"]
        assert len(pushed) == port.stats.pushouts == 1
        assert pushed[0].priority == PRIORITY_BEST_EFFORT

    def test_mark_event(self):
        sim = EventEngine()
        sink = RingBufferSink()
        port = OutputPort(sim, "t", units.gbps(10), 1e6,
                          ecn_threshold=1000.0, tracer=sink)
        port.enqueue(packet())
        marks = sink.of_kind("pkt.mark")
        assert len(marks) == 1
        assert marks[0].queue == "queue"
        assert marks[0].queued_bytes == 1500.0

    def test_depth_series_tracks_queue(self):
        sim = EventEngine()
        port = OutputPort(sim, "t", units.gbps(10), 1e6)
        port.depth_series = TimeSeries(name="t", interval=1e-6)
        for _ in range(4):
            port.enqueue(packet())
        sim.run()
        buckets = port.depth_series.buckets()
        assert buckets
        assert max(b.vmax for b in buckets) == 4500.0  # 3 queued behind tx
        assert buckets[-1].last == 0.0  # drained by the end

    def test_tracing_does_not_change_behaviour(self):
        def run(tracer):
            sim = EventEngine()
            port = OutputPort(sim, "t", units.gbps(10), 4500.0,
                              ecn_threshold=2000.0, tracer=tracer)
            for _ in range(6):
                port.enqueue(packet())
            sim.run()
            s = port.stats
            return (s.tx_packets, s.drops, s.ecn_marks,
                    s.max_queue_bytes, sim.now)

        assert run(None) == run(RingBufferSink())


class TestNetworkEvents:
    def test_flow_lifecycle_events(self):
        sink = RingBufferSink()
        net = PacketNetwork(small_topo(), tracer=sink)
        metrics = MetricsCollector(tracer=sink)
        for i in range(3):
            net.add_vm(i, 1, i)
        app = EpochBurstApp(net, metrics, 1, [0, 1, 2],
                            Fixed(10 * units.KB), epoch=units.msec(1),
                            rng=random.Random(7))
        app.start(phase=0.0)
        net.sim.run(until=0.005)
        starts = sink.of_kind("flow.start")
        finishes = sink.of_kind("flow.finish")
        assert len(starts) == app.messages_sent
        assert finishes
        assert len(finishes) == len(metrics.completed())
        fin = finishes[0]
        assert fin.tenant_id == 1
        assert fin.latency > 0
        # The trace alone reconstructs the metrics collector's latencies.
        assert (sorted(f.latency for f in finishes)
                == sorted(metrics.latencies()))

    def test_packet_events_cross_real_ports(self):
        sink = RingBufferSink()
        net = PacketNetwork(small_topo(), tracer=sink)
        metrics = MetricsCollector()
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        flow = net.transport(0, 1)
        flow.send_message(metrics.new_message(1, 0, 1, 30000.0, 0.0))
        net.sim.run(until=0.01)
        ports = {e.port for e in sink.of_kind("pkt.tx")}
        assert any(p.startswith("nic") for p in ports)

    def test_monitor_queues_builds_every_port_in_topology_order(self):
        """Routes build their ports first, out of topology order; the
        monitor still returns one series per fabric port, in topology
        order, each attached to the port traffic will cross."""
        topo = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=2,
                            slots_per_server=4, link_rate=units.gbps(10))
        net = PacketNetwork(topo)
        net.add_vm(0, 1, 3)
        net.add_vm(1, 1, 0)
        route = net.route(0, 1)
        assert 0 < len(net.ports) < len(topo.ports)
        series = net.monitor_queues(interval=10 * units.MICROS)
        assert list(series) == [f"{p.kind.value}[{p.index}]"
                                for p in topo.ports]
        assert sorted(net.ports) == [p.port_id for p in topo.ports]
        assert all(series[port.name] is port.depth_series
                   for port in route)

    def test_monitor_queues_attaches_series(self):
        net = PacketNetwork(small_topo())
        series = net.monitor_queues(interval=10 * units.MICROS)
        assert set(series) == {p.name for p in net.ports.values()}
        assert len(series) == len(net.ports) == len(net.topology.ports)
        metrics = MetricsCollector()
        net.add_vm(0, 1, 0)
        net.add_vm(1, 1, 1)
        flow = net.transport(0, 1)
        flow.send_message(metrics.new_message(1, 0, 1, 50000.0, 0.0))
        net.sim.run(until=0.01)
        assert any(s.count > 0 for s in series.values())


class TestSeriesOrder:
    """Every producer records its series in time order, which
    :meth:`TimeSeries.record` requires past the open bucket.  The lazy
    port records a start at the time it was due, not at the touch that
    decides it, and an idle port starts an arriving packet within the
    enqueue; the shaper records its backlog on every submit and
    release."""

    @pytest.mark.parametrize("mechanism", ["none", "silo"])
    def test_depth_and_backlog_series_never_go_back(self, monkeypatch,
                                                    mechanism):
        from repro.campaign.scenarios import mechanism_compare_cell
        from repro.mechanisms.run import PacketRun

        last = {}
        record = TimeSeries.record

        def in_order(series, t, value):
            assert t >= last.get(series, 0.0), (series.name, t)
            last[series] = t
            record(series, t, value)

        run = PacketRun.run

        def monitored(self, until):
            self.net.monitor_queues(interval=10 * units.MICROS)
            for vm in self.net.vms.values():
                if vm.pacer is not None:
                    vm.pacer.backlog_series = TimeSeries(
                        name=f"shaper[{vm.vm_id}]",
                        interval=10 * units.MICROS)
            run(self, until)

        monkeypatch.setattr(TimeSeries, "record", in_order)
        monkeypatch.setattr(PacketRun, "run", monitored)
        mechanism_compare_cell(mechanism=mechanism, workload="fig12",
                               duration=0.002)
        depth = [s for s in last if not s.name.startswith("shaper")]
        backlog = [s for s in last if s.name.startswith("shaper")]
        assert sum(s.count for s in depth) > 10_000
        assert bool(backlog) == (mechanism == "silo")
