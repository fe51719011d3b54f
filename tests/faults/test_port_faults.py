"""Packet-level fault semantics at an output port."""

import pytest

from repro import units
from repro.core import EventEngine
from repro.faults import FaultSchedule, FaultTarget, FaultEvent
from repro.faults.inject import NetworkFaultInjector
from repro.phynet.packet import PRIORITY_GUARANTEED, Packet
from repro.phynet.port import OutputPort


def make_port(sim, capacity=units.gbps(10), delivered=None):
    return OutputPort(sim, "test", capacity, buffer_bytes=10 * units.KB,
                      prop_delay=0.0,
                      on_delivery=(delivered.append
                                   if delivered is not None else None))


def packet(size=1250.0):
    return Packet(src=0, dst=1, size=size, route=[],
                  priority=PRIORITY_GUARANTEED)


class TestPortFaults:
    def test_down_port_drops_arrivals_as_fault_not_congestion(self):
        sim = EventEngine()
        port = make_port(sim)
        port.set_fault_factor(0.0)
        port.enqueue(packet())
        assert port.stats.fault_drops == 1
        assert port.stats.fault_dropped_bytes == 1250.0
        assert port.stats.drops == 0
        assert port.queued_bytes == 0.0

    def test_down_port_freezes_queue_until_repair(self):
        sim = EventEngine()
        delivered = []
        port = make_port(sim, delivered=delivered)
        port.enqueue(packet())
        port.enqueue(packet())
        # First packet is on the wire; take the port down before it
        # finishes -- the second must stay queued, not transmit.
        port.set_fault_factor(0.0)
        sim.run(until=1.0)
        assert len(delivered) == 1
        assert port.queued_bytes == 1250.0
        # Repairing an idle port resumes draining without a new arrival.
        port.set_fault_factor(1.0)
        sim.run(until=2.0)
        assert len(delivered) == 2
        assert port.queued_bytes == 0.0

    def test_degraded_port_serializes_slower(self):
        def drain_time(factor):
            sim = EventEngine()
            delivered = []
            port = make_port(sim, capacity=1250.0, delivered=delivered)
            port.set_fault_factor(factor)
            port.enqueue(packet(size=1250.0))
            sim.run()
            assert len(delivered) == 1
            return sim.now

        assert drain_time(1.0) == pytest.approx(1.0)
        assert drain_time(0.25) == pytest.approx(4.0)

    def test_factor_out_of_range_rejected(self):
        port = make_port(EventEngine())
        with pytest.raises(ValueError):
            port.set_fault_factor(-0.1)
        with pytest.raises(ValueError):
            port.set_fault_factor(1.5)

    def test_fault_factor_property_tracks_state(self):
        port = make_port(EventEngine())
        assert port.fault_factor == 1.0 and not port.is_down
        port.set_fault_factor(0.5)
        assert port.fault_factor == 0.5 and not port.is_down
        port.set_fault_factor(0.0)
        assert port.fault_factor == 0.0 and port.is_down


class TestNetworkFaultInjector:
    def test_injector_drives_ports_and_counts_drops(self):
        from repro.core.guarantees import NetworkGuarantee
        from repro.core.silo import SiloController
        from repro.core.tenant import TenantClass, TenantRequest
        from repro.phynet.network import PacketNetwork
        from repro.topology import TreeTopology

        topo = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=2,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
        silo = SiloController(topo)
        net = PacketNetwork(topo)
        request = TenantRequest(
            n_vms=6,
            guarantee=NetworkGuarantee(bandwidth=units.mbps(500),
                                       burst=15 * units.KB),
            tenant_class=TenantClass.CLASS_B)
        admitted = silo.admit(request)
        assert admitted is not None
        vms = []
        for i, server in enumerate(admitted.placement.vm_servers):
            net.add_vm(i, admitted.tenant_id, server,
                       guarantee=request.guarantee, paced=False)
            vms.append(i)
        # Take server 0's NIC uplink down for the middle of the run.
        target = FaultTarget("link", topo.nic_up(0).port_id)
        schedule = FaultSchedule.from_events([
            FaultEvent.down(0.5e-3, target),
            FaultEvent.up(1.5e-3, target),
        ])
        injector = NetworkFaultInjector(net, schedule)
        # A long transfer out of server 0 straddles the outage; segments
        # arriving at the dead uplink are fault-dropped (and later
        # recovered by the transport).
        from repro.phynet.metrics import MessageRecord
        src = next(v for v in vms
                   if admitted.placement.vm_servers[v] == 0)
        dst = next(v for v in vms
                   if admitted.placement.vm_servers[v] != 0)
        flow = net.transport(src, dst)
        flow.send_message(MessageRecord(
            tenant_id=admitted.tenant_id, src_vm=src, dst_vm=dst,
            size=2000 * units.KB, start=0.0))
        net.sim.run(until=5e-3)
        assert injector.applied == 2
        stats = net.port_stats()
        assert stats["fault_drops"] > 0
        assert not net.ports[target.index].is_down

    def test_injector_runs_on_an_injected_reference_simulator(self):
        """``PacketNetwork(sim=...)`` promises any loop speaking the
        ``schedule_at`` surface is honoured; the injector must not need
        more than that."""
        from repro.phynet.network import PacketNetwork
        from repro.topology import TreeTopology
        from seed_engine import Simulator

        topo = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=2,
                            slots_per_server=4, link_rate=units.gbps(10))
        net = PacketNetwork(topo, sim=Simulator())
        target = FaultTarget("link", topo.nic_up(0).port_id)
        schedule = FaultSchedule.from_events([
            FaultEvent.down(0.5e-3, target),
            FaultEvent.degrade(1.0e-3, target, 0.5),
            FaultEvent.up(1.5e-3, target),
        ])
        injector = NetworkFaultInjector(net, schedule)
        net.sim.run(until=1.2e-3)
        assert net.ports[target.index].fault_factor == 0.5
        net.sim.run(until=5e-3)
        assert injector.applied == len(schedule) == 3
        assert net.ports[target.index].fault_factor == 1.0
