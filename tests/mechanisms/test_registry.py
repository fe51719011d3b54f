"""The Mechanism interface and registry contract."""

import pytest

from repro import units
from repro.campaign import scenarios
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms import (
    Mechanism,
    get_mechanism,
    mechanism_names,
    register_mechanism,
)
from repro.mechanisms.baselines import DCTCP_K
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.metrics import MessageRecord
from repro.phynet.packet import PRIORITY_BEST_EFFORT, PRIORITY_GUARANTEED
from repro.phynet.transport import Dctcp, HullTcp, TcpReno
from repro.phynet.transport.swp import SwpTransport
from repro.placement import OktopusPlacementManager, SiloPlacementManager
from repro.topology import TreeTopology

GUARANTEE = NetworkGuarantee(bandwidth=units.mbps(250),
                             burst=15 * units.KB, delay=units.msec(1),
                             peak_rate=units.gbps(1))


def small_topology():
    return TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=2,
                        slots_per_server=2, link_rate=units.gbps(1))


def every_port(net):
    """Every fabric port of ``net``, built through :meth:`port` as a
    route, a fault or a monitor would build it."""
    ports = [net.port(spec.port_id) for spec in net.topology.ports]
    assert len(net.ports) == len(ports) > 0
    return ports


class TestRegistry:
    def test_all_mechanisms_registered(self):
        assert mechanism_names() == ("dctcp", "eyeq", "hull", "none",
                                     "okto", "okto+", "silo", "swp")

    def test_get_mechanism_returns_fresh_instances(self):
        assert get_mechanism("silo") is not get_mechanism("silo")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="eyeq.*silo"):
            get_mechanism("homa")

    def test_registering_a_nameless_mechanism_fails(self):
        with pytest.raises(ValueError, match="no registry name"):
            @register_mechanism
            class Nameless(Mechanism):
                """Invalid: no name."""
                def add_vm(self, *args, **kwargs):
                    """Unused."""

    def test_registering_a_duplicate_name_fails(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_mechanism
            class Duplicate(Mechanism):
                """Invalid: collides with the built-in."""
                name = "silo"
                def add_vm(self, *args, **kwargs):
                    """Unused."""


class TestStackConfiguration:
    def test_silo_paces_with_guarantee_derived_config(self):
        mech = get_mechanism("silo")
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0,
                         guarantee=GUARANTEE)
        assert all(port.ecn_threshold is None
                   and port.phantom_drain is None
                   for port in every_port(net))
        assert mech.transport_class() is TcpReno
        assert mech.placement == "silo"
        assert vm.pacer.config == PacerConfig.from_guarantee(GUARANTEE)
        assert vm.priority == PRIORITY_GUARANTEED
        assert vm.guarantee is GUARANTEE

    @pytest.mark.parametrize("name", ["silo", "okto", "okto+"])
    def test_silo_puts_unguaranteed_vms_in_best_effort(self, name):
        """Section 4.4: a VM without a guarantee is unpaced and rides the
        low 802.1q class, below every guaranteed tenant."""
        mech = get_mechanism(name)
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0, guarantee=None)
        assert vm.pacer is None
        assert vm.guarantee is None
        assert vm.priority == PRIORITY_BEST_EFFORT

    def test_none_leaves_everything_unpaced(self):
        mech = get_mechanism("none")
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0,
                         guarantee=GUARANTEE)
        assert all(port.ecn_threshold is None
                   and port.phantom_drain is None
                   for port in every_port(net))
        assert vm.pacer is None
        assert vm.priority == PRIORITY_GUARANTEED
        assert mech.transport_class() is TcpReno
        assert mech.counters(net) == {}

    def test_swp_paces_delay_tenants_rate_only(self):
        mech = get_mechanism("swp")
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0,
                         guarantee=GUARANTEE)
        assert all(port.ecn_threshold is None
                   for port in every_port(net))
        assert mech.transport_class() is SwpTransport
        assert vm.pacer is not None
        bucket = vm.pacer.destination_bucket(1)
        assert bucket.rate == GUARANTEE.bandwidth
        # Rate only: no admission calculus sized a burst allowance.
        assert bucket.capacity == units.MTU

    def test_swp_leaves_bandwidth_only_tenants_unpaced(self):
        mech = get_mechanism("swp")
        net = mech.build_network(small_topology())
        bulk = NetworkGuarantee(bandwidth=units.gbps(1),
                                burst=1.5 * units.KB)
        vm = mech.add_vm(net, 0, tenant_id=1, server=0, guarantee=bulk)
        assert vm.pacer is None
        assert vm.priority == PRIORITY_GUARANTEED

    def test_eyeq_starts_limiters_at_line_rate(self):
        mech = get_mechanism("eyeq")
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0,
                         guarantee=GUARANTEE)
        assert mech.transport_class() is TcpReno
        # No oracle hose split was scheduled: the distributed loop,
        # started by ``mech.start``, owns the rates.
        assert net.sim.pending_events == 0
        assert vm.pacer.destination_bucket(1).rate \
            == net.topology.link_rate

    def test_attach_numbers_vms_in_placement_order(self):
        mech = get_mechanism("silo")
        net = mech.build_network(small_topology())
        assert mech.attach(net, 7, [1, 0, 1], GUARANTEE) == [0, 1, 2]
        assert [net.vms[vm].server for vm in (0, 1, 2)] == [1, 0, 1]
        assert all(net.vms[vm].tenant_id == 7
                   and net.vms[vm].pacer is not None
                   for vm in (0, 1, 2))

    def test_attach_numbers_after_the_vms_the_network_holds(self):
        """A second tenant, a second mechanism on the same network, or a
        VM placed by hand: attach never reuses an id."""
        silo = get_mechanism("silo")
        net = silo.build_network(small_topology())
        assert silo.attach(net, 1, [0, 1], GUARANTEE) == [0, 1]
        assert get_mechanism("none").attach(net, 2, [1], None) == [2]
        net.add_vm(9, tenant_id=3, server=0)
        assert silo.attach(net, 4, [0, 1], None) == [10, 11]
        assert [net.vms[vm].tenant_id for vm in (0, 1, 2, 9, 10, 11)] \
            == [1, 1, 2, 3, 4, 4]

    def test_eyeq_start_attaches_controller(self):
        mech = get_mechanism("eyeq")
        net = mech.build_network(small_topology())
        mech.start(net)
        assert mech.controller is not None
        counters = mech.counters(net)
        assert counters["feedback_messages"] == 0


class TestPaperBaselines:
    """Each section 6.2 baseline configures what its name says."""

    def build(self, name):
        mech = get_mechanism(name)
        net = mech.build_network(small_topology())
        vms = [mech.add_vm(net, vm_id, tenant_id=1, server=vm_id,
                           guarantee=GUARANTEE) for vm_id in (0, 1)]
        flow = net.transport(0, 1)
        return mech, net, vms[0], flow

    def test_dctcp_marks_ecn_and_runs_dctcp_endpoints(self):
        mech, net, vm, flow = self.build("dctcp")
        assert all(port.ecn_threshold == DCTCP_K
                   and port.phantom_drain is None
                   for port in every_port(net))
        assert mech.transport_class() is Dctcp
        assert type(flow) is Dctcp
        assert vm.pacer is None

    def test_hull_runs_phantom_queues_and_hull_endpoints(self):
        mech, net, vm, flow = self.build("hull")
        assert all(port.phantom_drain == 0.95 * port.capacity
                   and port.phantom_threshold == 3_000
                   and port.ecn_threshold is None
                   for port in every_port(net))
        assert mech.transport_class() is HullTcp
        assert type(flow) is HullTcp
        assert vm.pacer is None

    @pytest.mark.parametrize("name", ["dctcp", "hull"])
    def test_a_port_built_mid_run_marks_like_one_built_at_start(self, name):
        """Ports are built when traffic first reaches them.  One built
        at t = 1 ms carries the mechanism's marking, and marks the same
        packets as the same port built at t = 0 and left idle."""
        def run(built_at_start):
            mech, net, _, flow = self.build(name)
            if built_at_start:
                every_port(net)

            def send():
                assert bool(net.ports) == built_at_start
                flow.send_message(MessageRecord(
                    tenant_id=1, src_vm=0, dst_vm=1, size=units.MB,
                    start=net.sim.now))
            net.sim.schedule_at(units.msec(1), send)
            net.sim.run(until=units.msec(30))
            return net

        lazy, eager = run(False), run(True)
        assert 0 < len(lazy.ports) < len(eager.ports)
        for port_id, port in lazy.ports.items():
            twin = eager.ports[port_id]
            assert (port.ecn_threshold, port.phantom_drain,
                    port.phantom_threshold) == (
                twin.ecn_threshold, twin.phantom_drain,
                twin.phantom_threshold)
            assert port.stats == twin.stats
        assert lazy.port_stats()["ecn_marks"] > 0
        assert lazy.port_stats() == eager.port_stats()

    def test_okto_is_a_rate_limit_without_burst(self):
        mech, net, vm, flow = self.build("okto")
        assert type(flow) is TcpReno
        bucket = vm.pacer.destination_bucket(1)
        assert bucket.capacity == units.MTU
        assert bucket.rate == GUARANTEE.bandwidth
        assert vm.pacer.config.peak_rate == GUARANTEE.bandwidth

    def test_okto_plus_keeps_the_guarantees_burst(self):
        mech, net, vm, flow = self.build("okto+")
        assert type(flow) is TcpReno
        assert vm.pacer.config.burst == GUARANTEE.burst
        assert vm.pacer.config.peak_rate == GUARANTEE.peak_rate

    @pytest.mark.parametrize("name, manager", [
        ("silo", SiloPlacementManager),
        ("okto", OktopusPlacementManager),
        ("okto+", OktopusPlacementManager),
        ("dctcp", None), ("hull", None), ("none", None),
        ("swp", None), ("eyeq", None),
    ])
    def test_placement_policy(self, name, manager):
        """The campaign places through the manager the mechanism names,
        and stripes consecutive VMs over consecutive servers when it
        names none."""
        policy = get_mechanism(name).placement
        assert (policy is None) == (manager is None)
        if manager is not None:
            assert scenarios._policy_manager(policy)[0] is manager
        placements = scenarios._place_campaign_tenants(
            policy, scenarios._cli_topology(1, 2, 5, 4))
        first = placements[0].vm_servers
        assert (first == list(range(len(first)))) == (manager is None)


class TestNetworkContract:
    """What every mechanism's network promises the applications."""

    @pytest.mark.parametrize("name", mechanism_names())
    def test_every_flow_runs_the_mechanisms_transport(self, name):
        mech = get_mechanism(name)
        net = mech.build_network(small_topology())
        mech.attach(net, 1, [0, 1], GUARANTEE)
        assert isinstance(net.transport(0, 1), mech.transport_class())
        assert isinstance(net.transport(1, 0), mech.transport_class())

    @staticmethod
    def incast_rates(name):
        """Two backlogged senders into one receiver of a GUARANTEE
        tenant, 2 ms in: each sender's pacer rate toward the receiver."""
        topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                            slots_per_server=2, link_rate=units.gbps(1))
        mech = get_mechanism(name)
        net = mech.build_network(topo)
        receiver, *senders = mech.attach(net, 1, [0, 1, 2], GUARANTEE)
        for sender in senders:
            net.transport(sender, receiver).send_message(MessageRecord(
                tenant_id=1, src_vm=sender, dst_vm=receiver,
                size=units.MB, start=0.0))
        net.sim.run(until=units.msec(2))
        return [net.vms[sender].pacer.destination_bucket(receiver).rate
                for sender in senders]

    @pytest.mark.parametrize("name", ["silo", "okto", "okto+", "swp"])
    def test_pacing_mechanisms_split_the_receivers_hose(self, name):
        """Fig. 8's top row: the receiver's hose is shared by the pairs
        converging on it, so each sender is re-rated to ``B / 2``."""
        assert self.incast_rates(name) == [GUARANTEE.bandwidth / 2] * 2

    def test_eyeq_never_runs_the_oracle_split(self):
        """EyeQ's limiters stay at line rate until its own feedback
        loop (not started here) re-rates them."""
        assert self.incast_rates("eyeq") == [units.gbps(1)] * 2
