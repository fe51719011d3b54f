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
from repro.phynet.packet import PRIORITY_GUARANTEED
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
                   for port in net.ports.values())
        assert mech.transport_class() is None
        assert mech.placement == "silo"
        assert vm.pacer is not None
        assert vm.guarantee is GUARANTEE

    def test_none_leaves_everything_unpaced(self):
        mech = get_mechanism("none")
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0,
                         guarantee=GUARANTEE)
        assert all(port.ecn_threshold is None
                   and port.phantom_drain is None
                   for port in net.ports.values())
        assert vm.pacer is None
        assert mech.transport_class() is None
        assert mech.counters(net) == {}

    def test_swp_paces_delay_tenants_rate_only(self):
        mech = get_mechanism("swp")
        net = mech.build_network(small_topology())
        vm = mech.add_vm(net, 0, tenant_id=1, server=0,
                         guarantee=GUARANTEE)
        assert all(port.ecn_threshold is None
                   for port in net.ports.values())
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
        assert mech.transport_class() is None
        # The oracle hose coordination is off: the distributed loop
        # owns the rates.
        assert not net.coordination
        assert vm.pacer.destination_bucket(1).rate \
            == net.topology.link_rate

    def test_attach_numbers_vms_in_placement_order(self):
        mech = get_mechanism("silo")
        net = mech.build_network(small_topology())
        assert mech.attach(net, 7, [1, 0, 1], GUARANTEE, 10) \
            == [10, 11, 12]
        assert [net.vms[vm].server for vm in (10, 11, 12)] == [1, 0, 1]
        assert all(net.vms[vm].tenant_id == 7
                   and net.vms[vm].pacer is not None
                   for vm in (10, 11, 12))

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
        flow = net.transport(0, 1, transport_class=mech.transport_class())
        return mech, net, vms[0], flow

    def test_dctcp_marks_ecn_and_runs_dctcp_endpoints(self):
        mech, net, vm, flow = self.build("dctcp")
        assert all(port.ecn_threshold == DCTCP_K
                   and port.phantom_drain is None
                   for port in net.ports.values())
        assert mech.transport_class() is Dctcp
        assert type(flow) is Dctcp
        assert vm.pacer is None

    def test_hull_runs_phantom_queues_and_hull_endpoints(self):
        mech, net, vm, flow = self.build("hull")
        assert all(port.phantom_drain == 0.95 * port.capacity
                   and port.phantom_threshold == 3_000
                   and port.ecn_threshold is None
                   for port in net.ports.values())
        assert mech.transport_class() is HullTcp
        assert type(flow) is HullTcp
        assert vm.pacer is None

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
        first = placements[0][2].vm_servers
        assert (first == list(range(len(first)))) == (manager is None)
