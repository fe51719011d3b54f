"""Directed sender->receiver port paths for incast placements."""

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import SiloPlacementManager, incast_paths
from repro.topology import TreeTopology


def make_topo(**kwargs):
    defaults = dict(n_pods=2, racks_per_pod=2, servers_per_rack=4,
                    slots_per_server=4, link_rate=units.gbps(10),
                    oversubscription=5.0, buffer_bytes=312 * units.KB)
    defaults.update(kwargs)
    return TreeTopology(**defaults)


def place(topo, n_vms=8):
    manager = SiloPlacementManager(topo)
    request = TenantRequest(
        n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=units.gbps(0.25),
                                   burst=15 * units.KB,
                                   delay=units.msec(1),
                                   peak_rate=units.gbps(1)),
        tenant_class=TenantClass.CLASS_A)
    placement = manager.place(request)
    assert placement is not None
    return placement


class TestIncastPaths:
    def test_one_sender_per_non_receiver_vm(self):
        topo = make_topo()
        paths = incast_paths(topo, place(topo, n_vms=8))
        assert len(paths.senders) == 7
        assert paths.receiver_vm == 0
        assert all(s.vm_index != 0 for s in paths.senders)

    def test_colocated_sender_has_no_switch_ports(self):
        topo = make_topo()
        placement = place(topo, n_vms=4)  # fits one server
        paths = incast_paths(topo, placement)
        assert all(s.server == paths.receiver_server
                   for s in paths.senders)
        assert all(s.ports == () for s in paths.senders)
        assert paths.max_hops() == 0

    def test_cross_server_path_traverses_tor(self):
        topo = make_topo()
        paths = incast_paths(topo, place(topo, n_vms=8))
        remote = [s for s in paths.senders
                  if s.server != paths.receiver_server]
        assert remote
        for sender in remote:
            kinds = [port.kind.value for port in sender.ports]
            assert kinds == ["nic-up", "tor-down"]

    def test_fan_in_counts_shared_ports(self):
        topo = make_topo()
        paths = incast_paths(topo, place(topo, n_vms=8))
        fan_in = paths.port_fan_in()
        remote = [s for s in paths.senders
                  if s.server != paths.receiver_server]
        # Every remote sender funnels through the receiver's ToR
        # down-link; per-server NIC up-links are shared per server.
        tor_down = [name for name in fan_in if "tor-down" in name]
        assert len(tor_down) == 1
        assert fan_in[tor_down[0]] == len(remote)


class TestPortNames:
    def test_name_matches_trace_convention(self):
        topo = make_topo()
        port = topo.ports[0]
        assert port.name == f"{port.kind.value}[{port.index}]"

    def test_names_are_unique(self):
        topo = make_topo()
        names = [port.name for port in topo.ports]
        assert len(names) == len(set(names))
