"""Topology structure, paths and queue-capacity arithmetic."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.topology import PortKind, TreeTopology


@pytest.fixture
def topo():
    return TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


class TestStructure:
    def test_counts(self, topo):
        assert topo.n_racks == 4
        assert topo.n_servers == 12
        assert topo.n_slots == 48

    def test_rack_and_pod_of(self, topo):
        assert topo.rack_of(0) == 0
        assert topo.rack_of(5) == 1
        assert topo.pod_of(5) == 0
        assert topo.pod_of(6) == 1

    def test_servers_in_rack(self, topo):
        assert list(topo.servers_in_rack(1)) == [3, 4, 5]

    def test_servers_in_pod(self, topo):
        assert list(topo.servers_in_pod(1)) == [6, 7, 8, 9, 10, 11]

    def test_out_of_range_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.rack_of(12)
        with pytest.raises(ValueError):
            topo.servers_in_rack(4)

    def test_oversubscribed_uplinks(self, topo):
        # 3 servers x 10G / 5 = 6 Gbps, floored at one link's rate: an
        # uplink is never slower than a single server link.
        assert topo.tor_uplink_rate == pytest.approx(units.gbps(10))
        assert topo.agg_uplink_rate == pytest.approx(units.gbps(10))

    def test_oversubscription_bites_at_scale(self):
        big = TreeTopology(n_pods=2, racks_per_pod=4, servers_per_rack=40,
                           slots_per_server=8, link_rate=units.gbps(10),
                           oversubscription=5.0)
        # 40 servers x 10G / 5 = 80 Gbps ToR uplink.
        assert big.tor_uplink_rate == pytest.approx(units.gbps(80))
        # 4 racks x 80G / 5 = 64 Gbps aggregation uplink.
        assert big.agg_uplink_rate == pytest.approx(units.gbps(64))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            TreeTopology(n_pods=0)
        with pytest.raises(ValueError):
            TreeTopology(oversubscription=0.5)


class TestPorts:
    def test_unique_port_ids(self, topo):
        ids = [p.port_id for p in topo.ports]
        assert len(ids) == len(set(ids))

    def test_port_count(self, topo):
        # 2 per server + 2 per rack + 2 per pod.
        assert len(topo.ports) == 2 * 12 + 2 * 4 + 2 * 2

    def test_queue_capacity(self, topo):
        nic = topo.nic_up(0)
        assert nic.queue_capacity == pytest.approx(
            312 * units.KB / units.gbps(10))


class TestPaths:
    def test_same_server_is_empty(self, topo):
        assert topo.path_ports(3, 3) == []

    def test_same_rack_two_hops(self, topo):
        path = topo.path_ports(0, 2)
        kinds = [p.kind for p in path]
        assert kinds == [PortKind.NIC_UP, PortKind.TOR_DOWN]
        assert path[0].index == 0
        assert path[1].index == 2

    def test_same_pod_four_hops(self, topo):
        path = topo.path_ports(0, 4)
        kinds = [p.kind for p in path]
        assert kinds == [PortKind.NIC_UP, PortKind.TOR_UP,
                         PortKind.AGG_DOWN, PortKind.TOR_DOWN]

    def test_cross_pod_six_hops(self, topo):
        path = topo.path_ports(0, 11)
        kinds = [p.kind for p in path]
        assert kinds == [PortKind.NIC_UP, PortKind.TOR_UP, PortKind.AGG_UP,
                         PortKind.CORE_DOWN, PortKind.AGG_DOWN,
                         PortKind.TOR_DOWN]

    def test_path_queue_capacity_monotone_in_scope(self, topo):
        same_rack = topo.path_queue_capacity(0, 1)
        same_pod = topo.path_queue_capacity(0, 3)
        cross_pod = topo.path_queue_capacity(0, 6)
        assert same_rack < same_pod < cross_pod


class TestScopes:
    def test_scope_capacity_matches_paths(self, topo):
        assert topo.scope_queue_capacity("server") == 0.0
        assert topo.scope_queue_capacity("rack") == pytest.approx(
            topo.path_queue_capacity(0, 1))
        assert topo.scope_queue_capacity("pod") == pytest.approx(
            topo.path_queue_capacity(0, 3))
        assert topo.scope_queue_capacity("cluster") == pytest.approx(
            topo.path_queue_capacity(0, 6))

    def test_widest_scope_for_delay(self, topo):
        rack_cap = topo.scope_queue_capacity("rack")
        pod_cap = topo.scope_queue_capacity("pod")
        assert topo.widest_scope_for_delay(rack_cap) == "rack"
        assert topo.widest_scope_for_delay(pod_cap) == "pod"
        assert topo.widest_scope_for_delay(1.0) == "cluster"

    def test_tight_delay_allows_server_only(self, topo):
        tiny = topo.scope_queue_capacity("rack") / 10
        assert topo.widest_scope_for_delay(tiny) == "server"

    def test_invalid_scope_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.scope_queue_capacity("continent")


class TestUpstreamQueueCapacity:
    def test_nic_has_no_upstream(self, topo):
        assert topo.upstream_queue_capacity(PortKind.NIC_UP, "cluster") == 0

    def test_tor_down_grows_with_scope(self, topo):
        rack = topo.upstream_queue_capacity(PortKind.TOR_DOWN, "rack")
        pod = topo.upstream_queue_capacity(PortKind.TOR_DOWN, "pod")
        cluster = topo.upstream_queue_capacity(PortKind.TOR_DOWN, "cluster")
        assert rack < pod < cluster

    def test_rack_scope_tor_down_sees_only_nic(self, topo):
        assert topo.upstream_queue_capacity(
            PortKind.TOR_DOWN, "rack") == pytest.approx(
            topo.nic_up(0).queue_capacity)


#: Examples per property: 60 in tier-1; CI's drift hunt asks for more
#: (and passes ``--hypothesis-seed=random``).
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "60"))


@st.composite
def trees_and_assignments(draw):
    """A random tree and a ``{server: n_vms}`` assignment on it, in
    arbitrary (not sorted) server order."""
    tree = TreeTopology(n_pods=draw(st.integers(1, 3)),
                        racks_per_pod=draw(st.integers(1, 3)),
                        servers_per_rack=draw(st.integers(1, 4)))
    assignment = draw(st.dictionaries(
        st.integers(0, tree.n_servers - 1), st.integers(1, 5),
        min_size=1, max_size=8))
    return tree, assignment


class TestHoseCuts:
    """``hose_cuts`` / ``span`` against all-pairs ``path_ports``, which
    shares none of their tally code."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(trees_and_assignments())
    def test_cuts_match_all_pairs_paths(self, drawn):
        tree, assignment = drawn
        senders_behind = {}  # port id -> servers with a path through it
        for src in assignment:
            for dst in assignment:
                for port in tree.path_ports(src, dst):
                    senders_behind.setdefault(port.port_id, set()).add(src)
        cuts = list(tree.hose_cuts(assignment))
        assert len(cuts) == len({port.port_id for port, _, _ in cuts})
        assert ({port.port_id for port, _, _ in cuts}
                == set(senders_behind))
        for port, m_senders, k_servers in cuts:
            senders = senders_behind[port.port_id]
            assert m_senders == sum(assignment[s] for s in senders)
            assert k_servers == len(senders)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(trees_and_assignments())
    def test_span_is_the_widest_pair(self, drawn):
        tree, assignment = drawn
        hops = max(len(tree.path_ports(src, dst))
                   for src in assignment for dst in assignment)
        assert tree.span(assignment) == {0: "server", 2: "rack",
                                         4: "pod", 6: "cluster"}[hops]

    def test_single_server_crosses_nothing(self, topo):
        assert list(topo.hose_cuts({4: 9})) == []
        assert topo.span({4: 9}) == "server"

    def test_yield_order_servers_then_racks_then_pods(self, topo):
        # Commit order, and so every registry fold and digest, follows it.
        cuts = [(port.kind, port.index, m, k)
                for port, m, k in topo.hose_cuts({7: 2, 0: 1, 1: 3})]
        assert cuts == [
            (PortKind.NIC_UP, 7, 2, 1), (PortKind.TOR_DOWN, 7, 4, 2),
            (PortKind.NIC_UP, 0, 1, 1), (PortKind.TOR_DOWN, 0, 5, 2),
            (PortKind.NIC_UP, 1, 3, 1), (PortKind.TOR_DOWN, 1, 3, 2),
            (PortKind.TOR_UP, 2, 2, 1), (PortKind.AGG_DOWN, 2, 4, 2),
            (PortKind.TOR_UP, 0, 4, 2), (PortKind.AGG_DOWN, 0, 2, 1),
            (PortKind.AGG_UP, 1, 2, 1), (PortKind.CORE_DOWN, 1, 4, 2),
            (PortKind.AGG_UP, 0, 4, 2), (PortKind.CORE_DOWN, 0, 2, 1),
        ]
