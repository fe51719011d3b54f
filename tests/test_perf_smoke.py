"""Tier-1 smoke checks for the optimized hot paths (marker: perf_smoke).

Each test pins a hot-path gain as a *count* -- probes per stamp,
``free_slots`` reads per ``place``, dumps per snapshot, servers probed
by a failing ``_fill``, port derivations per fault -- never as
wall-clock time, so it holds on any machine.  Wall-clock numbers are
the repo benchmark's (``python3 perf/run.py``, ``perf/README.md``);
agreement of each shipped path with its seed oracle under
``tests/oracles/`` is the differential tests' job
(``tests/placement/test_seed_manager_differential.py``,
``tests/flowsim/test_sim_equivalence.py``, ``tests/test_maxmin.py``,
``tests/test_maxmin_incremental.py``).
"""

import pytest

pytestmark = pytest.mark.perf_smoke


def test_shaper_probes_per_stamp_floor(monkeypatch):
    """The pacer's wasted-work ratio on the headline cell, as a count.

    ``would_stamp`` probes per ``stamp`` debit on a 5 ms fig12 Silo cell:
    the rescanning shaper needed ~36, the incremental one ~6 (the repo
    benchmark reports it as ``pacer.token_bucket.probes_per_stamp``).
    Counts repeat exactly for a seed, so this guards the gain on any
    machine without a timing assertion.
    """
    from repro.campaign.scenarios import mechanism_compare_cell
    from repro.pacer.token_bucket import TokenBucket

    calls = {"would_stamp": 0, "stamp": 0}

    def counted(name):
        method = getattr(TokenBucket, name)

        def wrapper(self, size, now):
            calls[name] += 1
            return method(self, size, now)
        return wrapper

    for name in calls:
        monkeypatch.setattr(TokenBucket, name, counted(name))
    mechanism_compare_cell(mechanism="silo", workload="fig12",
                           duration=0.005)
    assert calls["stamp"] > 10_000
    assert calls["would_stamp"] <= 8 * calls["stamp"]


def test_place_reads_free_slots_independent_of_cluster_size():
    """A ``place`` that fails server scope must not walk the cluster.

    8 000 servers at ~0.6 occupancy (slots-only placeholders, adopted
    without a search), then one 5-VM tenant: no 4-slot server can hold
    it, so the server scope fails and the first rack with room takes it.
    The scanning search read ``free_slots`` once per server of every rack
    with 5 free slots on the way (thousands); the indexed one reads only
    inside the rack it fills.  A count, so it holds on any machine.
    """
    import random

    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.placement import SiloPlacementManager
    from repro.topology import TreeTopology

    class CountingList(list):
        reads = 0

        def __getitem__(self, item):
            self.reads += 1  # a slice is one C-level read of the range
            return super().__getitem__(item)

        def __iter__(self):
            self.reads += len(self)
            return super().__iter__()

    topology = TreeTopology(n_pods=16, racks_per_pod=50, servers_per_rack=10,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
    manager = SiloPlacementManager(topology)
    rng = random.Random(16)
    for server in range(topology.n_servers):
        used = rng.choice([0, 2, 3, 3, 4])  # mean 2.4 of 4 slots
        if used:
            manager.adopt(TenantRequest(n_vms=used, guarantee=None,
                                        tenant_class=TenantClass.BEST_EFFORT),
                          {server: used})
    assert 0.55 < manager.occupancy < 0.65
    manager.free_slots = CountingList(manager.free_slots)
    request = TenantRequest(
        n_vms=topology.slots_per_server + 1,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(50),
                                   burst=1.5 * units.KB),
        tenant_class=TenantClass.CLASS_B)
    placement = manager.place(request)
    assert placement is not None and len(set(placement.vm_servers)) > 1
    assert manager.free_slots.reads <= 4 * topology.servers_per_rack


def test_snapshot_dumps_once_saves_once_and_never_deep_copies(
        tmp_path, monkeypatch):
    """One ``snapshot()`` = one ``dump_state``, one ``save``, no
    ``copy.deepcopy``: the file and the digest share the dumped dict."""
    import copy

    from repro.service import ShardedCluster, SnapshotStore

    from tests.service.test_cluster import guaranteed
    from tests.service.test_service import build_service

    service = build_service(tmp_path)
    for tid in range(1, 6):
        service.submit_admission(guaranteed(tid), now=0.0)
    service.tick(now=0.1)
    calls = {"dump_state": 0, "save": 0, "deepcopy": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ShardedCluster, "dump_state",
                        counted("dump_state", ShardedCluster.dump_state))
    monkeypatch.setattr(SnapshotStore, "save",
                        counted("save", SnapshotStore.save))
    monkeypatch.setattr(copy, "deepcopy",
                        counted("deepcopy", copy.deepcopy))
    digest = service.snapshot(now=0.2)
    assert calls == {"dump_state": 1, "save": 1, "deepcopy": 0}
    assert digest == service.state_digest()
    service.close()


def test_failing_fill_stops_once_the_slots_ahead_cannot_cover_the_rest():
    """A ``_fill`` that must fail probes O(slack) servers, not the rack.

    One 40-server rack, 160 free slots, a 150-VM tenant: ``slack`` is
    10.  Every NIC uplink but three is fully reserved, so each of those
    servers admits no VM and costs the budget its 4 free slots: after
    the third such server no assignment can exist.  The seed's loop
    walks all 40.  Counted at ``_port_ok``, so it holds on any machine.
    """
    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.placement import Contribution, SiloPlacementManager
    from repro.topology import TreeTopology

    from seed_admission import SeedSiloPlacementManager

    healthy = (0, 10, 20)

    def probed_servers(manager_class):
        topology = TreeTopology(
            n_pods=1, racks_per_pod=1, servers_per_rack=40,
            slots_per_server=4, link_rate=units.gbps(10),
            oversubscription=5.0, buffer_bytes=312 * units.KB)
        manager = manager_class(topology)
        for server in range(topology.n_servers):
            if server not in healthy:
                nic = topology.nic_up(server)
                manager.reserve_capacity(
                    nic.port_id,
                    Contribution(bandwidth=nic.capacity, burst=0.0,
                                 peak_rate=nic.capacity, packet_slack=0.0),
                    "fault")
        request = TenantRequest(
            n_vms=150,
            guarantee=NetworkGuarantee(bandwidth=units.mbps(50),
                                       burst=1.5 * units.KB),
            tenant_class=TenantClass.CLASS_B)
        probed = []
        inner = manager._port_ok

        def counting_port_ok(state, contribution):
            probed.append(state.port.index)
            return inner(state, contribution)

        manager._port_ok = counting_port_ok
        servers = list(range(topology.n_servers))
        assert manager._fill(request, servers, "greedy", "rack") is None
        return probed

    slack, slots = 160 - 150, 4
    shipped = probed_servers(SiloPlacementManager)
    seed = probed_servers(SeedSiloPlacementManager)
    assert len(set(seed)) == 40
    assert len(set(shipped)) <= len(healthy) + slack // slots + 1
    assert len(shipped) < len(seed) // 4


def test_fault_events_derive_each_placements_ports_once():
    """50 fault events over fixed books call ``_placement_ports`` once
    per placement, not once per placement per event; a tenant the next
    fault re-places is a new placement and is derived once more."""
    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.faults.model import FaultEvent, FaultTarget
    from repro.placement import SiloPlacementManager
    from repro.placement.controller import ClusterController
    from repro.topology import TreeTopology

    topology = TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=4,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
    manager = SiloPlacementManager(topology)
    for _ in range(10):
        assert manager.place(TenantRequest(
            n_vms=6,
            guarantee=NetworkGuarantee(bandwidth=units.mbps(100),
                                       burst=15 * units.KB),
            tenant_class=TenantClass.CLASS_B)) is not None
    controller = ClusterController(manager)
    derived = []  # holds the placements, so ids cannot be recycled
    inner = controller._placement_ports

    def counting_placement_ports(placement):
        derived.append(placement)
        return inner(placement)

    controller._placement_ports = counting_placement_ports
    # Every tenant fits a rack, so no placement crosses an aggregation
    # uplink: degrading them is a fault that touches no one.
    uplinks = [topology.agg_up(pod).port_id for pod in range(2)]
    before = {tid: p for tid, p in manager.placements.items()}
    for n in range(50):
        outcomes = controller.apply(FaultEvent.degrade(
            time=float(n), target=FaultTarget("link", uplinks[n % 2]),
            factor=0.9 - 0.01 * (n // 2)))
        assert outcomes == {}
    assert all(manager.placements[tid] is p for tid, p in before.items())
    assert len(derived) == len(manager.placements) == 10
    assert len({id(p) for p in derived}) == len(derived)
    # A server crash re-places the tenants it hosted: at the next fault
    # only those new placements are derived.
    moved = controller.apply(FaultEvent.down(
        time=50.0, target=FaultTarget("server", 0)))
    replaced = [tid for tid in moved if tid in manager.placements]
    assert replaced
    controller.apply(FaultEvent.degrade(
        time=51.0, target=FaultTarget("link", uplinks[0]), factor=0.5))
    assert len(derived) == 10 + len(replaced)
    assert len({id(p) for p in derived}) == len(derived)
