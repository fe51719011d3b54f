"""Tier-1 smoke checks for the optimized hot paths (marker: perf_smoke).

Each test pins a hot-path gain as a *count* -- probes per stamp, head
scans per paced release, ``free_slots`` reads per ``place``, dumps per
snapshot, servers probed by a failing ``_fill``, by a tenant no empty
port can hold and by loaded servers that cannot take one VM, balanced
fills after a greedy one that placed nothing, port derivations per
fault, flows per water-filled max-min class, packet ports built per
route, engine events and Python calls per port enqueue -- never as
wall-clock time, so it holds on any machine.  Wall-clock numbers are
the repo benchmark's (``python3 perf/run.py``, ``perf/README.md``);
agreement of each shipped path with its seed oracle under
``tests/oracles/`` is the differential tests' job
(``tests/placement/test_seed_manager_differential.py``,
``tests/flowsim/test_sim_equivalence.py``, ``tests/test_maxmin.py``,
``tests/test_maxmin_incremental.py``, ``tests/test_maxmin_classes.py``).
"""

import pytest

pytestmark = pytest.mark.perf_smoke


def test_shaper_probes_per_stamp_floor(monkeypatch):
    """The pacer's wasted-work ratio on the headline cell, as a count.

    ``would_stamp`` probes per ``stamp`` debit on a 5 ms fig12 Silo cell:
    the rescanning shaper needed ~36, the incremental one scanning in
    queue-creation order 5.45, bound-ordered selection 2.63, and 1.75
    once a wake-up carries its winner (the repo benchmark reports it as
    ``pacer.token_bucket.probes_per_stamp``).  Counts repeat exactly for
    a seed, so this guards the gain on any machine without a timing
    assertion.
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
    assert calls["would_stamp"] <= 2 * calls["stamp"]


def test_a_release_costs_one_scan(monkeypatch):
    """Head scans per paced release on the 5 ms fig12 Silo cell.

    A shaper that scanned for the winner at every wake-up and again to
    arm the next one made 2.26 ``_earliest_head`` calls per release
    (21 324 for 9 449).  A wake-up whose arming scan was clear releases
    its winner without scanning: 1.38 (12 997); the rest are scans for
    a new head or a re-rate, and wake-ups that must rescan because
    another head was within ``2 * _TIME_EPS`` of the winner.
    """
    from repro.campaign.scenarios import mechanism_compare_cell
    from repro.phynet.network import PacketNetwork
    from repro.phynet.shaper import VMShaper

    calls = {"scan": 0, "release": 0}
    earliest_head = VMShaper._earliest_head
    shaper_release = PacketNetwork._shaper_release

    def scan(self):
        calls["scan"] += 1
        return earliest_head(self)

    def release(self, vm, packet):
        calls["release"] += 1
        return shaper_release(self, vm, packet)

    monkeypatch.setattr(VMShaper, "_earliest_head", scan)
    monkeypatch.setattr(PacketNetwork, "_shaper_release", release)
    mechanism_compare_cell(mechanism="silo", workload="fig12",
                           duration=0.005)
    assert calls["release"] > 5_000
    assert calls["scan"] <= 1.5 * calls["release"]


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


def test_a_tenant_no_empty_port_can_hold_is_rejected_without_a_probe():
    """No rack, pod or cluster is walked for a tenant the bound refuses.

    10 VMs that each burst 150 KB at a 10 Gbps peak: whatever ``m <= 4``
    VMs a server takes, its ToR downlink faces the other six or more
    bursting at well above line rate, a backlog even an empty 312 KB
    port cannot hold.  One slot of every server is taken, so no domain
    is pristine and the scanning search fills every rack, every pod and
    the cluster, probing each server.  The shipped search turns every
    domain away with no ``_max_vms_on_server`` call; both reject.
    """
    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.placement import SiloPlacementManager
    from repro.topology import TreeTopology

    from seed_admission import SeedSiloPlacementManager

    def probes(manager_class):
        topology = TreeTopology(n_pods=2, racks_per_pod=4,
                                servers_per_rack=10, slots_per_server=4,
                                link_rate=units.gbps(10),
                                oversubscription=5.0,
                                buffer_bytes=312 * units.KB)
        manager = manager_class(topology)
        for server in range(topology.n_servers):
            manager.adopt(TenantRequest(n_vms=1, guarantee=None,
                                        tenant_class=TenantClass.BEST_EFFORT),
                          {server: 1})
        log = []
        inner = manager._max_vms_on_server

        def logged(request, server, want, k_estimate, scope):
            log.append((server, scope))
            return inner(request, server, want, k_estimate, scope)

        manager._max_vms_on_server = logged
        request = TenantRequest(
            n_vms=10,
            guarantee=NetworkGuarantee(bandwidth=units.mbps(100),
                                       burst=150 * units.KB,
                                       peak_rate=units.gbps(10)),
            tenant_class=TenantClass.CLASS_B)
        return manager.place(request), log

    shipped, shipped_log = probes(SiloPlacementManager)
    seed, seed_log = probes(SeedSiloPlacementManager)
    assert shipped is None and seed is None
    assert shipped_log == []
    assert {scope for _, scope in seed_log} == {"rack", "pod", "cluster"}
    assert len({server for server, _ in seed_log}) == 80


def _place_beside_a_loaded_rack(manager_class):
    """An 8-VM tenant on two 10-server racks, rack 0 loaded: its
    ``(placement, manager)``, with every ``_server_ok`` probe logged as
    ``(server, strategy)`` on ``manager.probes`` and every
    ``_max_vms_on_server`` call on ``manager.calls``.

    A 10-VM tenant with 30 KB bursts at 10 Gbps holds one slot of every
    rack-0 server, so each rack-0 ToR downlink carries nine of its
    bursts.  The new tenant also bursts 30 KB at 10 Gbps: a server taking
    ``m <= 3`` of its VMs faces at least five more of those bursts, over
    400 KB against a 312 KB buffer.  An empty downlink would hold even
    seven (210 KB), so the domain reject lets rack 0 through, and rack 1
    takes the tenant four and four.
    """
    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.topology import TreeTopology

    topology = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=10,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
    manager = manager_class(topology)

    def bursty(n_vms):
        return TenantRequest(
            n_vms=n_vms,
            guarantee=NetworkGuarantee(bandwidth=units.mbps(100),
                                       burst=30 * units.KB,
                                       peak_rate=units.gbps(10)),
            tenant_class=TenantClass.CLASS_B)

    manager.adopt(bursty(10), {server: 1 for server in range(10)})
    manager.probes, manager.calls = [], []
    strategy = [None]
    fill, max_vms, server_ok = (manager._fill, manager._max_vms_on_server,
                                manager._server_ok)

    def logged_fill(request, available, name, scope):
        strategy[0] = name
        return fill(request, available, name, scope)

    def logged_max_vms(request, server, *args):
        manager.calls.append((server, strategy[0]))
        return max_vms(request, server, *args)

    def logged_server_ok(request, server, *args):
        manager.probes.append((server, strategy[0]))
        return server_ok(request, server, *args)

    manager._fill = logged_fill
    manager._max_vms_on_server = logged_max_vms
    manager._server_ok = logged_server_ok
    return manager.place(bursty(8)), manager


def test_a_loaded_server_no_vm_fits_is_turned_away_without_a_probe():
    """Rack 0's servers cannot take a single VM of the tenant, and the
    bound on their loaded ports says so before any ``_server_ok`` probe;
    the scanning seed probes each of them, and both place the tenant on
    rack 1."""
    from repro.placement import SiloPlacementManager

    from seed_admission import SeedSiloPlacementManager

    shipped, live = _place_beside_a_loaded_rack(SiloPlacementManager)
    seed, scan = _place_beside_a_loaded_rack(SeedSiloPlacementManager)
    assert shipped.vm_servers == seed.vm_servers == [10] * 4 + [11] * 4
    assert any(server < 10 for server, _ in live.calls)
    assert [p for p in live.probes if p[0] < 10] == []
    assert len({server for server, _ in scan.probes if server < 10}) == 10


def test_a_domain_whose_greedy_fill_placed_nothing_gets_no_balanced_fill():
    """Greedy asked rack-0 servers for all they could hold and got
    nothing (until the slot budget ran out: 30 free slots for 8 VMs, 3
    lost per server, so eight servers); balanced would ask each for
    fewer, so it is not run there.  Rack 1's greedy fill succeeds, so no
    balanced call remains."""
    from repro.placement import SiloPlacementManager

    placement, manager = _place_beside_a_loaded_rack(SiloPlacementManager)
    assert placement is not None
    greedy_rack0 = [s for s, name in manager.calls
                    if name == "greedy" and s < 10]
    assert greedy_rack0 == list(range(8))
    assert [c for c in manager.calls if c[1] == "balanced"] == []


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


def test_fluid_solver_water_fills_classes_not_flows():
    """The ``fluid-maxmin`` shape (2 pods x 25 racks x 10 servers, the
    fig16a operating point) run to 10 s at seeds 5 and 6: over 2 041
    recomputes the solver re-solves 21 959 flows but water-fills only
    8 844 flow classes (same links, same demand), 2.48 flows per class.
    The per-flow solver water-filled every flow, a ratio of 1.  The
    recompute count sizes the workload: it is fixed by the simulator's
    events, whereas the flows re-solved per departure depend on the
    solver (56 176 before a departure re-solved only above its lowest
    freed rate).  Counts repeat exactly for a seed, so the margins only
    absorb a change of workload."""
    from repro import units
    from repro.core.tenant import reset_tenant_ids
    from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
    from repro.placement import LocalityPlacementManager
    from repro.topology import TreeTopology

    flows = classes = recomputes = 0
    for seed in (5, 6):
        reset_tenant_ids()
        topology = TreeTopology(n_pods=2, racks_per_pod=25,
                                servers_per_rack=10, slots_per_server=4,
                                link_rate=units.gbps(10),
                                oversubscription=5.0,
                                buffer_bytes=312 * units.KB)
        config = WorkloadConfig(
            b_flow_bytes=250 * units.MB, a_flow_bytes=5 * units.MB,
            mean_compute_time=8.0, a_delay=600 * units.MICROS,
            permutation_x=3.0, mean_vms=10, max_vms=16)
        workload = TenantWorkload.for_occupancy(config, 0.5,
                                                topology.n_slots, seed=seed)
        workload.arrival_rate *= 4.0
        sim = ClusterSim(LocalityPlacementManager(topology),
                         sharing="maxmin")
        sim.run(workload, until=10.0)
        flows += sim._solver.affected_flow_count
        classes += sim._solver.affected_class_count
        recomputes += sim._solver.recompute_count
    assert recomputes > 1_900
    assert flows / classes >= 2.3


def test_packet_window_builds_only_the_ports_its_routes_cross():
    """A packet run on the ``hybrid-8k`` tree (16 pods x 50 racks x 10
    servers, 17 632 directed ports) builds the ports its traffic
    reaches and no other: one memcached tenant spread over three pods
    for 2 ms builds the 24 fabric ports on its routes (and one
    vswitch, which is no fabric port).  The network used to build all
    17 632 before the first packet moved."""
    import random

    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.mechanisms import get_mechanism
    from repro.mechanisms.run import PacketRun, PacketTenant
    from repro.phynet.apps import MemcachedApp
    from repro.topology import TreeTopology
    from repro.workloads import EtcWorkload

    topology = TreeTopology(n_pods=16, racks_per_pod=50,
                            servers_per_rack=10, slots_per_server=4,
                            link_rate=units.gbps(10), oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
    guarantee = NetworkGuarantee(bandwidth=units.mbps(100),
                                 burst=15 * units.KB,
                                 delay=1000 * units.MICROS,
                                 peak_rate=units.gbps(1))
    rng = random.Random(7)

    def memcached(net, metrics, tenant_id, vm_ids):
        return MemcachedApp(net, metrics, tenant_id, server_vm=vm_ids[0],
                            client_vms=vm_ids[1:], workload=EtcWorkload(),
                            rng=rng)

    # Server, rack-mate, pod-mate, two other pods, and a co-located VM.
    servers = (0, 1, 10, 2000, 7999, 0)
    run = PacketRun(get_mechanism("silo"), topology, [PacketTenant(
        TenantRequest(n_vms=len(servers), guarantee=guarantee,
                      tenant_class=TenantClass.CLASS_A),
        servers, memcached)])
    run.run(until=units.msec(2))
    net = run.net
    assert run.metrics.latencies(run.tenants[0].request.tenant_id)
    routed = {port.port_id
              for src, dst in net.transports
              for port in topology.path_ports(net.vms[src].server,
                                              net.vms[dst].server)}
    assert len(topology.ports) == 17_632
    assert set(net.ports) == routed
    assert len(net.ports) < 50


def test_a_packet_costs_one_event_per_hop(monkeypatch):
    """Engine events per port enqueue on an unpaced packet cell.

    A 2 ms fig12 cell with no mechanism (drop-tail, TCP, no pacer): every
    scheduled event there is a port's next-hop arrival, a transport
    timer or an app's send.  The eager port scheduled a tx-done and then
    an arrival for every packet it started: 1.82 events per enqueue here
    (173 173 for 95 137).  The lazy one schedules only the arrival: 0.91
    (85 948 for 94 075; the packets dropped at a full port start
    nothing).
    """
    from repro.campaign.scenarios import mechanism_compare_cell
    from repro.core.engine import EventEngine
    from repro.phynet.port import OutputPort

    calls = {"schedule": 0, "schedule_at": 0, "enqueue": 0}

    def counted(owner, name):
        method = getattr(owner, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(EventEngine, "schedule")
    counted(EventEngine, "schedule_at")
    counted(OutputPort, "enqueue")
    mechanism_compare_cell(mechanism="none", workload="fig12",
                           duration=0.002)
    assert calls["enqueue"] > 10_000
    scheduled = calls["schedule"] + calls["schedule_at"]
    assert scheduled <= 1.1 * calls["enqueue"]


def test_a_hop_costs_few_python_calls(monkeypatch):
    """Python-level calls per port enqueue on an unpaced packet cell.

    The 2 ms fig12 ``none`` cell of the test above, profiled with
    ``sys.setprofile``: every Python function call counts, setup and
    the counting wrapper around ``OutputPort.enqueue`` included.  14.6
    calls per enqueue (1 369 687 for 94 075) when every enqueue called
    ``_start_due`` and ``_mark_if_needed`` whether or not they had work,
    every hop went through ``Packet.advance`` and ``Packet.next_port``,
    every segment and ACK asked the network for its route and every ACK
    computed its RTO twice.  9.9 (933 811) once a hop does each piece of
    that work once; 9.3 (876 729) once a Reno ACK stops calling the
    no-op ECN hook and an unpaced sender stops asking the network
    whether its (absent) shaper has room.
    """
    import sys

    from repro.campaign.scenarios import mechanism_compare_cell
    from repro.phynet.port import OutputPort

    calls = {"call": 0, "enqueue": 0}
    enqueue = OutputPort.enqueue

    def counted(self, packet):
        calls["enqueue"] += 1
        return enqueue(self, packet)

    def profile(frame, event, arg):
        if event == "call":
            calls["call"] += 1

    monkeypatch.setattr(OutputPort, "enqueue", counted)
    sys.setprofile(profile)
    try:
        mechanism_compare_cell(mechanism="none", workload="fig12",
                               duration=0.002)
    finally:
        sys.setprofile(None)
    assert calls["enqueue"] > 10_000
    assert calls["call"] <= 9.5 * calls["enqueue"]
