"""Differential test: the shipped Silo manager against the seed oracle.

``tests/oracles/seed_admission.py`` ``SeedSiloPlacementManager`` scans
every server and every domain, rebuilds a Curve per probe and never
memoises; the shipped :class:`SiloPlacementManager` answers the same
questions from free-slot indexes, maintained pristine flags, a binary
search and closed-form bounds.  Both are driven in lockstep through
interleaved ``place`` / ``remove`` / ``cordon_server`` /
``uncordon_server`` / ``reserve_capacity`` / ``release_capacity`` /
``adopt`` / snapshot-restore steps and must make the same decision with
the same VM layout at every step, the shipped search's per-server probes
``(server, want, k, scope)`` must be a subsequence of the oracle's (the
indexes and the ``_fill`` slot budget may only *remove* probes, never add
or reorder one), and every structure the shipped manager
maintains beside the books must equal a recount from the books (cordons
withhold slots without a tenant holding them and poisons fill ports
without a tenant crossing them, which is where an index and a scan could
part ways).  Two shapes: 2 pods x 2 racks x 3 servers x 4 slots, and a
wider 3 x 4 x 2 x 2 one whose tenants (1..14 VMs) fall on both sides of
``slots_per_server``, of a rack and of a pod, so queries cross the
indexes' internal node boundaries.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import Contribution, SiloPlacementManager
from repro.service.snapshot import dump_manager, restore_manager
from repro.topology import TreeTopology

from seed_admission import SeedSiloPlacementManager

#: Examples per shape: 60 in tier-1; CI's drift hunt asks for more (and
#: passes ``--hypothesis-seed=random``).
EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "60"))


def build_topology(shape):
    """``shape`` is (pods, racks per pod, servers per rack, slots)."""
    pods, racks_per_pod, servers_per_rack, slots = shape
    return TreeTopology(n_pods=pods, racks_per_pod=racks_per_pod,
                        servers_per_rack=servers_per_rack,
                        slots_per_server=slots, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


place_step = st.tuples(
    st.just("place"),
    st.integers(min_value=1, max_value=14),                 # n_vms
    st.sampled_from([50, 200, 800, 3000]),                  # Mbps
    st.sampled_from([1.5, 15.0, 60.0]),                     # burst KB
    st.sampled_from([None, 500e-6, 1e-3, 5e-3]),            # delay
)
# Index steps pick the i-th live tenant / reservation / server / port
# modulo what the shape under test has.
steps = st.lists(
    st.one_of(
        place_step,
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("cordon"), st.integers(0, 30)),
        st.tuples(st.just("uncordon"), st.integers(0, 30)),
        st.tuples(st.just("reserve"), st.integers(0, 100),
                  st.sampled_from([0.25, 0.5, 1.0])),
        st.tuples(st.just("release"), st.integers(0, 30)),
        st.tuples(st.just("readopt"), st.integers(0, 30)),
        st.tuples(st.just("restore")),
    ),
    min_size=1, max_size=40)


def make_request(step):
    _, n_vms, mbps, burst_kb, delay = step
    peak = units.gbps(10) if delay is not None else None
    return TenantRequest(
        n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(mbps),
                                   burst=burst_kb * units.KB,
                                   delay=delay, peak_rate=peak),
        tenant_class=(TenantClass.CLASS_A if delay is not None
                      else TenantClass.CLASS_B))


def assert_cached_totals_match_recount(manager):
    topo = manager.topology
    full = topo.slots_per_server
    free = manager.free_slots
    racks = [list(topo.servers_in_rack(r)) for r in range(topo.n_racks)]
    pods = [list(topo.servers_in_pod(p)) for p in range(topo.n_pods)]
    rack_free = [sum(free[s] for s in rack) for rack in racks]
    assert manager._server_free.values() == free
    assert manager._rack_free.values() == rack_free
    # The ordered queries walk the trees' inner maxima, not the leaves.
    for index, counts in ((manager._server_free, free),
                          (manager._rack_free, rack_free)):
        for need in range(1, max(counts) + 2):
            assert list(index.at_least(need)) == [
                i for i, count in enumerate(counts) if count >= need]
    assert manager._pod_free == [sum(free[s] for s in pod) for pod in pods]
    assert manager._total_free == sum(free)
    assert manager._rack_touched == [sum(free[s] < full for s in rack)
                                     for rack in racks]
    assert manager._pod_touched == [sum(free[s] < full for s in pod)
                                    for pod in pods]
    assert manager._pristine == [
        free[s] == full
        and manager.states[topo.nic_up(s).port_id].is_empty
        and manager.states[topo.tor_down(s).port_id].is_empty
        for s in range(topo.n_servers)]
    assert [sorted(tenants) for tenants in manager._server_tenants] == [
        sorted(tid for tid, placement in manager.placements.items()
               if s in placement.vms_per_server())
        for s in range(topo.n_servers)]


def assert_same_books(live, seed):
    assert live.free_slots == seed.free_slots
    assert live.cordoned_servers == seed.cordoned_servers
    assert ({t: p.vm_servers for t, p in live.placements.items()}
            == {t: p.vm_servers for t, p in seed.placements.items()})
    for port_id, state in live.states.items():
        other = seed.states[port_id]
        assert ((state.bandwidth, state.burst, state.peak_rate,
                 state.packet_slack)
                == (other.bandwidth, other.burst, other.peak_rate,
                    other.packet_slack))


@settings(max_examples=EXAMPLES, deadline=None)
@given(step_list=steps)
def test_shipped_manager_matches_seed_under_cordon_and_reserve(step_list):
    run_in_lockstep((2, 2, 3, 4), step_list)


@settings(max_examples=EXAMPLES, deadline=None)
@given(step_list=steps)
def test_shipped_manager_matches_seed_across_index_boundaries(step_list):
    run_in_lockstep((3, 4, 2, 2), step_list)


@settings(max_examples=EXAMPLES, deadline=None)
@given(step_list=steps)
def test_shipped_manager_matches_seed_with_two_fault_domains(step_list):
    """``min_fault_domains=2`` caps ``want`` at half the tenant, so a
    fill leaves free slots behind on every server it visits: the cap and
    the slot budget shrink ``slack`` together."""
    run_in_lockstep((2, 2, 3, 4), step_list, min_fault_domains=2)


def test_balanced_fill_succeeds_where_greedy_fails_in_the_same_rack():
    """9 VMs with a 100 KB burst into a pristine 3 x 4-slot rack: greedy
    packs 4 + 4 and leaves one VM for the last server, whose ToR
    downlink would then face the burst of the other eight; 3 + 3 + 3
    keeps every downlink at six senders and is admitted.  The second
    strategy is what places this tenant, on both managers."""
    step = ("place", 9, 50, 100.0, 1e-3)
    live = SiloPlacementManager(build_topology((2, 2, 3, 4)))
    request = make_request(step)
    rack = [0, 1, 2]
    assert live._fill(request, rack, "greedy", "rack") is None
    assert live._fill(request, rack, "balanced", "rack") == {
        0: 3, 1: 3, 2: 3}
    assert live.place(request).vm_servers == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    run_in_lockstep((2, 2, 3, 4), [step, step, step])


def record_server_probes(manager):
    """Log every ``_max_vms_on_server`` call of ``manager`` as
    ``(server, want, k_estimate, scope)``; returns the log.

    Counted here rather than at ``_port_ok``: below this call the
    shipped manager binary-searches where the oracle scans downwards, so
    port-check counts differ for a reason the fill loop does not own.
    """
    log = []
    inner = manager._max_vms_on_server

    def logged(request, server, want, k_estimate, scope):
        log.append((server, want, k_estimate, scope))
        return inner(request, server, want, k_estimate, scope)

    manager._max_vms_on_server = logged
    return log


def is_subsequence(short, long):
    remaining = iter(long)
    return all(item in remaining for item in short)


def run_in_lockstep(shape, step_list, min_fault_domains=1):
    live = SiloPlacementManager(build_topology(shape),
                                min_fault_domains=min_fault_domains)
    seed = SeedSiloPlacementManager(build_topology(shape),
                                    min_fault_domains=min_fault_domains)
    logs = [record_server_probes(live), record_server_probes(seed)]
    managers = [live, seed]
    n_servers = live.topology.n_servers
    n_ports = len(live.topology.ports)
    tenants = []
    reservations = []   # (port_id, key)
    for n, step in enumerate(step_list):
        op = step[0]
        if op == "place":
            # One request object for both: tenant ids auto-increment.
            request = make_request(step)
            for log in logs:
                del log[:]
            placed = [m.place(request) for m in managers]
            assert is_subsequence(*logs), logs
            assert (placed[0] is None) == (placed[1] is None)
            if placed[0] is not None:
                assert placed[0].vm_servers == placed[1].vm_servers
                tenants.append(request.tenant_id)
        elif op == "remove":
            if tenants:
                tenant_id = tenants.pop(step[1] % len(tenants))
                for m in managers:
                    m.remove(tenant_id)
        elif op == "cordon":
            withheld = [m.cordon_server(step[1] % n_servers)
                        for m in managers]
            assert withheld[0] == withheld[1]
        elif op == "uncordon":
            freed = [m.uncordon_server(step[1] % n_servers)
                     for m in managers]
            assert freed[0] == freed[1]
        elif op == "reserve":
            port_id = live.topology.ports[step[1] % n_ports].port_id
            lost = step[2] * live.states[port_id].port.capacity
            poison = Contribution(bandwidth=lost, burst=0.0,
                                  peak_rate=lost, packet_slack=0.0)
            key = f"fault-{n}"
            for m in managers:
                m.reserve_capacity(port_id, poison, key)
            reservations.append((port_id, key))
        elif op == "release":
            if reservations:
                port_id, key = reservations.pop(step[1] % len(reservations))
                for m in managers:
                    m.release_capacity(port_id, key)
        elif op == "readopt":
            # The crash-recovery redo path: re-commit a known assignment
            # without a search (cordoned servers give no slots back, so
            # only tenants clear of them can be re-adopted).
            if tenants:
                tenant_id = tenants[step[1] % len(tenants)]
                placement = live.placements[tenant_id]
                assignment = placement.vms_per_server()
                if not set(assignment) & set(live.cordoned_servers):
                    for m in managers:
                        m.remove(tenant_id)
                        m.adopt(placement.request, assignment)
        else:
            restored = SiloPlacementManager(
                build_topology(shape), min_fault_domains=min_fault_domains)
            restore_manager(restored, dump_manager(live))
            managers[0] = live = restored
            logs[0] = record_server_probes(live)
        assert_same_books(live, seed)
        assert_cached_totals_match_recount(live)
