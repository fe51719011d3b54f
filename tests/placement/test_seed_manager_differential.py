"""Differential test: the shipped Silo manager against the seed oracle.

``tests/oracles/seed_admission.py`` ``SeedSiloPlacementManager`` scans
every server and every domain, rebuilds a Curve per probe and never
memoises; the shipped :class:`SiloPlacementManager` answers the same
questions from cached per-rack/per-pod totals, a binary search and
closed-form bounds.  Both are driven in lockstep through interleaved
``place`` / ``remove`` / ``cordon_server`` / ``uncordon_server`` /
``reserve_capacity`` / ``release_capacity`` on a 2-pod topology and must
make the same decision with the same VM layout at every step, and the
shipped manager's cached totals must equal a recount from ``free_slots``
(cordons withhold slots without a tenant holding them, which is where a
cache and a scan could part ways).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import Contribution, SiloPlacementManager
from repro.topology import TreeTopology

from seed_admission import SeedSiloPlacementManager


def build_topology():
    return TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


_SHAPE = build_topology()
N_SERVERS = _SHAPE.n_servers
N_PORTS = len(_SHAPE.ports)

place_step = st.tuples(
    st.just("place"),
    st.integers(min_value=1, max_value=14),                 # n_vms
    st.sampled_from([50, 200, 800, 3000]),                  # Mbps
    st.sampled_from([1.5, 15.0, 60.0]),                     # burst KB
    st.sampled_from([None, 500e-6, 1e-3, 5e-3]),            # delay
)
# Index steps pick the i-th live tenant / reservation modulo the live set.
steps = st.lists(
    st.one_of(
        place_step,
        st.tuples(st.just("remove"), st.integers(0, 30)),
        st.tuples(st.just("cordon"), st.integers(0, N_SERVERS - 1)),
        st.tuples(st.just("uncordon"), st.integers(0, N_SERVERS - 1)),
        st.tuples(st.just("reserve"), st.integers(0, N_PORTS - 1),
                  st.sampled_from([0.25, 0.5, 1.0])),
        st.tuples(st.just("release"), st.integers(0, 30)),
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
    assert manager._rack_free == [sum(free[s] for s in rack)
                                  for rack in racks]
    assert manager._pod_free == [sum(free[s] for s in pod) for pod in pods]
    assert manager._total_free == sum(free)
    assert manager._rack_touched == [sum(free[s] < full for s in rack)
                                     for rack in racks]
    assert manager._pod_touched == [sum(free[s] < full for s in pod)
                                    for pod in pods]


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


@settings(max_examples=60, deadline=None)
@given(step_list=steps)
def test_shipped_manager_matches_seed_under_cordon_and_reserve(step_list):
    live = SiloPlacementManager(build_topology())
    seed = SeedSiloPlacementManager(build_topology())
    managers = (live, seed)
    tenants = []
    reservations = []   # (port_id, key)
    for n, step in enumerate(step_list):
        op = step[0]
        if op == "place":
            # One request object for both: tenant ids auto-increment.
            request = make_request(step)
            placed = [m.place(request) for m in managers]
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
            withheld = [m.cordon_server(step[1]) for m in managers]
            assert withheld[0] == withheld[1]
        elif op == "uncordon":
            freed = [m.uncordon_server(step[1]) for m in managers]
            assert freed[0] == freed[1]
        elif op == "reserve":
            port_id = live.topology.ports[step[1]].port_id
            lost = step[2] * live.states[port_id].port.capacity
            poison = Contribution(bandwidth=lost, burst=0.0,
                                  peak_rate=lost, packet_slack=0.0)
            key = f"fault-{n}"
            for m in managers:
                m.reserve_capacity(port_id, poison, key)
            reservations.append((port_id, key))
        else:
            if reservations:
                port_id, key = reservations.pop(step[1] % len(reservations))
                for m in managers:
                    m.release_capacity(port_id, key)
        assert_same_books(live, seed)
        assert_cached_totals_match_recount(live)
