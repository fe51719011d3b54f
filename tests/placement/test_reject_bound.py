"""The port bound placement rejects on is implied by the port checks.

``PlacementManager`` turns away a rack, pod or cluster
(``_domain_rejects``, on an *empty* port) and a loaded server
(``_max_vms_on_server``, on the server's own ports) without probing
them, through ``_port_bound``: :meth:`PortState.could_admit` for Silo,
``admits_bandwidth`` for Oktopus.  Those skips change no decision only
if the bound is monotone against the check: for reachable states ``P <=
P'`` and valid contributions ``x <= x'`` (componentwise), ``P'.admits(x')``
must imply ``_port_bound(P, x)``, fault poisons included.  The properties
below drive random loads through both managers' hooks, and check that
the contributions the server reject asks about lie below every one a
probe would make; the ``@example`` rows pin the branches of ``admits``
where that is easiest to get wrong.
"""

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.placement import OktopusPlacementManager, SiloPlacementManager
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement.state import Contribution, PortState
from repro.topology import TreeTopology
from repro.topology.switch import Port, PortKind
from repro.topology.tree import SCOPES

#: (capacity, buffer) regimes: unit scale, tight Gbps, roomy Gbps.
_PORTS = [
    (1.0, 1e4),
    (units.gbps(1), 100 * units.KB),
    (units.gbps(10), 312 * units.KB),
]
#: The 10 Gbps / 312 KB port every example below is written for.
_C = units.gbps(10)
_L = 312 * units.KB
_MTU = units.MTU


def make_state(port_idx):
    capacity, buffer_bytes = _PORTS[port_idx]
    return PortState(Port(port_id=0, kind=PortKind.TOR_DOWN,
                          capacity=capacity, buffer_bytes=buffer_bytes))


@functools.lru_cache(maxsize=None)
def one_server(manager_class, port_idx):
    """A one-server manager whose ports have the regime's shape."""
    capacity, buffer_bytes = _PORTS[port_idx]
    return manager_class(TreeTopology(
        n_pods=1, racks_per_pod=1, servers_per_rack=1, slots_per_server=1,
        link_rate=capacity, buffer_bytes=buffer_bytes))


@st.composite
def contributions(draw, port_idx):
    """A valid contribution scaled to the port: bandwidths around the
    capacity, peaks equal to, within ulps of, or well above them, bursts
    and slacks around the buffer."""
    capacity, buffer_bytes = _PORTS[port_idx]
    bandwidth = draw(st.floats(0.0, 1.2)) * capacity
    peak = draw(st.one_of(
        st.just(bandwidth),
        st.floats(0.0, 1e-12).map(lambda f: bandwidth * (1.0 + f)),
        st.floats(0.0, 3.0).map(lambda f: bandwidth + f * capacity)))
    slack = draw(st.one_of(st.just(0.0),
                           st.integers(1, 300).map(lambda n: n * _MTU),
                           st.floats(0.0, 1.5).map(
                               lambda f: f * buffer_bytes)))
    burst = draw(st.one_of(st.just(slack),
                           st.floats(0.0, 4.0).map(
                               lambda f: f * buffer_bytes)))
    return Contribution(bandwidth=bandwidth, burst=burst,
                        peak_rate=max(peak, bandwidth), packet_slack=slack)


@st.composite
def loads(draw, port_idx):
    """Tenants and fault poisons (a lost fraction of the capacity held
    as bandwidth and peak), in any order."""
    capacity = _PORTS[port_idx][0]
    poison = st.floats(0.0, 1.0).map(
        lambda f: Contribution(bandwidth=f * capacity, burst=0.0,
                               peak_rate=f * capacity, packet_slack=0.0))
    return draw(st.lists(st.one_of(contributions(port_idx), poison),
                         max_size=6))


@st.composite
def cases(draw):
    port_idx = draw(st.integers(0, len(_PORTS) - 1))
    return port_idx, draw(loads(port_idx)), draw(contributions(port_idx))


def loaded(port_idx, load):
    state = make_state(port_idx)
    for contribution in load:
        state.add(contribution)
    return state


def assert_admits_implies_bound(port_idx, load, extra):
    state = loaded(port_idx, load)
    silo = one_server(SiloPlacementManager, port_idx)
    oktopus = one_server(OktopusPlacementManager, port_idx)
    if state.admits(extra):
        assert silo._port_bound(silo._empty_tor_down, extra)
    if state.admits_bandwidth(extra):
        assert oktopus._port_bound(oktopus._empty_tor_down, extra)


def poison(fraction):
    lost = fraction * _C
    return Contribution(bandwidth=lost, burst=0.0, peak_rate=lost,
                        packet_slack=0.0)


# peak == bandwidth: an empty port would check this burst (2 buffers) and
# reject, but the load puts the summed peak within the isclose band of
# the summed bandwidth, where admits checks only the slack.
@example(case=(2, [Contribution(0.4 * _C, 0.0, 0.4 * _C + 1e-4, 0.0)],
               Contribution(0.5 * _C, 2 * _L, 0.5 * _C, _MTU)))
# The contribution's own peak within the isclose band, on an empty port.
@example(case=(2, [], Contribution(0.5 * _C, 2 * _L, 0.5 * _C + 1e-4, _MTU)))
# Bandwidth within 1e-12 of capacity behind a poison, peak far above.
@example(case=(2, [poison(0.5)],
               Contribution(math.nextafter(0.5 * _C, 0.0), 0.5 * _L,
                            3 * _C, 4 * _MTU)))
# burst <= slack + _EPS: the burst one ulp above the slack.
@example(case=(2, [], Contribution(0.1 * _C, math.nextafter(3 * _MTU, 1e9),
                                   3 * _C, 3 * _MTU)))
# crossover <= _EPS: the burst 1e-4 bytes above the slack, peak 3 C.
@example(case=(2, [], Contribution(0.1 * _C, 3 * _MTU + 1e-4, 3 * _C,
                                   3 * _MTU)))
# A two-piece backlog that admits computes a hair below the limit and the
# bound's convex form a hair above: only the margin keeps them apart.
@example(case=(2, [], Contribution(953362954.0543869, 1057450.3295048617,
                                   1344906303.9883316, 73500.0)))
@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_admits_implies_the_bound(case):
    assert_admits_implies_bound(*case)


@pytest.mark.parametrize("extra", [
    # bandwidth above capacity (peak equal, so no backlog clause)
    Contribution(1.5 * _C, _MTU, 1.5 * _C, _MTU),
    # slack beyond the buffer, peak equal to bandwidth
    Contribution(0.1 * _C, 2 * _L, 0.1 * _C, 1.5 * _L),
    # a two-piece backlog of about twice the buffer
    Contribution(0.1 * _C, 3 * _L, 3 * _C, _MTU),
], ids=["bandwidth", "slack", "backlog"])
def test_each_clause_rejects_what_no_port_can_hold(extra):
    """Each clause of the bound turns away a contribution that even an
    empty port rejects; dropping a clause fails its row."""
    empty = make_state(2)
    assert not empty.admits(extra)
    assert not empty.could_admit(extra)


@st.composite
def grown(draw, contribution, port_idx):
    """A valid contribution componentwise ``>=`` ``contribution``: each
    term unchanged, an ulp-scale step up or a step of up to one capacity
    or buffer."""
    capacity, buffer_bytes = _PORTS[port_idx]
    step = st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 1.0))
    more_bandwidth = draw(step) * capacity
    bandwidth = contribution.bandwidth + more_bandwidth
    peak = (contribution.peak_rate + more_bandwidth
            + draw(step) * capacity)
    return Contribution(
        bandwidth=bandwidth,
        burst=contribution.burst + draw(step) * buffer_bytes,
        peak_rate=max(peak, bandwidth),
        packet_slack=contribution.packet_slack + draw(step) * buffer_bytes)


@st.composite
def ordered_cases(draw):
    """``(port, P's load, P''s load, x, x')`` with ``P <= P'`` and ``x <=
    x'``: ``P'`` grows every contribution of ``P`` and then takes more
    tenants or poisons."""
    port_idx = draw(st.integers(0, len(_PORTS) - 1))
    load = draw(loads(port_idx))
    larger = [draw(grown(c, port_idx)) for c in load] + draw(loads(port_idx))
    extra = draw(contributions(port_idx))
    return port_idx, load, larger, extra, draw(grown(extra, port_idx))


_TERMS = ("bandwidth", "burst", "peak_rate", "packet_slack")


def assert_monotone_bound(port_idx, load, larger, extra, larger_extra):
    state, more = loaded(port_idx, load), loaded(port_idx, larger)
    assert all(getattr(state, f) <= getattr(more, f) for f in _TERMS)
    silo = one_server(SiloPlacementManager, port_idx)
    oktopus = one_server(OktopusPlacementManager, port_idx)
    if more.admits(larger_extra):
        assert silo._port_bound(state, extra)
    if more.admits_bandwidth(larger_extra):
        assert oktopus._port_bound(state, extra)


# The empty-port property's corners, first with the smaller state empty ...
@example(case=(2, [], [Contribution(0.4 * _C, 0.0, 0.4 * _C + 1e-4, 0.0)],
               Contribution(0.5 * _C, 2 * _L, 0.5 * _C, _MTU),
               Contribution(0.5 * _C, 2 * _L, 0.5 * _C, _MTU)))
@example(case=(2, [], [poison(0.5)],
               Contribution(math.nextafter(0.5 * _C, 0.0), 0.5 * _L,
                            3 * _C, 4 * _MTU),
               Contribution(math.nextafter(0.5 * _C, 0.0), 0.5 * _L,
                            3 * _C, 4 * _MTU)))
@example(case=(2, [], [],
               Contribution(953362954.0543869, 1057450.3295048617,
                            1344906303.9883316, 73500.0),
               Contribution(953362954.0543869, 1057450.3295048617,
                            1344906303.9883316, 73500.0)))
# ... then on loaded states.  The load puts the summed peak within the
# isclose band of the summed bandwidth, where admits checks only the
# slack: a burst check on the totals would reject what admits takes.
@example(case=(2, [Contribution(0.4 * _C, 0.0, 0.4 * _C + 1e-4, 0.0)],
               [Contribution(0.4 * _C, 0.0, 0.4 * _C + 1e-4, 0.0)],
               Contribution(0.5 * _C, 2 * _L, 0.5 * _C, _MTU),
               Contribution(0.5 * _C, 2 * _L, 0.5 * _C, _MTU)))
# Summed bandwidth one ulp below capacity behind a poison, peak far above.
@example(case=(2, [poison(0.5)], [poison(0.5)],
               Contribution(math.nextafter(0.5 * _C, 0.0), 0.5 * _L,
                            3 * _C, 4 * _MTU),
               Contribution(math.nextafter(0.5 * _C, 0.0), 0.5 * _L,
                            3 * _C, 4 * _MTU)))
# The summed burst one ulp above the summed slack (burst <= slack + _EPS).
@example(case=(2, [Contribution(0.05 * _C, math.nextafter(3 * _MTU, 1e9),
                                1.5 * _C, 3 * _MTU)],
               [Contribution(0.05 * _C, math.nextafter(3 * _MTU, 1e9),
                             1.5 * _C, 3 * _MTU)],
               Contribution(0.05 * _C, _MTU, 1.5 * _C, _MTU),
               Contribution(0.05 * _C, _MTU, 1.5 * _C, _MTU)))
# The margin corner above, split between the load and the contribution:
# the same totals, so only the margin keeps the bound from rejecting.
@example(case=(2, [Contribution(453362954.0543869, 557450.3295048617,
                                844906303.9883316, 36750.0)],
               [Contribution(453362954.0543869, 557450.3295048617,
                             844906303.9883316, 36750.0)],
               Contribution(500000000.0, 500000.0, 500000000.0, 36750.0),
               Contribution(500000000.0, 500000.0, 500000000.0, 36750.0)))
@settings(max_examples=400, deadline=None)
@given(case=ordered_cases())
def test_admits_on_a_larger_load_implies_the_bound_on_a_smaller(case):
    assert_monotone_bound(*case)


@pytest.mark.parametrize("load, extra", [
    # the load's bandwidth leaves less than the contribution's
    ([poison(0.8)], Contribution(0.3 * _C, _MTU, 0.3 * _C, _MTU)),
    # the load's slack plus the contribution's overflows the buffer
    ([Contribution(0.1 * _C, 0.8 * _L, 0.1 * _C, 0.8 * _L)],
     Contribution(0.1 * _C, 0.3 * _L, 0.1 * _C, 0.3 * _L)),
    # the load's burst, drained at well above capacity, fills the buffer
    ([Contribution(0.1 * _C, 1.5 * _L, 2 * _C, _MTU)],
     Contribution(0.1 * _C, 0.6 * _L, 2 * _C, _MTU)),
], ids=["bandwidth", "slack", "backlog"])
def test_each_clause_reads_the_port_totals(load, extra):
    """A contribution an empty port holds is turned away by the clause
    whose total the load has used up, as ``admits`` turns it away."""
    state = loaded(2, load)
    assert make_state(2).could_admit(extra)
    assert not state.admits(extra)
    assert not state.could_admit(extra)


@functools.lru_cache(maxsize=None)
def floor_manager(hose_tightening):
    return SiloPlacementManager(
        TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=3,
                     slots_per_server=4, link_rate=_C, oversubscription=5.0,
                     buffer_bytes=_L),
        hose_tightening=hose_tightening)


@st.composite
def floor_cases(draw):
    n_vms = draw(st.integers(2, 60))
    bandwidth = units.mbps(draw(st.floats(1.0, 12000.0)))
    peak = draw(st.one_of(st.none(), st.floats(1.0, 20.0).map(
        lambda f: bandwidth * f)))
    guarantee = NetworkGuarantee(
        bandwidth=bandwidth, burst=draw(st.floats(0.0, 4 * _L)),
        peak_rate=peak)
    return (draw(st.booleans()), n_vms, guarantee,
            draw(st.integers(1, n_vms - 1)), draw(st.integers(1, 64)),
            draw(st.sampled_from(SCOPES)))


def assert_le(low, high):
    assert all(getattr(low, f) <= getattr(high, f) for f in _TERMS), (
        low, high)


@settings(max_examples=200, deadline=None)
@given(case=floor_cases())
def test_server_reject_contributions_lie_below_every_probe(case):
    """``_max_vms_on_server`` asks the bound about the NIC-up ``(1, 1)``
    contribution and ``_tor_down_floor(want, k)``; every probe of ``m``
    in ``1..want`` makes the NIC-up ``(m, 1)`` and ToR-down ``(N - m, k)``
    contributions, which must be componentwise at least those, with the
    hose tightening on and off."""
    hose_tightening, n_vms, guarantee, want, k, scope = case
    manager = floor_manager(hose_tightening)
    manager._clear_request_memos()
    request = TenantRequest(n_vms=n_vms, guarantee=guarantee,
                            tenant_class=TenantClass.CLASS_B)
    floor = manager._tor_down_floor(request, want, k, scope)
    least_up = manager._contribution(request, 1, 1, PortKind.NIC_UP, scope)
    for m in range(1, want + 1):
        assert_le(floor, manager._contribution(request, n_vms - m, k,
                                               PortKind.TOR_DOWN, scope))
        assert_le(least_up, manager._contribution(request, m, 1,
                                                  PortKind.NIC_UP, scope))
    # The floor is attained at m = want wherever the hose term is one VM.
    if hose_tightening and want == n_vms - 1:
        assert floor == manager._contribution(request, 1, k,
                                              PortKind.TOR_DOWN, scope)
