"""The domain reject's port bound is implied by the port checks.

``PlacementManager._domain_rejects`` skips a rack, pod or cluster when,
for every VM count a fill could probe, :meth:`PortState.could_admit`
(Silo) or ``admits_bandwidth`` (Oktopus) on an *empty* port turns one of
the two server-port contributions away.  That skip changes no decision
only if the bound rejects nothing some reachable port state admits:
``state.admits(x)`` must imply the manager's ``_port_bound`` on its empty
state for every state built by adding valid contributions, fault poisons
included.  The property below drives random loads through both managers'
hooks; the ``@example`` rows pin the branches of ``admits`` where that is
easiest to get wrong.
"""

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.placement import OktopusPlacementManager, SiloPlacementManager
from repro.placement.state import Contribution, PortState
from repro.topology import TreeTopology
from repro.topology.switch import Port, PortKind

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


def assert_admits_implies_bound(port_idx, load, extra):
    state = make_state(port_idx)
    for contribution in load:
        state.add(contribution)
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
