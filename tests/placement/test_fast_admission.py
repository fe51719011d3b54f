"""Closed-form admission bounds must match the Curve-built oracle.

``PortState.admits``/``backlog``/``queue_bound`` use the closed-form
dual-rate expressions from :mod:`repro.netcalc.fastbounds`; the
``*_reference`` functions of ``tests/oracles/seed_admission.py`` rebuild
the conservative aggregate :class:`~repro.netcalc.curves.Curve` per probe,
exactly as the seed did.  These property tests drive both over randomized
port states and probes -- at unit scale and at Gbps/byte scale, where
epsilon bugs hide -- and demand identical accept/reject decisions and
matching bounds.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import SiloPlacementManager
from repro.placement.state import Contribution, PortState
from repro.topology import TreeTopology
from repro.topology.switch import Port, PortKind

from seed_admission import (SeedSiloPlacementManager, admits_reference,
                            backlog_reference, queue_bound_reference)

#: (capacity, buffer) regimes: toy unit scale, tight Gbps, roomy Gbps.
_PORTS = [
    (1.0, 10.0),
    (units.gbps(1), 100 * units.KB),
    (units.gbps(10), 312 * units.KB),
]


def _make_state(port_idx: int) -> PortState:
    capacity, buffer_bytes = _PORTS[port_idx]
    return PortState(Port(port_id=0, kind=PortKind.TOR_DOWN,
                          capacity=capacity, buffer_bytes=buffer_bytes))


def _contribution(capacity: float, bw_frac: float, burst_frac: float,
                  peak_factor: float, slack_frac: float) -> Contribution:
    bandwidth = bw_frac * capacity
    return Contribution(
        bandwidth=bandwidth,
        burst=burst_frac * capacity * 0.01,
        peak_rate=bandwidth * peak_factor,
        packet_slack=slack_frac * 3 * units.MTU)


contribution_params = st.tuples(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=50.0)),
    st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(port_idx=st.integers(min_value=0, max_value=len(_PORTS) - 1),
       base=st.lists(contribution_params, max_size=5),
       probe=contribution_params)
def test_closed_form_matches_curve_oracle(port_idx, base, probe):
    state = _make_state(port_idx)
    capacity = _PORTS[port_idx][0]
    for params in base:
        state.add(_contribution(capacity, *params))
    extra = _contribution(capacity, *probe)

    assert state.admits(extra) == admits_reference(state, extra)
    assert state.backlog(extra) == pytest.approx(
        backlog_reference(state, extra), rel=1e-9, abs=1e-9)
    assert state.queue_bound(extra) == pytest.approx(
        queue_bound_reference(state, extra), rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(port_idx=st.integers(min_value=0, max_value=len(_PORTS) - 1),
       base=st.lists(contribution_params, max_size=5))
def test_standing_bounds_match_oracle(port_idx, base):
    """Bounds with no probe (extra=None) agree too."""
    state = _make_state(port_idx)
    capacity = _PORTS[port_idx][0]
    for params in base:
        state.add(_contribution(capacity, *params))

    assert state.backlog() == pytest.approx(
        backlog_reference(state), rel=1e-9, abs=1e-9)
    qb = state.queue_bound()
    qb_ref = queue_bound_reference(state)
    if math.isinf(qb_ref):
        assert math.isinf(qb)
    else:
        assert qb == pytest.approx(qb_ref, rel=1e-9, abs=1e-12)


def _churn_campaign(manager, n_requests: int, seed: int):
    """Mixed class-A/class-B arrivals with 15% removals; returns the
    accept/reject sequence and the admitted VM layouts."""
    rng = random.Random(seed)
    decisions, layouts, placed = [], [], []
    for _ in range(n_requests):
        n_vms = rng.randint(2, 24)
        if rng.random() < 0.4:
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([25, 50, 100])),
                burst=15e3, delay=1e-3, peak_rate=units.gbps(1))
            klass = TenantClass.CLASS_A
        else:
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([100, 200, 400])),
                burst=rng.choice([15e3, 60e3, 150e3]),
                peak_rate=units.gbps(1))
            klass = TenantClass.CLASS_B
        request = TenantRequest(n_vms=n_vms, guarantee=guarantee,
                                tenant_class=klass)
        placement = manager.place(request)
        decisions.append(placement is not None)
        if placement is not None:
            layouts.append(tuple(placement.vm_servers))
            placed.append(request.tenant_id)
        if placed and rng.random() < 0.15:
            manager.remove(placed.pop(rng.randrange(len(placed))))
    return decisions, layouts


def test_fast_and_reference_managers_agree_on_campaign():
    """End-to-end: identical admission decisions and VM layouts for a
    churning campaign, shipped manager vs the seed oracle."""
    def topology():
        return TreeTopology(n_pods=1, racks_per_pod=4, servers_per_rack=10,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0)

    fast_dec, fast_lay = _churn_campaign(
        SiloPlacementManager(topology()), 120, seed=3)
    ref_dec, ref_lay = _churn_campaign(
        SeedSiloPlacementManager(topology()), 120, seed=3)
    assert any(fast_dec) and not all(fast_dec)
    assert fast_dec == ref_dec
    assert fast_lay == ref_lay
