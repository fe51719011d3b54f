"""Max-min fairness: axioms and edge cases."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxmin import max_min_fair

from seed_maxmin import max_min_fair_reference


class TestBasics:
    def test_single_flow_gets_link(self):
        rates = max_min_fair({"f": (("l",), math.inf)}, {"l": 10.0})
        assert rates["f"] == pytest.approx(10.0)

    def test_equal_split(self):
        flows = {f"f{i}": (("l",), math.inf) for i in range(4)}
        rates = max_min_fair(flows, {"l": 10.0})
        for rate in rates.values():
            assert rate == pytest.approx(2.5)

    def test_demand_capped_flow_releases_share(self):
        flows = {"small": (("l",), 1.0), "big": (("l",), math.inf)}
        rates = max_min_fair(flows, {"l": 10.0})
        assert rates["small"] == pytest.approx(1.0)
        assert rates["big"] == pytest.approx(9.0)

    def test_two_link_bottleneck(self):
        # f1 crosses both links; f2 only the second.
        flows = {"f1": (("a", "b"), math.inf), "f2": (("b",), math.inf)}
        rates = max_min_fair(flows, {"a": 4.0, "b": 10.0})
        assert rates["f1"] == pytest.approx(4.0)
        assert rates["f2"] == pytest.approx(6.0)

    def test_linkless_flow_gets_demand(self):
        rates = max_min_fair({"f": ((), 7.0)}, {})
        assert rates["f"] == 7.0

    def test_linkless_elastic_rejected(self):
        with pytest.raises(ValueError):
            max_min_fair({"f": ((), math.inf)}, {})

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            max_min_fair({"f": (("ghost",), 1.0)}, {})

    def test_zero_demand(self):
        rates = max_min_fair({"f": (("l",), 0.0)}, {"l": 10.0})
        assert rates["f"] == 0.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            max_min_fair({"f": (("l",), -1.0)}, {"l": 10.0})


class TestSaturationEpsilon:
    """The saturation test must use a *relative* epsilon.

    The seed flagged a link as saturated when its residual room fell
    below an absolute 1e-9.  At byte-scale capacities (5e8 bytes/s and
    up) float accumulation leaves ~1e-7 of residue on a fully allocated
    link, so saturation was never detected, no flow froze, and the
    defensive freeze-everything fallback pinned flows on *unrelated*
    links below their fair share.
    """

    # Minimized from a randomized fast-vs-reference divergence: "capped"
    # saturates l1 exactly at its demand; "elastic" must then grow on l4
    # until l4 saturates, not stay pinned at the l1 water level.
    GBPS_FLOWS = {
        "capped": (("l1", "l4"), 1.25e8),
        "elastic": (("l1",), math.inf),
        "other": (("l4",), 3.96e7),
    }
    GBPS_CAPS = {"l1": 5e8, "l4": 5e8}

    def test_gbps_scale_saturation_regression(self):
        rates = max_min_fair(self.GBPS_FLOWS, self.GBPS_CAPS)
        assert rates["capped"] == pytest.approx(1.25e8)
        assert rates["other"] == pytest.approx(3.96e7)
        # l1 has 5e8 - 1.25e8 left for the elastic flow alone.
        assert rates["elastic"] == pytest.approx(3.75e8)

    def test_gbps_scale_reference_agrees(self):
        fast = max_min_fair(self.GBPS_FLOWS, self.GBPS_CAPS)
        ref = max_min_fair_reference(self.GBPS_FLOWS, self.GBPS_CAPS)
        for flow_id in fast:
            assert fast[flow_id] == pytest.approx(ref[flow_id], rel=1e-6)

    def test_unit_scale_saturation(self):
        # The same shape at unit scale, where the absolute epsilon
        # happened to work -- the relative epsilon must not regress it.
        flows = {"capped": (("l1", "l4"), 0.125),
                 "elastic": (("l1",), math.inf),
                 "other": (("l4",), 0.0396)}
        caps = {"l1": 0.5, "l4": 0.5}
        for solver in (max_min_fair, max_min_fair_reference):
            rates = solver(flows, caps)
            assert rates["capped"] == pytest.approx(0.125)
            assert rates["elastic"] == pytest.approx(0.375)
            assert rates["other"] == pytest.approx(0.0396)


links = st.sampled_from(["a", "b", "c", "d"])
flow_defs = st.lists(
    st.tuples(st.sets(links, min_size=1, max_size=3),
              st.one_of(st.just(math.inf),
                        st.floats(min_value=0.1, max_value=100.0))),
    min_size=1, max_size=10)


@settings(max_examples=100, deadline=None)
@given(flow_defs)
def test_feasibility_and_demand_respect(defs):
    flows = {i: (tuple(links_), demand)
             for i, (links_, demand) in enumerate(defs)}
    capacities = {l: 10.0 for l in "abcd"}
    rates = max_min_fair(flows, capacities)
    # No link over capacity.
    for link in capacities:
        load = sum(rates[i] for i, (ls, _) in flows.items() if link in ls)
        assert load <= capacities[link] + 1e-6
    # No flow above demand; none negative.
    for i, (_, demand) in flows.items():
        assert -1e-9 <= rates[i] <= demand + 1e-6


@settings(max_examples=50, deadline=None)
@given(flow_defs)
def test_maxmin_bottleneck_condition(defs):
    """Every flow below its demand must cross a saturated link where it
    has a maximal share -- the defining property of max-min fairness."""
    flows = {i: (tuple(links_), demand)
             for i, (links_, demand) in enumerate(defs)}
    capacities = {l: 10.0 for l in "abcd"}
    rates = max_min_fair(flows, capacities)
    loads = {l: sum(rates[i] for i, (ls, _) in flows.items() if l in ls)
             for l in capacities}
    for i, (ls, demand) in flows.items():
        if rates[i] >= demand - 1e-6:
            continue
        bottlenecked = False
        for link in ls:
            if loads[link] >= capacities[link] - 1e-5:
                max_share = max(rates[j] for j, (ls2, _) in flows.items()
                                if link in ls2)
                if rates[i] >= max_share - 1e-5:
                    bottlenecked = True
                    break
        assert bottlenecked, f"flow {i} is rate-limited by nothing"


@settings(max_examples=100, deadline=None)
@given(flow_defs, st.sampled_from([1.0, 1e3, 5e8, 1.25e9]))
def test_water_level_matches_reference(defs, scale):
    """The water-level solver and the textbook rounds agree at every
    magnitude (demands scale with the link capacities)."""
    flows = {i: (tuple(links_),
                 demand * scale if math.isfinite(demand) else demand)
             for i, (links_, demand) in enumerate(defs)}
    capacities = {l: 10.0 * scale for l in "abcd"}
    fast = max_min_fair(flows, capacities)
    ref = max_min_fair_reference(flows, capacities)
    for i in flows:
        denom = max(abs(fast[i]), abs(ref[i]), 1e-12)
        assert abs(fast[i] - ref[i]) / denom <= 1e-6
