"""Incremental max-min must track the from-scratch solvers exactly.

:class:`repro.maxmin.IncrementalMaxMin` re-waterfills only the connected
component of the flow-link bipartite graph touched by an arrival,
departure, or capacity change.  These tests drive it through randomized
add/remove/capacity sequences (hypothesis) and the Gbps-scale saturation
regression shapes, asserting after every event that the persistent
allocation matches ``max_min_fair`` (tight) and the seed oracle's
``max_min_fair_reference`` (the existing 1e-6 relative tolerance) over
the full current flow set.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxmin import IncrementalMaxMin, max_min_fair

from seed_maxmin import max_min_fair_reference


def _assert_matches(inc, flows, capacities):
    got = inc.rates()
    assert set(got) == set(flows)
    fast = max_min_fair(flows, capacities)
    ref = max_min_fair_reference(flows, capacities)
    for fid in flows:
        denom = max(abs(got[fid]), abs(fast[fid]), 1e-12)
        assert abs(got[fid] - fast[fid]) / denom <= 1e-9, \
            f"flow {fid}: incremental {got[fid]} vs fast {fast[fid]}"
        denom = max(abs(got[fid]), abs(ref[fid]), 1e-12)
        assert abs(got[fid] - ref[fid]) / denom <= 1e-6, \
            f"flow {fid}: incremental {got[fid]} vs reference {ref[fid]}"


class TestBasics:
    def test_single_flow(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f", ("l",), math.inf)
        assert inc.recompute() == {"f": 10.0}
        assert inc.rates() == {"f": 10.0}

    def test_arrival_changes_only_shared_component(self):
        inc = IncrementalMaxMin({"a": 10.0, "b": 10.0})
        inc.add_flow("f1", ("a",), math.inf)
        inc.add_flow("f2", ("b",), math.inf)
        inc.recompute()
        inc.add_flow("f3", ("a",), math.inf)
        changed = inc.recompute()
        # f2 lives on a disjoint link: its 10.0 must not be re-reported.
        assert set(changed) == {"f1", "f3"}
        assert changed["f1"] == pytest.approx(5.0)
        assert inc.rates()["f2"] == pytest.approx(10.0)

    def test_departure_restores_share(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f1", ("l",), math.inf)
        inc.add_flow("f2", ("l",), math.inf)
        inc.recompute()
        inc.remove_flow("f2")
        changed = inc.recompute()
        assert changed == {"f1": pytest.approx(10.0)}
        assert "f2" not in inc.rates()

    def test_capacity_change_dirties_component(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f", ("l",), math.inf)
        inc.recompute()
        inc.set_capacity("l", 4.0)
        assert inc.recompute() == {"f": 4.0}

    def test_same_capacity_is_clean(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f", ("l",), math.inf)
        inc.recompute()
        before = inc.recompute_count
        inc.set_capacity("l", 10.0)
        assert inc.recompute() == {}
        assert inc.recompute_count == before

    def test_noop_recompute_is_free(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f", ("l",), math.inf)
        inc.recompute()
        before = inc.recompute_count
        assert inc.recompute() == {}
        assert inc.recompute_count == before

    def test_linkless_flow_gets_demand(self):
        inc = IncrementalMaxMin()
        inc.add_flow("f", (), 7.0)
        assert inc.recompute() == {"f": 7.0}

    def test_zero_demand_flow(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f", ("l",), 0.0)
        assert inc.recompute() == {"f": 0.0}

    def test_validation_matches_solver(self):
        inc = IncrementalMaxMin({"l": 10.0})
        with pytest.raises(ValueError):
            inc.add_flow("f", (), math.inf)
        with pytest.raises(ValueError):
            inc.add_flow("f", ("l",), -1.0)
        with pytest.raises(KeyError):
            inc.add_flow("f", ("ghost",), 1.0)
        inc.add_flow("f", ("l",), 1.0)
        with pytest.raises(ValueError):
            inc.add_flow("f", ("l",), 2.0)
        with pytest.raises(KeyError):
            inc.remove_flow("missing")

    def test_multiplicity_counts_twice(self):
        # A flow crossing a link twice consumes two shares of it, as in
        # the from-scratch solvers.
        inc = IncrementalMaxMin({"l": 9.0})
        inc.add_flow("loop", ("l", "l"), math.inf)
        inc.add_flow("f", ("l",), math.inf)
        inc.recompute()
        _assert_matches(inc, {"loop": (("l", "l"), math.inf),
                              "f": (("l",), math.inf)}, {"l": 9.0})

    def test_len_and_contains(self):
        inc = IncrementalMaxMin({"l": 10.0})
        inc.add_flow("f", ("l",), 1.0)
        assert len(inc) == 1 and "f" in inc
        inc.remove_flow("f")
        assert len(inc) == 0 and "f" not in inc


class TestGbpsSaturationShapes:
    """The byte-scale regression shapes, built and torn down live."""

    CAPS = {"l1": 5e8, "l4": 5e8}
    FLOWS = {"capped": (("l1", "l4"), 1.25e8),
             "elastic": (("l1",), math.inf),
             "other": (("l4",), 3.96e7)}

    def test_incremental_build_matches(self):
        inc = IncrementalMaxMin(self.CAPS)
        flows = {}
        for fid, (links, demand) in self.FLOWS.items():
            inc.add_flow(fid, links, demand)
            flows[fid] = (links, demand)
            _assert_matches(inc, flows, self.CAPS)
        assert inc.rates()["elastic"] == pytest.approx(3.75e8)

    def test_departures_rewaterfill(self):
        inc = IncrementalMaxMin(self.CAPS)
        for fid, (links, demand) in self.FLOWS.items():
            inc.add_flow(fid, links, demand)
        inc.recompute()
        inc.remove_flow("capped")
        remaining = {fid: spec for fid, spec in self.FLOWS.items()
                     if fid != "capped"}
        _assert_matches(inc, remaining, self.CAPS)
        assert inc.rates()["elastic"] == pytest.approx(5e8)


links = st.sampled_from(["a", "b", "c", "d"])
arrival = st.tuples(
    st.sets(links, min_size=0, max_size=3),
    st.one_of(st.just(math.inf), st.just(0.0),
              st.floats(min_value=0.1, max_value=100.0)))
ops = st.lists(
    st.one_of(st.tuples(st.just("add"), arrival),
              st.tuples(st.just("remove"), st.integers(min_value=0)),
              st.tuples(st.just("cap"), links,
                        st.floats(min_value=0.2, max_value=2.0))),
    min_size=1, max_size=14)


@settings(max_examples=60, deadline=None)
@given(ops, st.sampled_from([1.0, 1e3, 5e8, 1.25e9]))
def test_random_sequences_match_reference(sequence, scale):
    """Random arrival/finish/capacity sequences at every magnitude: the
    persistent allocation equals a from-scratch solve after each event."""
    capacities = {l: 10.0 * scale for l in "abcd"}
    inc = IncrementalMaxMin(capacities)
    flows = {}
    next_id = 0
    for op in sequence:
        if op[0] == "add":
            link_set, demand = op[1]
            if not link_set and math.isinf(demand):
                continue  # rejected by both solvers
            spec = (tuple(sorted(link_set)),
                    demand * scale if math.isfinite(demand) else demand)
            inc.add_flow(next_id, *spec)
            flows[next_id] = spec
            next_id += 1
        elif op[0] == "remove":
            if not flows:
                continue
            victim = sorted(flows)[op[1] % len(flows)]
            inc.remove_flow(victim)
            del flows[victim]
        else:
            _, link, factor = op
            capacities[link] = 10.0 * scale * factor
            inc.set_capacity(link, capacities[link])
        if flows:
            _assert_matches(inc, flows, capacities)
    assert inc.rates() == {} if not flows else True


@settings(max_examples=40, deadline=None)
@given(ops)
def test_changed_set_is_sound(sequence):
    """recompute() reports exactly the flows whose rate differs from the
    previous allocation -- no phantom changes, no missed ones."""
    capacities = {l: 10.0 for l in "abcd"}
    inc = IncrementalMaxMin(capacities)
    flows = {}
    next_id = 0
    previous = {}
    for op in sequence:
        if op[0] == "add":
            link_set, demand = op[1]
            if not link_set and math.isinf(demand):
                continue
            spec = (tuple(sorted(link_set)), demand)
            inc.add_flow(next_id, *spec)
            flows[next_id] = spec
            next_id += 1
        elif op[0] == "remove":
            if not flows:
                continue
            victim = sorted(flows)[op[1] % len(flows)]
            inc.remove_flow(victim)
            del flows[victim]
            previous.pop(victim, None)
        else:
            _, link, factor = op
            capacities[link] = 10.0 * factor
            inc.set_capacity(link, capacities[link])
        changed = inc.recompute()
        for fid, rate in changed.items():
            assert previous.get(fid) != rate
        now = dict(inc.rates())
        for fid, rate in now.items():
            if previous.get(fid) != rate:
                assert fid in changed
        previous = now
