"""The class-level max-min solver against the per-flow one, bit for bit.

:func:`repro.maxmin.max_min_fair` water-fills flow *classes* (flows with
the same links tuple and demand) and freezes a whole class in one step;
:class:`repro.maxmin.IncrementalMaxMin` keeps its class index between
events.  ``tests/oracles/seed_maxmin_perflow.py`` is the per-flow solver
and incremental index they replaced.  A tolerance would hide exactly the
float-order slips this change could make (a ``used`` sum added in
another order, a heap tie broken by another version), so every rate is
compared with ``==``, and the incremental ``changed`` dicts must match
in order too.  Inputs lean towards what could break that: many flows per
class, finite demands tied across classes and with a link's fair share,
a link repeated inside one path, zero-demand and linkless flows, and
ulp-prone capacities such as 1/3 and 10/3.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import maxmin
from repro.maxmin import IncrementalMaxMin, max_min_fair

import seed_maxmin_perflow as perflow

LINKS = "abcde"
CAPACITIES = (1 / 3, 10 / 3, 2 / 3, 1.0, 0.1, 7.0, 1e9 / 3, 1.25e9)
#: Demands that tie across classes, and with fair shares like 10/3 / 3.
DEMANDS = (math.inf, math.inf, 0.0, 1 / 3, 1 / 9, 10 / 9, 10 / 3 / 3,
           0.5, 1 / 30, 7 / 3, 1e9 / 9)

path = st.lists(st.sampled_from(LINKS), min_size=0, max_size=4)
demand = st.one_of(st.sampled_from(DEMANDS),
                   st.floats(min_value=0.01, max_value=10.0))
flow_class = st.tuples(path, demand, st.integers(min_value=1, max_value=6))
capacities = st.fixed_dictionaries(
    {link: st.sampled_from(CAPACITIES) for link in LINKS})


def _flows(classes, seed):
    """Expand ``(path, demand, members)`` into shuffled flows, with flow
    ids out of insertion order so demand ties break differently."""
    specs = [(tuple(links), d) for links, d, members in classes
             if links or math.isfinite(d) for _ in range(members)]
    rng = random.Random(seed)
    rng.shuffle(specs)
    ids = list(range(len(specs)))
    rng.shuffle(ids)
    return dict(zip(ids, specs))


def _solve(solver, flows, caps):
    try:
        return list(solver(flows, caps).items())
    except RuntimeError as exc:  # elastic flows over infinite links only
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(flow_class, min_size=1, max_size=8), capacities,
       st.integers(min_value=0, max_value=2**32))
def test_class_solver_is_bit_exact(classes, caps, seed):
    flows = _flows(classes, seed)
    assert _solve(max_min_fair, flows, caps) == \
        _solve(perflow.max_min_fair, flows, caps)


def test_class_solver_is_bit_exact_seeded_trials():
    """Larger problems than hypothesis draws: up to 40 classes of up to
    12 flows over 8 links, some of them infinite."""
    rng = random.Random(20261017)
    links = [f"l{i}" for i in range(8)]
    for _ in range(400):
        caps = {link: rng.choice(CAPACITIES + (math.inf,)) for link in links}
        classes = [([rng.choice(links) for _ in range(rng.randint(0, 4))],
                    rng.choice(DEMANDS + (rng.uniform(0.01, 5.0),)),
                    rng.randint(1, 12))
                   for _ in range(rng.randint(1, 40))]
        flows = _flows(classes, rng.random())
        assert _solve(max_min_fair, flows, caps) == \
            _solve(perflow.max_min_fair, flows, caps)


def test_demand_at_a_fair_share_freezes_one_member_at_a_time():
    """Nine flows demand exactly 3.3 / 11, the fair share of ``L``.
    After each demand freeze the recomputed level may dip an ulp below
    0.3, which saturates ``L`` at water 0.3 before the next member's
    demand event; freezing the whole class at once would skip that
    level and give the two elastic flows 0.30000000000000004."""
    flows = {fid: (("L",), 0.3) for fid in range(9)}
    flows.update({9: (("L",), math.inf), 10: (("L",), math.inf)})
    assert max_min_fair(flows, {"L": 3.3}) == \
        perflow.max_min_fair(flows, {"L": 3.3}) == dict.fromkeys(flows, 0.3)


def test_demand_ties_with_fair_shares_seeded_trials():
    """The shape above, drawn: a class demanding exactly ``L``'s fair
    share beside flows that nearly tie it."""
    rng = random.Random(3)
    for _ in range(2000):
        cap = rng.choice(CAPACITIES + (3.3, 0.7))
        n = rng.randint(3, 12)
        share = cap / n
        caps = {"L": cap, "M": rng.choice([cap, share * rng.randint(1, 5)])}
        classes = [(["L"], share, rng.randint(2, n - 1)),
                   (rng.choice([["L"], ["L", "M"]]),
                    rng.choice([math.inf, share * 1.0000001]),
                    rng.randint(1, 4)),
                   (["M"], rng.choice([math.inf, share]), rng.randint(0, 4))]
        flows = _flows([c for c in classes if c[2]], rng.random())
        assert _solve(max_min_fair, flows, caps) == \
            _solve(perflow.max_min_fair, flows, caps)


def test_versions_advance_by_the_member_count():
    """Equal saturation levels on different links are ordered by link
    version, so a class freeze must bump it once per member: bumping it
    once per class moves rates on this shape by an ulp."""
    classes = {("l0", "l0", "l0", "l2"): 3, ("l0",): 13, ("l2", "l0"): 7,
               ("l1", "l2"): 16, ("l0", "l1"): 1, ("l0", "l2"): 8,
               ("l1",): 1, ("l1", "l1"): 6, ("l2", "l2", "l1"): 5,
               ("l2", "l1", "l2"): 3}
    flows = {}
    for links, members in classes.items():
        for _ in range(members):
            flows[len(flows)] = (links, math.inf)
    caps = {"l0": 0.7, "l1": 0.7, "l2": 2 / 3}
    assert max_min_fair(flows, caps) == perflow.max_min_fair(flows, caps)


ops = st.lists(
    st.one_of(st.tuples(st.just("add"), flow_class),
              st.tuples(st.just("remove"), st.integers(min_value=0)),
              st.tuples(st.just("cap"), st.sampled_from(LINKS),
                        st.sampled_from(CAPACITIES)),
              st.just(("solve",))),
    min_size=1, max_size=24)


@settings(max_examples=150, deadline=None)
@given(ops, capacities)
@example([("add", (["a"], 1.5, 2)), ("solve",), ("remove", 0),
          ("remove", 0), ("solve",)], dict.fromkeys(LINKS, 7.0))
def test_incremental_index_matches_perflow_index(sequence, caps):
    """The class index and the per-flow index in lockstep, events
    batched between solves: the same ``changed`` dict, in the same
    order, and the same recompute count (a link dirtied by a departure
    stays dirty when the last flow on it leaves before the next solve).
    The class index re-solves a departure only above its lowest freed
    rate, so it may water-fill fewer flows than the per-flow index."""
    shipped = IncrementalMaxMin(caps)
    oracle = perflow.IncrementalMaxMin(caps)
    live = []
    next_id = 0
    for op in sequence + [("solve",)]:
        if op[0] == "add":
            links, d, members = op[1]
            if not links and math.isinf(d):
                continue
            for _ in range(members):
                for solver in (shipped, oracle):
                    solver.add_flow(next_id, links, d)
                live.append(next_id)
                next_id += 1
        elif op[0] == "remove":
            if not live:
                continue
            victim = live.pop(op[1] % len(live))
            for solver in (shipped, oracle):
                solver.remove_flow(victim)
        elif op[0] == "cap":
            for solver in (shipped, oracle):
                solver.set_capacity(op[1], op[2])
        else:
            try:
                expected = list(oracle.recompute().items())
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    shipped.recompute()
                return
            assert list(shipped.recompute().items()) == expected
            assert shipped.rates() == oracle.rates()
            assert shipped.recompute_count == oracle.recompute_count
            assert shipped.affected_flow_count <= \
                oracle.affected_flow_count


def test_changed_follows_flow_insertion_order_across_classes():
    """Classes interleave on one link; ``changed`` still lists flows in
    the order they were added, which is the order the fluid simulator
    applies rates (and so draws engine sequence numbers) in."""
    inc = IncrementalMaxMin({"l": 12.0, "m": 12.0})
    order = ["a0", "b0", "a1", "c0", "b1", "a2"]
    paths = {"a": ("l",), "b": ("l", "m"), "c": ("m", "l")}
    for fid in order:
        inc.add_flow(fid, paths[fid[0]], math.inf)
    assert list(inc.recompute()) == order
    inc.add_flow("d0", ("m",), math.inf)
    inc.remove_flow("a1")
    # The closure starts from d0's and a's classes, not from a0.
    assert list(inc.recompute()) == ["a0", "b0", "c0", "b1", "a2", "d0"]


def test_affected_flow_count_counts_flows_not_classes():
    """``perf/layers.py`` reads ``affected_flow_count`` as
    ``maxmin.flows_resolved``: five flows of one class are five."""
    inc = IncrementalMaxMin({"l": 10.0})
    for fid in range(5):
        inc.add_flow(fid, ("l",), math.inf)
    inc.add_flow("other", ("l",), 1.0)
    inc.recompute()
    assert inc.affected_flow_count == 6
    assert inc.affected_class_count == 2
    assert inc.rates()[0] == 9.0 / 5


departures = st.lists(
    st.tuples(st.lists(st.integers(min_value=0), min_size=1, max_size=6),
              st.booleans()),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(flow_class, min_size=1, max_size=8), capacities,
       departures, st.integers(min_value=0, max_value=2**32))
@example([(["a", "b"], math.inf, 3), (["a"], 1 / 9, 4), (["b"], 0.5, 2),
          (["a", "c"], math.inf, 1)], dict.fromkeys(LINKS, 1.0),
         [([7, 0], False), ([0, 0, 0], False), ([3], True)], 0)
def test_departures_resolve_only_above_the_floor(classes, caps, batches,
                                                 seed):
    """Departure-only batches between solves: every solve is ``==``
    ``max_min_fair`` over the remaining flows, in insertion order, and
    the kernel sees no class whose rate is below the lowest rate freed
    by the batch; those classes come in pre-frozen, in ascending rate
    order.  A batch may take some members of a class or its last one,
    and a batch with its flag set also adds and removes a flow before
    the solve (a never-solved departure, which re-solves from 0)."""
    flows = _flows(classes, seed)
    inc = IncrementalMaxMin(caps)
    for fid, (links, d) in flows.items():
        inc.add_flow(fid, links, d)
    if _solve(max_min_fair, flows, caps) is RuntimeError:
        return
    inc.recompute()
    handed = []
    kernel = maxmin._water_fill

    def spy(active, capacities, frozen=()):
        handed.append((list(active), list(frozen)))
        return kernel(active, capacities, frozen)

    next_id = len(flows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maxmin, "_water_fill", spy)
        for picks, unsolved in batches:
            before = inc.rates()
            floor = math.inf
            for pick in picks:
                if not flows:
                    break
                victim = list(flows)[pick % len(flows)]
                links, d = flows.pop(victim)
                inc.remove_flow(victim)
                if links and d > 0:  # a zero-demand flow frees nothing
                    floor = min(floor, before[victim])
            if unsolved:
                inc.add_flow(next_id, ("a",), math.inf)
                inc.remove_flow(next_id)
                next_id += 1
                floor = 0.0
            handed.clear()
            changed = inc.recompute()
            for active, frozen in handed:
                for _, members in active:
                    assert all(before[fid] >= floor for fid in members)
                rates = [rate for _, rate in frozen]
                assert rates == sorted(rates)
                assert all(rate < floor for rate in rates)
            expected = max_min_fair(flows, caps)
            assert inc.rates() == expected
            assert list(changed.items()) == [
                (fid, rate) for fid, rate in expected.items()
                if before[fid] != rate]


def test_a_departure_replays_frozen_versions():
    """``A`` and ``B`` restart with the same ``used`` (two frozen flows
    at 0.1/13 on ``A``, one at 0.2/13 on ``B``) and the same level, so
    the first saturation after the floor is the link with fewer frozen
    crossings.  Replaying ``used`` without bumping the versions pops
    ``A`` first and hands the last two elastic flows each other's rate,
    an ulp apart."""
    caps = {"A": 0.1, "B": 0.1}
    flows = {0: (("A",), 0.1 / 13), 1: (("A",), 0.1 / 13),
             2: (("B",), 0.2 / 13)}
    flows.update(dict.fromkeys((3, 4, 5), (("A", "B"), math.inf)))
    flows.update({6: (("B",), math.inf), 7: (("A",), math.inf),
                  8: (("A",), math.inf)})
    inc = IncrementalMaxMin(caps)
    for fid, (links, d) in flows.items():
        inc.add_flow(fid, links, d)
    inc.recompute()
    inc.remove_flow(7)
    del flows[7]
    assert inc.rates() == max_min_fair(flows, caps) == \
        perflow.max_min_fair(flows, caps)
    assert inc.rates()[6] != inc.rates()[8]
