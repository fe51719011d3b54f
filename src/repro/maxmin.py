"""Generic max-min fair rate allocation.

Used twice in this package: the hose split of :mod:`repro.pacer.eyeq`
(every flow crosses its sender's and receiver's hose "links"), which the
pacing mechanisms run over a tenant's VM pairs, and the flow-level
simulator's ideal-TCP bandwidth sharing (every flow crosses the tree
links on its path).

Both solve with one kernel, :func:`_water_fill`: progressive filling in
its *water-level* form, over flow *classes*.  Every unfrozen flow shares
one rate ``W``; a link with ``count`` unfrozen crossings and ``used``
bytes/s already frozen onto it saturates at ``W = (capacity - used) /
count``, and a flow with finite demand ``d`` freezes at ``W = d``.  Both
event families live in lazy min-heaps (link entries are version-stamped
and go stale whenever a freeze changes the link's count), and a link ->
class incidence list lets a saturating link freeze exactly its flows.

A class is the flows with the same ``links`` tuple and the same demand.
They get bit-identical rates: a saturating link freezes every unfrozen
flow crossing it at the current water level, so a class's unfrozen
members always freeze together, and between two demand events at ``d``
the water level stays exactly ``d``.  So a saturating link freezes each
class crossing it in one step.  It adds the rate to each link's
``used`` once per member, so every float sum is the one the per-flow
solver computed, and bumps the link's version by the member count, so
every heap tie-break ``(level, version, link)`` is too.  A demand event
still freezes one member, in ``(demand, flow id)`` order: after each,
a link whose fair share equals ``d`` may recompute a float ulp below
it and saturate first, which a whole-class step would skip.
``tests/test_maxmin_classes.py`` checks all of this with ``==``
against the per-flow solver (``tests/oracles/seed_maxmin_perflow.py``).

The kernel can also start part-way up: classes already frozen below
every active class are replayed onto the links first (``frozen``).
Water never recedes, so a link's ``used`` at any level is the sum of
the rates frozen on it below that level, added in ascending order (and
equal terms commute), and its version is the count of those frozen
crossings; both are rebuilt from the stored rates alone.  That is what
lets :class:`IncrementalMaxMin` re-solve a departure only above the
lowest rate it freed.

The textbook round-by-round loop is ``tests/oracles/seed_maxmin.py``;
``tests/test_maxmin.py`` asserts agreement with it to 1e-6 relative.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import (Collection, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

#: A flow class: ``(links, demand)`` and its members' flow ids.
FlowClass = Tuple[Tuple[Tuple[Hashable, ...], float], Collection[Hashable]]


def _water_fill(classes: Sequence[FlowClass],
                capacities: Mapping[Hashable, float],
                frozen: Sequence[Tuple[FlowClass, float]] = ()
                ) -> List[float]:
    """Water-fill ``classes`` (active ones: links and a demand > 0);
    returns each class's rate, in order.

    A link's version counts the crossings frozen on it, as in the
    per-flow solver.  Its level is heaped once per event, after the
    event's freezes: only the last level an event leaves is current.

    ``frozen`` holds ``(class, rate)`` pairs already frozen below every
    active class, in ascending rate order: they are replayed onto the
    active classes' links before the first event, as the freezes that
    put those rates there would have left them.
    """
    # link -> [unfrozen crossings, used, version, classes crossing it,
    #          link, finite capacity or None, version last heaped]
    records: Dict[Hashable, list] = {}
    paths: List[List[list]] = []
    left: List[int] = []  # unfrozen members per class
    demand_heap: List[Tuple[float, Hashable, int]] = []
    for i, ((links, demand), members) in enumerate(classes):
        size = len(members)
        left.append(size)
        path = []
        for link in links:
            record = records.get(link)
            if record is None:
                try:
                    capacity = capacities[link]
                except KeyError:
                    raise KeyError(f"flows {list(members)!r} cross unknown "
                                   f"link {link!r}") from None
                records[link] = record = [
                    size, 0.0, 0, [i], link,
                    capacity if math.isfinite(capacity) else None, 0]
            else:
                record[0] += size
                record[3].append(i)
            path.append(record)
        paths.append(path)
        if demand < math.inf:
            for fid in members:
                demand_heap.append((demand, fid, i))
    demand_heap.sort()
    # ``used`` is the ascending sum of the frozen rates, once per member
    # per path occurrence (equal terms commute), and the version counts
    # those crossings; with nothing frozen both stay 0.
    for ((links, _), members), rate in frozen:
        size = len(members)
        for link in links:
            record = records.get(link)
            if record is not None:
                for _ in range(size):
                    record[1] += rate
                record[2] += size
    # (level, version, link, record): ties break on the link id itself.
    link_heap = [((record[5] - record[1]) / record[0], record[2],
                  record[4], record)
                 for record in records.values() if record[5] is not None]
    heapify(link_heap)

    rates = [0.0] * len(classes)
    unfrozen = len(classes)
    water = 0.0
    while unfrozen:
        while demand_heap and not left[demand_heap[0][2]]:
            heappop(demand_heap)
        # Every count change bumps the version, so a current entry's link
        # still has unfrozen crossings.
        while link_heap and link_heap[0][1] != link_heap[0][3][2]:
            heappop(link_heap)
        next_w = demand_heap[0][0] if demand_heap else math.inf
        from_link = bool(link_heap) and link_heap[0][0] < next_w
        if from_link:
            next_w = link_heap[0][0]
        elif next_w == math.inf:
            raise RuntimeError("all active flows are elastic and "
                               "unconstrained; allocation diverges")
        # Water never recedes: a freeze can nudge a recomputed saturation
        # level a float ulp below the current level.
        if next_w > water:
            water = next_w
        # A saturated link freezes every unfrozen class crossing it; a
        # demand event freezes one member of its class.
        batch = (heappop(link_heap)[3][3] if from_link
                 else (heappop(demand_heap)[2],))
        touched = []
        for i in batch:
            size = left[i] if from_link else 1
            if not size:
                continue
            rates[i] = water
            left[i] -= size
            if not left[i]:
                unfrozen -= 1
            path = paths[i]
            touched += path
            for record in path:
                record[0] -= size
                if size == 1:
                    record[1] += water
                else:
                    for _ in range(size):
                        record[1] += water
                record[2] += size
        for record in touched:
            crossings, total, stamp, _, link, capacity, heaped = record
            if crossings > 0 and capacity is not None and stamp != heaped:
                record[6] = stamp
                heappush(link_heap, ((capacity - total) / crossings, stamp,
                                     link, record))
    return rates


def max_min_fair(
    flows: Mapping[Hashable, Tuple[Sequence[Hashable], float]],
    capacities: Mapping[Hashable, float],
) -> Dict[Hashable, float]:
    """Allocate max-min fair rates.

    Args:
        flows: flow id -> (link ids it crosses, demand); a demand of
            ``math.inf`` means elastic (takes whatever it can get).
        capacities: link id -> capacity.  Every link referenced by a flow
            must be present.

    Returns:
        flow id -> allocated rate, in ``flows`` order.  Flows crossing no
        links get their full demand (an infinite demand on a linkless
        flow is an error).
    """
    rates: Dict[Hashable, float] = {}
    groups: Dict[Tuple[Tuple[Hashable, ...], float], List[Hashable]] = {}
    for flow_id, (links, demand) in flows.items():
        if demand < 0:
            raise ValueError(f"flow {flow_id!r} has negative demand")
        if not links:
            if math.isinf(demand):
                raise ValueError(
                    f"flow {flow_id!r} is elastic but crosses no links")
            rates[flow_id] = demand
            continue
        rates[flow_id] = 0.0  # also keeps the input order
        if demand == 0:
            continue
        groups.setdefault((tuple(links), demand), []).append(flow_id)
    classes = list(groups.items())
    for (_, members), rate in zip(classes, _water_fill(classes, capacities)):
        for flow_id in members:
            rates[flow_id] = rate
    return rates


class IncrementalMaxMin:
    """Persistent max-min allocation under flow arrivals and departures.

    Max-min fairness decomposes over connected components of the
    flow-link bipartite graph: flows that share no link (directly or
    through a chain of other flows) never influence each other's rates.
    This class keeps a class index alive between events: ``(links,
    demand)`` -> its member flows in insertion order, and link -> the
    classes crossing it.  An arrival, a departure or a capacity change
    only marks links and classes *dirty*; :meth:`recompute` walks their
    closure over classes and hands it straight to the class kernel.  An
    event costs in proportion to its component's classes, not to all
    flows.

    Departures re-solve less: the water-fill restarts at the *floor*,
    the lowest stored rate of the flows removed since the last solve,
    and every class below it keeps its rate.  The closure walks only
    into classes at or above the floor; a class below it that crosses a
    reached link goes to the kernel pre-frozen, and a solve that reaches
    no class at or above the floor calls no kernel.  Why this is exact
    in floats, comparing the water-fill of the flow set ``F`` with that
    of ``F - D`` (``D`` the departed flows):

    * Below the floor both runs make the same events.  A link no departed
      flow crosses has the same count, ``used`` and version in both.  A
      link ``D`` crosses never pops below the floor in the ``F`` run (it
      would have frozen a departed flow below that flow's rate), and in
      the ``F - D`` run its level ``(cap - used) / (count - k)`` is at
      least ``(cap - used) / count``, since float division by a smaller
      positive count with a positive numerator cannot come out smaller.
    * The state at the floor is rebuildable from stored rates: ``used`` is
      the ascending sum of the rates frozen on the link and its version
      the count of those crossings (see the module docstring).
    * Above the floor components are independent but for the shared water
      clamp, which the per-component solve already relies on.

    The floor resets to 0 -- a full closure solve -- on an arrival, on a
    capacity change that dirties a link, and on the removal of a flow
    that was never solved (its stored rate reads as 0).

    Equivalence contract: after every :meth:`recompute`, :meth:`rates`
    equals ``max_min_fair(flows, capacities)`` over the full current flow
    set.  The kernel's result does not depend on the order classes come
    in, so each re-solved component gets, bit for bit, the per-flow
    solve of the same flows, and the classes below the floor keep the
    rates that solve gives them (``tests/test_maxmin_classes.py``,
    ``tests/test_maxmin_incremental.py``, the campaign bit-identity
    gate); changed rates come back in global flow insertion order, the
    order the fluid simulator applies them in.

    Not thread-safe; the fluid simulator drives one instance per sharing
    domain from its single-threaded event loop.
    """

    __slots__ = ("_capacities", "_flows", "_next_order", "_classes",
                 "_class_rates", "_crossing", "_rates", "_floor",
                 "_dirty_links", "_dirty_classes", "_dirty_trivial",
                 "recompute_count", "affected_flow_count",
                 "affected_class_count")

    def __init__(
            self,
            capacities: Optional[Mapping[Hashable, float]] = None) -> None:
        self._capacities: Dict[Hashable, float] = \
            dict(capacities) if capacities else {}
        #: flow id -> (links, demand, insertion number).
        self._flows: Dict[Hashable,
                          Tuple[Tuple[Hashable, ...], float, int]] = {}
        self._next_order = 0
        #: (links, demand) -> ordered set of its member flow ids; only
        #: flows with links and a demand > 0 have a class.
        self._classes: Dict[Tuple[Tuple[Hashable, ...], float],
                            Dict[Hashable, None]] = {}
        #: (links, demand) -> the rate its members got at the last solve.
        self._class_rates: Dict[Tuple, float] = {}
        #: link -> ordered set of the class keys crossing it (multiplicity
        #: is carried by the class's links tuple, not repeated here).
        self._crossing: Dict[Hashable, Dict[Tuple, None]] = {}
        self._rates: Dict[Hashable, float] = {}
        #: Lowest stored rate of the flows removed since the last solve
        #: (0 after an arrival or a capacity change): classes below it
        #: keep their rates, and the next solve restarts there.
        self._floor = math.inf
        self._dirty_links: Dict[Hashable, None] = {}
        #: Classes with arrivals since the last solve.
        self._dirty_classes: Dict[Tuple, None] = {}
        #: Arrived flows with no links or zero demand: no solve needed.
        self._dirty_trivial: Dict[Hashable, None] = {}
        #: Instrumentation for benchmarks: recomputes performed and the
        #: cumulative number of flows and classes re-solved across them.
        self.recompute_count = 0
        self.affected_flow_count = 0
        self.affected_class_count = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    def set_capacity(self, link: Hashable, capacity: float) -> None:
        """Register a link or update its capacity.

        A changed capacity dirties the link (and hence its component);
        registering an unused link or re-setting the same value is free.
        """
        old = self._capacities.get(link)
        if old is not None and old == capacity:
            return
        self._capacities[link] = capacity
        if self._crossing.get(link):
            self._dirty_links[link] = None
            self._floor = 0.0

    def add_flow(self, flow_id: Hashable, links: Sequence[Hashable],
                 demand: float) -> None:
        """Add a flow; rates refresh on the next :meth:`recompute`.

        Validation matches :func:`max_min_fair`: negative demand and
        elastic linkless flows raise ``ValueError``, unknown links raise
        ``KeyError``.
        """
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} already present")
        if demand < 0:
            raise ValueError(f"flow {flow_id!r} has negative demand")
        links = tuple(links)
        if not links and math.isinf(demand):
            raise ValueError(
                f"flow {flow_id!r} is elastic but crosses no links")
        for link in links:
            if link not in self._capacities:
                raise KeyError(f"flow {flow_id!r} crosses unknown "
                               f"link {link!r}")
        self._flows[flow_id] = (links, demand, self._next_order)
        self._next_order += 1
        if not links or demand == 0:
            self._dirty_trivial[flow_id] = None
            return
        key = (links, demand)
        members = self._classes.get(key)
        if members is None:
            self._classes[key] = members = {}
            for link in links:
                self._crossing.setdefault(link, {})[key] = None
        members[flow_id] = None
        self._dirty_classes[key] = None
        self._floor = 0.0

    def remove_flow(self, flow_id: Hashable) -> None:
        """Remove a flow, dirtying the links it crossed and lowering the
        floor to its rate (to 0 if it was never solved)."""
        links, demand, _ = self._flows.pop(flow_id)
        rate = self._rates.pop(flow_id, 0.0)
        if not links or demand == 0:
            self._dirty_trivial.pop(flow_id, None)
            return
        if rate < self._floor:
            self._floor = rate
        key = (links, demand)
        members = self._classes[key]
        del members[flow_id]
        if not members:
            del self._classes[key]
            self._class_rates.pop(key, None)
            self._dirty_classes.pop(key, None)
        for link in links:
            crossing = self._crossing.get(link)
            if crossing is None:
                continue
            if not members:
                crossing.pop(key, None)
            if crossing:
                self._dirty_links[link] = None
            else:
                del self._crossing[link]

    def recompute(self) -> Dict[Hashable, float]:
        """Re-solve the dirty components; return only the changed rates.

        The returned mapping holds every flow whose allocated rate
        differs (bit-for-bit) from its previous value, solved flows in
        global insertion order and then the linkless / zero-demand
        arrivals, so callers can apply exactly the updates a
        from-scratch solve would have made through an equality-skipping
        rate setter.
        """
        floor = self._floor
        if not (self._dirty_links or self._dirty_classes
                or self._dirty_trivial):
            self._floor = math.inf
            return {}
        crossing = self._crossing
        class_rates = self._class_rates
        affected = dict.fromkeys(self._dirty_classes)
        below: Dict[Tuple, None] = {}
        seen_links = set(self._dirty_links)
        frontier: List[Hashable] = list(self._dirty_links)
        for links, _ in affected:
            for link in links:
                if link not in seen_links:
                    seen_links.add(link)
                    frontier.append(link)
        # Closure of the dirty links and classes over the class-link
        # bipartite graph: every class at or above the floor crossing a
        # reached link joins the sub-problem, and drags its own links in
        # behind it; a class below the floor stays frozen at its rate.
        while frontier:
            for key in crossing.get(frontier.pop(), ()):
                if key in affected:
                    continue
                # At floor 0 every class joins, new ones with no rate yet.
                if floor and class_rates[key] < floor:
                    below[key] = None
                    continue
                affected[key] = None
                for other in key[0]:
                    if other not in seen_links:
                        seen_links.add(other)
                        frontier.append(other)
        rates = self._rates
        flows = self._flows
        classes = self._classes
        solved: List[FlowClass] = [(key, classes[key]) for key in affected]
        updates: List[Tuple[int, Hashable]] = []
        n_flows = 0
        if solved:
            frozen = sorted((((key, classes[key]), class_rates[key])
                             for key in below), key=itemgetter(1))
            for (key, members), rate in zip(
                    solved, _water_fill(solved, self._capacities, frozen)):
                n_flows += len(members)
                class_rates[key] = rate
                for fid in members:
                    if rates.get(fid) != rate:
                        rates[fid] = rate
                        updates.append((flows[fid][2], fid))
        updates.sort()
        changed = {fid: rates[fid] for _, fid in updates}
        for fid in self._dirty_trivial:
            links, demand, _ = flows[fid]
            rate = demand if not links else 0.0
            if rates.get(fid) != rate:
                rates[fid] = rate
                changed[fid] = rate
        self._dirty_links.clear()
        self._dirty_classes.clear()
        self._dirty_trivial.clear()
        self._floor = math.inf
        self.recompute_count += 1
        self.affected_flow_count += n_flows
        self.affected_class_count += len(solved)
        return changed

    def rates(self) -> Dict[Hashable, float]:
        """The full current allocation (recomputing first if dirty)."""
        self.recompute()
        return dict(self._rates)
