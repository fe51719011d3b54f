# Differential-test oracle: ``src/repro/maxmin.py`` as it stood before the
# solver moved to flow classes, copied verbatim below this header
# (``git show d160501:src/repro/maxmin.py``).  Its ``max_min_fair``
# freezes one flow at a time and its ``IncrementalMaxMin`` hands each
# dirty component to that per-flow solve; ``tests/test_maxmin_classes.py``
# requires the shipped class-level solver and incremental index to return
# bit-equal (``==``) rates, and the same changed rates in the same order.
# Do not optimise or "fix" this file: it is the reference, not product
# code.
"""Generic max-min fair rate allocation.

Used twice in this package: the hose split of :mod:`repro.pacer.eyeq`
(every flow crosses its sender's and receiver's hose "links"), which the
pacing mechanisms run over a tenant's VM pairs, and the flow-level
simulator's ideal-TCP bandwidth sharing (every flow crosses the tree
links on its path).

:func:`max_min_fair` implements progressive filling in its *water-level*
form: every unfrozen flow shares one common rate ``W``; a link with
``count`` unfrozen crossings and ``used`` bytes/s already frozen onto it
saturates at ``W = (capacity - used) / count``, and a flow with finite
demand ``d`` freezes at ``W = d``.  Both event families live in lazy
min-heaps (link entries are version-stamped and invalidated whenever a
freeze changes the link's count), and a precomputed link -> flow incidence
list lets a saturating link freeze exactly the flows that cross it.  Each
flow is frozen once, so the total cost is O(sum of path lengths · log)
instead of the O(#links · #flows) per *round* of the textbook loop.  That
loop is the test oracle ``tests/oracles/seed_maxmin.py``;
``tests/test_maxmin.py`` asserts the two agree to 1e-6 relative.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple


def _validate(
    flows: Mapping[Hashable, Tuple[Sequence[Hashable], float]],
    capacities: Mapping[Hashable, float],
    rates: Dict[Hashable, float],
) -> Dict[Hashable, Tuple[Sequence[Hashable], float]]:
    """Shared input validation; returns the link-crossing (active) flows
    and pre-fills ``rates`` for the trivial ones."""
    active: Dict[Hashable, Tuple[Sequence[Hashable], float]] = {}
    for flow_id, (links, demand) in flows.items():
        if demand < 0:
            raise ValueError(f"flow {flow_id!r} has negative demand")
        if not links:
            if math.isinf(demand):
                raise ValueError(
                    f"flow {flow_id!r} is elastic but crosses no links")
            rates[flow_id] = demand
        elif demand == 0:
            rates[flow_id] = 0.0
        else:
            for link in links:
                if link not in capacities:
                    raise KeyError(f"flow {flow_id!r} crosses unknown "
                                   f"link {link!r}")
            active[flow_id] = (links, demand)
            rates[flow_id] = 0.0
    return active


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
        flow id -> allocated rate.  Flows crossing no links get their full
        demand (an infinite demand on a linkless flow is an error).
    """
    rates: Dict[Hashable, float] = {}
    active = _validate(flows, capacities, rates)

    # Link -> flow incidence (with multiplicity: a flow crossing a link
    # twice consumes two shares of it).
    incidence: Dict[Hashable, List[Hashable]] = {}
    count: Dict[Hashable, int] = {}
    used: Dict[Hashable, float] = {}
    for flow_id, (links, _) in active.items():
        for link in links:
            if link in count:
                count[link] += 1
                incidence[link].append(flow_id)
            else:
                count[link] = 1
                used[link] = 0.0
                incidence[link] = [flow_id]

    version: Dict[Hashable, int] = dict.fromkeys(count, 0)
    link_heap: List[Tuple[float, int, Hashable]] = []
    for link, crossings in count.items():
        capacity = capacities[link]
        if math.isfinite(capacity):
            heappush(link_heap, (capacity / crossings, 0, link))
    demand_heap: List[Tuple[float, Hashable]] = [
        (demand, flow_id) for flow_id, (_, demand) in active.items()
        if math.isfinite(demand)]
    demand_heap.sort()

    unfrozen = set(active)

    def freeze(flow_id: Hashable, rate: float) -> None:
        rates[flow_id] = rate
        unfrozen.discard(flow_id)
        for link in active[flow_id][0]:
            count[link] -= 1
            used[link] += rate
            version[link] += 1
            crossings = count[link]
            if crossings > 0:
                capacity = capacities[link]
                if math.isfinite(capacity):
                    heappush(link_heap,
                             ((capacity - used[link]) / crossings,
                              version[link], link))

    water = 0.0
    while unfrozen:
        while demand_heap and demand_heap[0][1] not in unfrozen:
            heappop(demand_heap)
        while link_heap:
            _, stamp, link = link_heap[0]
            if stamp != version[link] or count[link] <= 0:
                heappop(link_heap)
            else:
                break
        next_w = demand_heap[0][0] if demand_heap else math.inf
        from_link = False
        if link_heap and link_heap[0][0] < next_w:
            next_w = link_heap[0][0]
            from_link = True
        if not math.isfinite(next_w):
            raise RuntimeError("all active flows are elastic and "
                               "unconstrained; allocation diverges")
        # Water never recedes: a freeze can nudge a recomputed saturation
        # level a float ulp below the current level.
        if next_w > water:
            water = next_w
        if from_link:
            _, _, link = heappop(link_heap)
            # Bulk-freeze every unfrozen flow crossing the saturated link
            # at the current water level.
            for flow_id in incidence[link]:
                if flow_id in unfrozen:
                    freeze(flow_id, water)
        else:
            _, flow_id = heappop(demand_heap)
            freeze(flow_id, water)
    return rates


class IncrementalMaxMin:
    """Persistent max-min allocation under flow arrivals and departures.

    Max-min fairness decomposes over connected components of the
    flow-link bipartite graph: flows that share no link (directly or
    through a chain of other flows) never influence each other's rates.
    This class keeps the link -> flow incidence map alive between events;
    when flows arrive, finish, or a link capacity changes, only the
    affected links are marked *dirty*, and :meth:`recompute` re-runs
    :func:`max_min_fair` on the closure of dirty links alone -- the rest
    of the allocation is untouched.  On a large topology where each event
    perturbs one small component this turns an O(total flows) recompute
    into one proportional to the component size.

    Equivalence contract: after every :meth:`recompute`, :meth:`rates`
    equals ``max_min_fair(flows, capacities)`` over the full current flow
    set.  Sub-problems are handed to :func:`max_min_fair` with the flows
    in their global insertion order, so freeze ordering -- and therefore
    the float-level result -- matches a from-scratch solve restricted to
    the same component (asserted by ``tests/test_maxmin_incremental.py``
    and the campaign bit-identity gate).

    Not thread-safe; the fluid simulator drives one instance per sharing
    domain from its single-threaded event loop.
    """

    __slots__ = ("_capacities", "_flows", "_order", "_next_order",
                 "_incidence", "_rates", "_dirty_links", "_dirty_flows",
                 "recompute_count", "affected_flow_count")

    def __init__(
            self,
            capacities: Optional[Mapping[Hashable, float]] = None) -> None:
        self._capacities: Dict[Hashable, float] = \
            dict(capacities) if capacities else {}
        #: flow id -> (links, demand); insertion-ordered, mirrored by
        #: ``_order`` so sub-problems can be rebuilt in global order.
        self._flows: Dict[Hashable, Tuple[Tuple[Hashable, ...], float]] = {}
        self._order: Dict[Hashable, int] = {}
        self._next_order = 0
        #: link -> ordered set of flow ids crossing it (multiplicity is
        #: carried by the flow's links tuple, not repeated here).
        self._incidence: Dict[Hashable, Dict[Hashable, None]] = {}
        self._rates: Dict[Hashable, float] = {}
        self._dirty_links: Dict[Hashable, None] = {}
        self._dirty_flows: Dict[Hashable, None] = {}
        #: Instrumentation for benchmarks: recomputes performed and the
        #: cumulative number of flows re-solved across them.
        self.recompute_count = 0
        self.affected_flow_count = 0

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
        if self._incidence.get(link):
            self._dirty_links[link] = None

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
        self._flows[flow_id] = (links, demand)
        self._order[flow_id] = self._next_order
        self._next_order += 1
        if links and demand > 0:
            for link in links:
                self._incidence.setdefault(link, {})[flow_id] = None
        self._dirty_flows[flow_id] = None

    def remove_flow(self, flow_id: Hashable) -> None:
        """Remove a flow, dirtying the links it crossed."""
        links, demand = self._flows.pop(flow_id)
        del self._order[flow_id]
        self._dirty_flows.pop(flow_id, None)
        self._rates.pop(flow_id, None)
        if links and demand > 0:
            for link in links:
                crossing = self._incidence.get(link)
                if crossing is None:
                    continue
                crossing.pop(flow_id, None)
                if crossing:
                    self._dirty_links[link] = None
                else:
                    del self._incidence[link]

    def recompute(self) -> Dict[Hashable, float]:
        """Re-solve the dirty components; return only the changed rates.

        The returned mapping holds every flow whose allocated rate
        differs (bit-for-bit) from its previous value, so callers can
        apply exactly the updates a from-scratch solve would have made
        through an equality-skipping rate setter.
        """
        if not self._dirty_links and not self._dirty_flows:
            return {}
        affected: Dict[Hashable, None] = {}
        seen_links = set(self._dirty_links)
        frontier: List[Hashable] = list(self._dirty_links)
        trivial: List[Hashable] = []
        for flow_id in self._dirty_flows:
            links, demand = self._flows[flow_id]
            if links and demand > 0:
                affected[flow_id] = None
                for link in links:
                    if link not in seen_links:
                        seen_links.add(link)
                        frontier.append(link)
            else:
                trivial.append(flow_id)
        # Closure of the dirty links over the flow-link bipartite graph:
        # every flow crossing a reached link joins the sub-problem, and
        # drags its own links in behind it.
        while frontier:
            link = frontier.pop()
            for flow_id in self._incidence.get(link, ()):
                if flow_id not in affected:
                    affected[flow_id] = None
                    for other in self._flows[flow_id][0]:
                        if other not in seen_links:
                            seen_links.add(other)
                            frontier.append(other)
        changed: Dict[Hashable, float] = {}
        rates = self._rates
        if affected:
            order = self._order
            sub_flows = {fid: self._flows[fid]
                         for fid in sorted(affected, key=order.__getitem__)}
            sub_caps = {link: self._capacities[link] for link in seen_links}
            for fid, rate in max_min_fair(sub_flows, sub_caps).items():
                if rates.get(fid) != rate:
                    rates[fid] = rate
                    changed[fid] = rate
        for fid in trivial:
            links, demand = self._flows[fid]
            rate = demand if not links else 0.0
            if rates.get(fid) != rate:
                rates[fid] = rate
                changed[fid] = rate
        self._dirty_links.clear()
        self._dirty_flows.clear()
        self.recompute_count += 1
        self.affected_flow_count += len(affected)
        return changed

    def rates(self) -> Dict[Hashable, float]:
        """The full current allocation (recomputing first if dirty)."""
        self.recompute()
        return dict(self._rates)
