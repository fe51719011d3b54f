# Differential-test oracle: ``max_min_fair_reference`` of
# ``src/repro/maxmin.py`` as it stood before it left the package, copied
# verbatim below this header (``git show 1587c51:src/repro/maxmin.py``)
# together with the two epsilons only it uses.  It is the textbook
# round-by-round progressive filling the seed shipped; ``tests/test_maxmin.py``,
# ``tests/test_maxmin_incremental.py`` and ``tests/oracles/seed_flowsim.py``
# compare the live water-level solver with it to 1e-6 relative.  The one
# edit: ``_validate`` left the package with the per-flow solver, so it is
# imported from the sibling oracle ``seed_maxmin_perflow``.  Do not
# optimise or "fix" this file: it is the reference, not product code.
"""Textbook progressive-filling max-min allocation (the seed solver).

Saturation epsilon: a link counts as saturated when its remaining room is
within ``1e-9 * capacity`` (relative).  The seed used an absolute
``room <= 1e-9``, which misfires for byte-scale capacities -- a fully
allocated 1 Gbps link retains ~1e-7 bytes/s of float residue, was never
detected as saturated, and the defensive "freeze everything" fallback then
pinned flows on *other* links below their fair share (see
``tests/test_maxmin.py::test_gbps_scale_saturation_regression``).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from seed_maxmin_perflow import _validate

#: A link is saturated when its room falls within this fraction of its
#: capacity (relative epsilon; see module docstring).
_SAT_EPS = 1e-9
#: A flow is demand-frozen when its rate is within this *fraction* of
#: its demand (floored at 1 byte/s so zero-demand flows still freeze).
_DEMAND_EPS = 1e-12


def max_min_fair_reference(
    flows: Mapping[Hashable, Tuple[Sequence[Hashable], float]],
    capacities: Mapping[Hashable, float],
) -> Dict[Hashable, float]:
    """Textbook progressive filling, kept as a cross-check oracle.

    Raises the rate of every unfrozen flow in lockstep until either a flow
    hits its demand (freeze it) or a link saturates (freeze every flow
    crossing it), then repeats with the remaining capacity.  Runs in
    O(#links · #flows) per round; :func:`max_min_fair` produces the same
    allocation (to float tolerance) in near-linear time.
    """
    rates: Dict[Hashable, float] = {}
    active = dict(_validate(flows, capacities, rates))

    residual = dict(capacities)
    # Number of active flows crossing each link.
    load: Dict[Hashable, int] = {}
    for links, _ in active.values():
        for link in links:
            load[link] = load.get(link, 0) + 1

    while active:
        # The common increment is limited by the tightest link fair share
        # and the smallest remaining demand.
        increment = math.inf
        for flow_id, (links, demand) in active.items():
            remaining = demand - rates[flow_id]
            if remaining < increment:
                increment = remaining
        for link, flow_count in load.items():
            if flow_count > 0:
                share = residual[link] / flow_count
                if share < increment:
                    increment = share
        if not math.isfinite(increment):
            raise RuntimeError("all active flows are elastic and "
                               "unconstrained; allocation diverges")
        increment = max(increment, 0.0)

        frozen: List[Hashable] = []
        for flow_id, (links, demand) in active.items():
            rates[flow_id] += increment
            for link in links:
                residual[link] -= increment
        saturated = {
            link for link, room in residual.items()
            if load.get(link, 0) > 0 and math.isfinite(capacities[link])
            and room <= _SAT_EPS * capacities[link]}
        for flow_id, (links, demand) in active.items():
            # The demand test needs a relative epsilon for the same
            # reason the saturation test does: summing increments toward
            # a byte-scale demand accumulates error far above 1e-12, and
            # a missed freeze drops into the freeze-everything fallback.
            if (math.isfinite(demand) and rates[flow_id]
                    >= demand - _DEMAND_EPS * max(demand, 1.0)):
                frozen.append(flow_id)
            elif any(link in saturated for link in links):
                frozen.append(flow_id)
        if not frozen:
            # Numerical safety: freeze everything touching the tightest
            # link rather than looping forever.
            frozen = list(active)
        for flow_id in frozen:
            links, _ = active.pop(flow_id)
            for link in links:
                load[link] -= 1
    return rates
