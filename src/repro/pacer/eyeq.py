"""EyeQ-style hose-model rate coordination (section 4.3, Fig. 8 top row).

A VM's bandwidth guarantee follows the hose model: the rate between a
sender/receiver pair is limited by *both* endpoints' guarantees.  When
``N`` senders converge on one receiver of guarantee ``B``, each must slow
to ``B/N`` -- which only the receiving hypervisor can know.  In Silo (as in
EyeQ) the source and destination pacers exchange rate messages; here we
expose the steady-state allocation they converge to: a max-min fair split
over the bipartite graph of sender and receiver hoses.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Tuple

from repro.maxmin import max_min_fair


def allocate_hose_rates(
    demands: Mapping[Tuple[Hashable, Hashable], float],
    guarantees: Mapping[Hashable, float],
) -> Dict[Tuple[Hashable, Hashable], float]:
    """Max-min fair hose-model rates for a set of VM-pair demands.

    Args:
        demands: (src, dst) -> demanded rate (``math.inf`` for elastic bulk
            traffic); demands must be >= 0.
        guarantees: VM -> hose bandwidth ``B`` (>= 0), which bounds what
            the VM sends and what it receives (Silo gives VMs symmetric
            hoses).

    Returns:
        (src, dst) -> allocated rate, satisfying
        ``sum_dst rate(s, .) <= B_s`` and ``sum_src rate(., d) <= B_d``.

    Raises:
        KeyError: a demand references a VM with no guarantee.
        ValueError: a demand or guarantee is negative (a sign error
            would otherwise silently propagate into the fair split).
    """
    capacities: Dict[Hashable, float] = {}
    flows: Dict[Tuple[Hashable, Hashable],
                Tuple[Tuple[Hashable, ...], float]] = {}
    for (src, dst), demand in demands.items():
        if demand < 0:
            raise ValueError(
                f"demand for ({src!r}, {dst!r}) must be >= 0, got {demand}")
        if src not in guarantees:
            raise KeyError(f"no send guarantee for VM {src!r}")
        if dst not in guarantees:
            raise KeyError(f"no receive guarantee for VM {dst!r}")
        if guarantees[src] < 0:
            raise ValueError(f"send guarantee for VM {src!r} must be >= 0, "
                             f"got {guarantees[src]}")
        if guarantees[dst] < 0:
            raise ValueError(f"receive guarantee for VM {dst!r} must be "
                             f">= 0, got {guarantees[dst]}")
        src_hose = ("send", src)
        dst_hose = ("recv", dst)
        capacities[src_hose] = guarantees[src]
        capacities[dst_hose] = guarantees[dst]
        flows[(src, dst)] = ((src_hose, dst_hose), demand)
    return max_min_fair(flows, capacities)
