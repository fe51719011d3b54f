"""Communication patterns used across the evaluation.

* all-to-one: the partition-aggregate pattern of OLDI applications
  (class-A tenants);
* all-to-all: the shuffle pattern of data-parallel jobs (class-B);
* permutation-x: each VM talks to ``x`` randomly chosen other VMs
  (section 6.3's knob for traffic-matrix density; Permutation-N is
  all-to-all).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def all_to_one_pairs(vms: Sequence[int]) -> List[Tuple[int, int]]:
    """Every VM sends to the first one."""
    return [(vm, vms[0]) for vm in vms[1:]]


def all_to_all_pairs(vms: Sequence[int]) -> List[Tuple[int, int]]:
    """Every ordered pair of distinct VMs."""
    return [(a, b) for a in vms for b in vms if a != b]


def permutation_pairs(vms: Sequence[int], x: float,
                      rng: random.Random) -> List[Tuple[int, int]]:
    """Each VM sends to ``x`` random distinct other VMs (Permutation-x).

    Fractional ``x`` means each VM sends to ``floor(x)`` destinations plus
    one more with probability ``x - floor(x)`` (so Permutation-0.5 has half
    the VMs sending to one destination each, in expectation).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    pairs: List[Tuple[int, int]] = []
    n = len(vms)
    if n < 2:
        return pairs
    for vm in vms:
        count = int(x)
        if rng.random() < x - count:
            count += 1
        count = min(count, n - 1)
        if count <= 0:
            continue
        others = [v for v in vms if v != vm]
        for dst in rng.sample(others, count):
            pairs.append((vm, dst))
    return pairs
