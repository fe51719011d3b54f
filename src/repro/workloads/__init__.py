"""Workload generators: distributions, memcached-ETC, traffic patterns."""

from repro.workloads.distributions import (
    Distribution,
    Exponential,
    Fixed,
    GeneralizedPareto,
    Uniform,
)
from repro.workloads.memcached import EtcWorkload
from repro.workloads.patterns import (
    all_to_all_pairs,
    all_to_one_pairs,
    permutation_pairs,
)

__all__ = [
    "Distribution",
    "Exponential",
    "Fixed",
    "GeneralizedPareto",
    "Uniform",
    "EtcWorkload",
    "all_to_all_pairs",
    "all_to_one_pairs",
    "permutation_pairs",
]
