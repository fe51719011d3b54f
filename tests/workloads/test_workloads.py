"""Distributions, the ETC workload and traffic patterns."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.workloads import (
    EtcWorkload,
    Exponential,
    Fixed,
    GeneralizedPareto,
    Uniform,
    all_to_all_pairs,
    all_to_one_pairs,
    permutation_pairs,
)


class TestDistributions:
    def test_fixed(self):
        assert Fixed(5.0).sample(random.Random(0)) == 5.0
        assert Fixed(5.0).mean == 5.0

    def test_uniform_bounds(self):
        dist = Uniform(2.0, 4.0)
        rng = random.Random(1)
        for _ in range(100):
            assert 2.0 <= dist.sample(rng) <= 4.0
        assert dist.mean == 3.0

    def test_exponential_mean(self):
        dist = Exponential(mean=2.0)
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)

    def test_gpd_mean_formula(self):
        dist = GeneralizedPareto(theta=0.0, sigma=100.0, k=0.2)
        assert dist.mean == pytest.approx(125.0)

    def test_gpd_sampling_matches_mean(self):
        dist = GeneralizedPareto(theta=0.0, sigma=100.0, k=0.1)
        rng = random.Random(3)
        samples = [dist.sample(rng) for _ in range(50000)]
        assert sum(samples) / len(samples) == pytest.approx(dist.mean,
                                                            rel=0.1)

    def test_gpd_cap(self):
        dist = GeneralizedPareto(theta=0.0, sigma=100.0, k=0.3, cap=500.0)
        rng = random.Random(4)
        assert all(dist.sample(rng) <= 500.0 for _ in range(1000))

    def test_gpd_k_zero_is_exponential(self):
        dist = GeneralizedPareto(theta=0.0, sigma=50.0, k=0.0)
        rng = random.Random(5)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(50.0, rel=0.1)

    def test_gpd_heavy_tail_diverges(self):
        dist = GeneralizedPareto(theta=0.0, sigma=1.0, k=1.5)
        assert dist.mean == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Uniform(4.0, 2.0)
        with pytest.raises(ValueError):
            GeneralizedPareto(0.0, 0.0, 0.1)


class TestEtcWorkload:
    def test_value_sizes_in_paper_range(self):
        """The paper: ~300 B average value, 1 KB maximum."""
        wl = EtcWorkload()
        rng = random.Random(6)
        values = [wl.sample_value(rng) for _ in range(20000)]
        assert max(values) <= 1.0 * units.KB
        assert 150 <= sum(values) / len(values) <= 450

    def test_gaps_positive_with_requested_mean(self):
        wl = EtcWorkload(mean_interarrival=100 * units.MICROS)
        rng = random.Random(7)
        gaps = [wl.sample_gap(rng) for _ in range(20000)]
        assert all(g > 0 for g in gaps)
        assert sum(gaps) / len(gaps) == pytest.approx(100 * units.MICROS,
                                                      rel=0.15)

    def test_gaps_burstier_than_poisson(self):
        """Generalized-Pareto gaps have CoV > 1 (the trace's burstiness)."""
        wl = EtcWorkload()
        rng = random.Random(8)
        gaps = [wl.sample_gap(rng) for _ in range(50000)]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert math.sqrt(var) / mean > 1.0


class TestPatterns:
    def test_all_to_one(self):
        pairs = all_to_one_pairs([10, 11, 12, 13])
        assert pairs == [(11, 10), (12, 10), (13, 10)]

    def test_all_to_all(self):
        pairs = all_to_all_pairs([1, 2, 3])
        assert len(pairs) == 6
        assert (1, 2) in pairs and (2, 1) in pairs
        assert all(a != b for a, b in pairs)

    def test_permutation_integer_x(self):
        rng = random.Random(9)
        pairs = permutation_pairs(list(range(10)), 2, rng)
        from collections import Counter
        out = Counter(src for src, _ in pairs)
        assert all(count == 2 for count in out.values())
        assert all(a != b for a, b in pairs)

    def test_permutation_n_is_all_to_all_density(self):
        rng = random.Random(10)
        vms = list(range(6))
        pairs = permutation_pairs(vms, len(vms), rng)
        assert len(pairs) == 6 * 5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=0.0, max_value=4.0),
           st.integers(min_value=0, max_value=2 ** 20))
    def test_permutation_fractional_expectation(self, n, x, seed):
        rng = random.Random(seed)
        pairs = permutation_pairs(list(range(n)), x, rng)
        assert all(a != b for a, b in pairs)
        # No source exceeds ceil(x) or n-1 destinations.
        from collections import Counter
        out = Counter(src for src, _ in pairs)
        cap = min(math.ceil(x), n - 1)
        assert all(count <= cap for count in out.values())
