"""Guarantees and the tenant-visible message latency bound (section 4.1)."""

import pytest

from repro import units
from repro.core.guarantees import (
    CLASS_A_GUARANTEE,
    CLASS_B_GUARANTEE,
    NetworkGuarantee,
    message_latency_bound,
)


class TestNetworkGuarantee:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkGuarantee(bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkGuarantee(bandwidth=1.0, burst=-1.0)
        with pytest.raises(ValueError):
            NetworkGuarantee(bandwidth=1.0, delay=0.0)
        with pytest.raises(ValueError):
            NetworkGuarantee(bandwidth=10.0, peak_rate=5.0)

    def test_peak_defaults_to_bandwidth(self):
        g = NetworkGuarantee(bandwidth=10.0)
        assert g.effective_peak_rate == 10.0

    def test_wants_delay(self):
        assert CLASS_A_GUARANTEE.wants_delay
        assert not CLASS_B_GUARANTEE.wants_delay

    def test_class_b_has_no_latency_bound(self):
        with pytest.raises(ValueError):
            CLASS_B_GUARANTEE.message_latency_bound(1000.0)


class TestMessageLatencyBound:
    def test_small_message_rides_the_burst(self):
        """M <= S: latency = M/Bmax + d."""
        latency = message_latency_bound(
            message_size=10 * units.KB, bandwidth=units.gbps(1),
            burst=15 * units.KB, delay=units.msec(1),
            peak_rate=units.gbps(10))
        expected = 10 * units.KB / units.gbps(10) + units.msec(1)
        assert latency == pytest.approx(expected)

    def test_large_message_spills_past_the_burst(self):
        """M > S: latency = S/Bmax + (M-S)/B + d."""
        M, S = 100 * units.KB, 15 * units.KB
        latency = message_latency_bound(
            message_size=M, bandwidth=units.gbps(1), burst=S,
            delay=units.msec(1), peak_rate=units.gbps(10))
        expected = (S / units.gbps(10)
                    + (M - S) / units.gbps(1) + units.msec(1))
        assert latency == pytest.approx(expected)

    def test_paper_testbed_guarantee(self):
        """Section 6.1: the memcached tenant's guarantee works out to
        about 2.01 ms for its ~1 KB responses at Bmax = 1 Gbps... the
        paper quotes 2.01 ms for the full message exchange; here we check
        the formula's components are consistent."""
        g = NetworkGuarantee(bandwidth=units.mbps(210),
                             burst=1.5 * units.KB, delay=units.msec(1),
                             peak_rate=units.gbps(1))
        bound = g.message_latency_bound(1.5 * units.KB)
        assert bound == pytest.approx(
            1.5 * units.KB / units.gbps(1) + units.msec(1))

    def test_no_peak_rate_means_bandwidth(self):
        latency = message_latency_bound(1000.0, bandwidth=100.0,
                                        burst=0.0, delay=0.0)
        assert latency == pytest.approx(10.0)

    def test_monotone_in_message_size(self):
        sizes = [1e3, 1e4, 1e5, 1e6]
        bounds = [message_latency_bound(s, units.gbps(1), 15 * units.KB,
                                        units.msec(1), units.gbps(10))
                  for s in sizes]
        assert bounds == sorted(bounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            message_latency_bound(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            message_latency_bound(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            message_latency_bound(1.0, 10.0, 1.0, 1.0, peak_rate=5.0)


class TestHelpers:
    def test_web_search_example(self):
        """The paper's intro example: a task with a 20 ms budget that
        knows messages take at most 4 ms can compute for 16 ms."""
        g = NetworkGuarantee(bandwidth=units.mbps(100),
                             burst=20 * units.KB, delay=units.msec(1),
                             peak_rate=units.gbps(1))
        bound = g.message_latency_bound(20 * units.KB)
        assert bound < units.msec(4)
        compute_budget = units.msec(20) - bound
        assert compute_budget > units.msec(16)
