"""Hose-model aggregation and burst propagation (paper section 4.2.2)."""

import pytest

from repro import units
from repro.netcalc.arrival import token_bucket

from curve_aggregate import (
    cap_at_link,
    egress_curve,
    hose_aggregate,
    sum_curves,
)


class TestHoseAggregate:
    def test_bandwidth_uses_min_of_both_sides(self):
        # Paper: m VMs left of a cut, N - m right; bandwidth is
        # min(m, N-m) * B, burst is m * S.
        curve = hose_aggregate(m=6, n_total=9, bandwidth=10.0, burst=5.0)
        assert curve.sustained_rate == pytest.approx(3 * 10.0)
        assert curve.burst == pytest.approx(6 * 5.0)

    def test_symmetric_cut(self):
        curve = hose_aggregate(m=4, n_total=8, bandwidth=10.0, burst=5.0)
        assert curve.sustained_rate == pytest.approx(40.0)
        assert curve.burst == pytest.approx(20.0)

    def test_tighter_than_naive_sum(self):
        naive = token_bucket(6 * 10.0, 6 * 5.0)
        tight = hose_aggregate(m=6, n_total=9, bandwidth=10.0, burst=5.0)
        assert naive.dominates(tight)
        assert not tight.dominates(naive)

    def test_peak_rate_limits_burst_drain(self):
        curve = hose_aggregate(m=2, n_total=4, bandwidth=10.0, burst=500.0,
                               peak_rate=100.0, packet_size=10.0)
        assert curve.peak_rate == pytest.approx(200.0)
        assert curve.sustained_rate == pytest.approx(20.0)

    def test_rejects_degenerate_cut(self):
        with pytest.raises(ValueError):
            hose_aggregate(m=0, n_total=5, bandwidth=1.0, burst=1.0)
        with pytest.raises(ValueError):
            hose_aggregate(m=5, n_total=5, bandwidth=1.0, burst=1.0)


class TestCapAtLink:
    def test_cap_limits_short_term_rate(self):
        curve = token_bucket(5.0, 1000.0)
        capped = cap_at_link(curve, link_rate=50.0, packet_size=10.0)
        assert capped(0.0) == pytest.approx(10.0)
        # Long term the token bucket is the binding constraint again.
        assert capped.sustained_rate == pytest.approx(5.0)

    def test_cap_noop_when_link_is_fast(self):
        curve = token_bucket(5.0, 8.0)
        capped = cap_at_link(curve, link_rate=1e9, packet_size=10.0)
        for t in [0.0, 1.0, 10.0]:
            assert capped(t) == pytest.approx(curve(t))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            cap_at_link(token_bucket(1.0, 1.0), 0.0)


class TestEgressPropagation:
    def test_token_bucket_burst_inflates_by_rate_times_capacity(self):
        # Paper: A_{B,S} through a port of queue capacity c egresses as
        # A_{B, B*c + S}.
        ingress = token_bucket(10.0, 100.0)
        egress = egress_curve(ingress, queue_capacity_seconds=2.0)
        assert egress.burst == pytest.approx(100.0 + 20.0)
        assert egress.sustained_rate == pytest.approx(10.0)

    def test_zero_capacity_is_identity(self):
        ingress = token_bucket(10.0, 100.0)
        egress = egress_curve(ingress, 0.0)
        assert egress == ingress

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            egress_curve(token_bucket(1.0, 1.0), -0.1)

    def test_egress_dominates_ingress(self):
        ingress = token_bucket(10.0, 100.0)
        egress = egress_curve(ingress, 1.5)
        assert egress.dominates(ingress)


class TestSumCurves:
    def test_sum_none_for_empty(self):
        assert sum_curves([]) is None

    def test_sum_matches_manual(self):
        a, b, c = (token_bucket(1.0, 2.0), token_bucket(3.0, 4.0),
                   token_bucket(5.0, 6.0))
        total = sum_curves([a, b, c])
        assert total.sustained_rate == pytest.approx(9.0)
        assert total.burst == pytest.approx(12.0)
