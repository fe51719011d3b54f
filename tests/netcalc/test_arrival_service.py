"""Arrival-curve constructors and service curves."""

import pytest

from repro import units
from repro.netcalc.arrival import dual_rate, token_bucket
from repro.netcalc.service import (
    RateLatencyService,
    constant_rate,
    store_and_forward,
)


class TestTokenBucket:
    def test_shape(self):
        curve = token_bucket(100.0, 50.0)
        assert curve(0.0) == 50.0
        assert curve(1.0) == 150.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            token_bucket(-1.0, 0.0)
        with pytest.raises(ValueError):
            token_bucket(1.0, -1.0)


class TestDualRate:
    def test_two_pieces(self):
        curve = dual_rate(rate=10.0, burst=100.0, peak_rate=50.0,
                          packet_size=5.0)
        assert curve.peak_rate == 50.0
        assert curve.sustained_rate == 10.0
        assert curve(0.0) == 5.0

    def test_degenerates_without_headroom(self):
        curve = dual_rate(rate=10.0, burst=100.0, peak_rate=10.0,
                          packet_size=5.0)
        assert len(curve.pieces) == 1
        assert curve.burst == 5.0

    def test_degenerates_when_burst_fits_one_packet(self):
        curve = dual_rate(rate=10.0, burst=3.0, peak_rate=100.0,
                          packet_size=5.0)
        assert len(curve.pieces) == 1

    def test_rejects_peak_below_rate(self):
        with pytest.raises(ValueError):
            dual_rate(rate=10.0, burst=1.0, peak_rate=5.0)

    def test_matches_paper_figure_6a(self):
        """A'(t) lies below A(t) = Bt + S everywhere, equal eventually."""
        B, S, Bmax = units.gbps(1), 100 * units.KB, units.gbps(10)
        plain = token_bucket(B, S)
        limited = dual_rate(B, S, Bmax)
        assert plain.dominates(limited)
        # After the burst is drained at Bmax the curves coincide.
        t_join = (S - units.MTU) / (Bmax - B)
        assert limited(2 * t_join) == pytest.approx(plain(2 * t_join),
                                                    rel=1e-6)


class TestServiceCurves:
    def test_constant_rate(self):
        beta = constant_rate(10.0)
        assert beta(0.0) == 0.0
        assert beta(2.0) == 20.0

    def test_rate_latency(self):
        beta = RateLatencyService(rate=10.0, latency=1.0)
        assert beta(0.5) == 0.0
        assert beta(1.0) == 0.0
        assert beta(2.0) == 10.0

    def test_store_and_forward_latency(self):
        beta = store_and_forward(rate=1500.0, packet_size=1500.0)
        assert beta.latency == pytest.approx(1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RateLatencyService(rate=0.0)
        with pytest.raises(ValueError):
            RateLatencyService(rate=1.0, latency=-1.0)
