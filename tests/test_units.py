"""Unit conversions: the boundary everything else depends on."""

import pytest

from repro import units


class TestRates:
    def test_gbps_round_trip(self):
        assert units.to_gbps(units.gbps(10)) == pytest.approx(10.0)
        assert units.gbps(10) == pytest.approx(1.25e9)

    def test_mbps_round_trip(self):
        assert units.to_mbps(units.mbps(250)) == pytest.approx(250.0)
        assert units.mbps(250) == pytest.approx(31.25e6)


class TestTimes:
    def test_usec_msec(self):
        assert units.usec(250) == pytest.approx(250e-6)
        assert units.msec(1) == pytest.approx(1e-3)
        assert units.to_usec(250e-6) == pytest.approx(250.0)
        assert units.to_msec(2e-3) == pytest.approx(2.0)


class TestConstants:
    def test_paper_figures(self):
        # 84 wire bytes at 10 Gbps = the paper's 68 ns spacing quantum.
        assert units.MIN_WIRE_FRAME / units.gbps(10) == pytest.approx(
            67.2e-9)
        assert units.MTU == 1500
