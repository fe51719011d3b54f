"""The Fig. 8 token-bucket hierarchy (FIFO stamping order)."""

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.pacer.hierarchy import PacerConfig, VMPacer


def make_pacer(bandwidth=units.gbps(1), burst=15 * units.KB,
               peak=units.gbps(10)):
    config = PacerConfig(bandwidth=bandwidth, burst=burst, peak_rate=peak)
    return VMPacer(config)


class TestPacerConfig:
    def test_from_guarantee(self):
        guarantee = NetworkGuarantee(bandwidth=units.gbps(1),
                                     burst=15 * units.KB,
                                     delay=units.msec(1),
                                     peak_rate=units.gbps(10))
        config = PacerConfig.from_guarantee(guarantee)
        assert config.bandwidth == guarantee.bandwidth
        assert config.peak_rate == units.gbps(10)

    def test_burst_floor_is_one_packet(self):
        guarantee = NetworkGuarantee(bandwidth=units.gbps(1), burst=10.0)
        config = PacerConfig.from_guarantee(guarantee)
        assert config.burst == units.MTU


class TestStamping:
    def test_burst_passes_at_peak_rate_spacing(self):
        pacer = make_pacer()
        stamps = [pacer.stamp("d", units.MTU, 0.0) for _ in range(5)]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        # Within the burst allowance, spacing is set by Bmax.
        expected = units.MTU / units.gbps(10)
        for gap in gaps:
            assert gap == pytest.approx(expected)

    def test_post_burst_spacing_is_bandwidth(self):
        pacer = make_pacer(burst=2 * units.MTU)
        stamps = [pacer.stamp("d", units.MTU, 0.0) for _ in range(10)]
        late_gaps = [b - a for a, b in zip(stamps[4:], stamps[5:])]
        expected = units.MTU / units.gbps(1)
        for gap in late_gaps:
            assert gap == pytest.approx(expected, rel=1e-6)

    def test_stamps_are_monotonic(self):
        pacer = make_pacer()
        stamps = [pacer.stamp("d", 500.0, t * 1e-6)
                  for t in range(50)]
        assert stamps == sorted(stamps)

    def test_destination_rate_is_enforced(self):
        pacer = make_pacer(burst=units.MTU)
        pacer.set_destination_rate("d", units.mbps(100), 0.0)
        stamps = [pacer.stamp("d", units.MTU, 0.0) for _ in range(5)]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        expected = units.MTU / units.mbps(100)
        for gap in gaps[1:]:
            assert gap == pytest.approx(expected, rel=1e-6)

    def test_aggregate_rate_conforms_to_tenant_bucket(self):
        """Total stamped bytes over a window never exceed B*t + S."""
        bandwidth = units.gbps(1)
        burst = 15 * units.KB
        pacer = make_pacer(bandwidth=bandwidth, burst=burst)
        stamps = []
        for i in range(300):
            dest = f"d{i % 3}"
            stamps.append(pacer.stamp(dest, units.MTU, 0.0))
        span = stamps[-1] - stamps[0]
        total = 300 * units.MTU
        assert total <= bandwidth * span + burst + 2 * units.MTU
