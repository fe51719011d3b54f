"""Trace conformance checking, including shaper-output round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core import EventEngine
from repro.netcalc.arrival import dual_rate, token_bucket
from repro.netcalc.trace import check_conformance, conforms
from repro.pacer.hierarchy import PacerConfig, VMPacer
from repro.pacer.token_bucket import TokenBucket
from repro.phynet.shaper import VMShaper


class TestBasics:
    def test_empty_trace_conforms(self):
        assert conforms([], token_bucket(10.0, 100.0))

    def test_within_burst_conforms(self):
        curve = token_bucket(10.0, 100.0)
        assert conforms([(0.0, 50.0), (0.0, 50.0)], curve)

    def test_burst_overflow_detected(self):
        curve = token_bucket(10.0, 100.0)
        violation = check_conformance([(0.0, 80.0), (0.0, 80.0)], curve)
        assert violation is not None
        assert violation.excess == pytest.approx(60.0)

    def test_rate_overflow_detected_over_window(self):
        curve = token_bucket(10.0, 20.0)
        # 3 x 20 bytes in one second: 60 > 10 * 1 + 20.
        trace = [(0.0, 20.0), (0.5, 20.0), (1.0, 20.0)]
        violation = check_conformance(trace, curve)
        assert violation is not None
        assert violation.start == 0.0 and violation.end == 1.0

    def test_sustained_rate_conforms(self):
        curve = token_bucket(10.0, 20.0)
        trace = [(i * 2.0, 20.0) for i in range(100)]
        assert conforms(trace, curve)

    def test_interior_window_violation_found(self):
        """A violation buried mid-trace must be caught, not only ones
        anchored at the first packet."""
        curve = token_bucket(10.0, 20.0)
        trace = [(0.0, 20.0), (10.0, 20.0), (10.0, 20.0), (10.1, 20.0)]
        violation = check_conformance(trace, curve)
        assert violation is not None
        assert violation.start >= 10.0

    def test_validation(self):
        curve = token_bucket(1.0, 1.0)
        with pytest.raises(ValueError):
            check_conformance([(1.0, 1.0), (0.5, 1.0)], curve)
        with pytest.raises(ValueError):
            check_conformance([(0.0, 0.0)], curve)


class TestShaperConformance:
    """The load-bearing property: shaper output obeys the admission curve."""

    def test_token_bucket_stamps_conform(self):
        rate, capacity = 1000.0, 5000.0
        bucket = TokenBucket(rate, capacity)
        trace = [(bucket.stamp(400.0, 0.0), 400.0) for _ in range(200)]
        assert conforms(trace, token_bucket(rate, capacity),
                        tolerance=400.0 + 1e-6)

    def test_vmpacer_output_conforms_to_dual_rate_curve(self):
        config = PacerConfig(bandwidth=units.gbps(1), burst=15 * units.KB,
                             peak_rate=units.gbps(10))
        pacer = VMPacer(config)
        rng = random.Random(3)
        now = 0.0
        trace = []
        for _ in range(500):
            now += rng.expovariate(1.0 / 20e-6)
            trace.append((pacer.stamp("d", units.MTU, now), units.MTU))
        curve = dual_rate(config.bandwidth, config.burst, config.peak_rate,
                          packet_size=config.packet_size)
        assert conforms(trace, curve, tolerance=units.MTU + 1e-6)

    def test_event_driven_shaper_output_conforms(self):
        class P:
            __slots__ = ("dst", "size")

            def __init__(self, dst):
                self.dst = dst
                self.size = units.MTU

        sim = EventEngine()
        released = []
        config = PacerConfig(bandwidth=units.gbps(1), burst=15 * units.KB,
                             peak_rate=units.gbps(10))
        shaper = VMShaper(sim, config,
                          release=lambda p: released.append(
                              (sim.now, p.size)))
        for i in range(400):
            shaper.submit(P(i % 4))
        sim.run(until=1.0)
        assert len(released) == 400
        curve = dual_rate(config.bandwidth, config.burst,
                          config.peak_rate,
                          packet_size=config.packet_size)
        assert conforms(released, curve, tolerance=units.MTU + 1e-6)


rates = st.floats(min_value=10.0, max_value=1e4)
bursts = st.floats(min_value=100.0, max_value=1e5)


@settings(max_examples=40, deadline=None)
@given(rates, bursts, st.integers(min_value=1, max_value=100),
       st.integers(min_value=0, max_value=2 ** 20))
def test_property_bucket_output_always_conforms(rate, capacity, n, seed):
    """Whatever the arrival pattern, a token bucket's stamps conform to
    its own curve (up to one packet of slack at t=0 granularity)."""
    rng = random.Random(seed)
    bucket = TokenBucket(rate, capacity)
    now = 0.0
    trace = []
    size = min(capacity, 150.0)
    for _ in range(n):
        now += rng.expovariate(100.0)
        trace.append((bucket.stamp(size, now), size))
    assert conforms(trace, token_bucket(rate, capacity),
                    tolerance=size + 1e-6)
