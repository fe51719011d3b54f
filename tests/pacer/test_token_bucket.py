"""Virtual token buckets: conformance and stamping semantics."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.pacer.token_bucket import TokenBucket
from repro.phynet.shaper import _TIME_EPS


class TestBasics:
    def test_starts_full(self):
        bucket = TokenBucket(rate=100.0, capacity=500.0)
        assert bucket.tokens_at(0.0) == 500.0

    def test_refills_at_rate_up_to_capacity(self):
        bucket = TokenBucket(rate=100.0, capacity=500.0)
        bucket.stamp(500.0, 0.0)
        assert bucket.tokens_at(1.0) == pytest.approx(100.0)
        assert bucket.tokens_at(100.0) == pytest.approx(500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=1.0).stamp(0.0, 0.0)


class TestStamping:
    def test_burst_departs_immediately(self):
        bucket = TokenBucket(rate=100.0, capacity=500.0)
        assert bucket.stamp(300.0, 0.0) == 0.0
        assert bucket.stamp(200.0, 0.0) == 0.0

    def test_deficit_defers_departure(self):
        bucket = TokenBucket(rate=100.0, capacity=500.0)
        bucket.stamp(500.0, 0.0)
        # 200 bytes need 2 seconds of refill.
        assert bucket.stamp(200.0, 0.0) == pytest.approx(2.0)

    def test_back_to_back_spacing_equals_rate(self):
        bucket = TokenBucket(rate=100.0, capacity=100.0)
        stamps = [bucket.stamp(100.0, 0.0) for _ in range(5)]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(g == pytest.approx(1.0) for g in gaps)

    def test_earlier_now_clamps_to_virtual_clock(self):
        bucket = TokenBucket(rate=100.0, capacity=100.0)
        t1 = bucket.stamp(100.0, 0.0)
        t2 = bucket.stamp(100.0, 0.0)
        # A third packet "arriving" before the clock still departs after.
        t3 = bucket.stamp(100.0, 0.5)
        assert t1 <= t2 <= t3

    def test_long_idle_restores_full_burst(self):
        bucket = TokenBucket(rate=100.0, capacity=300.0)
        for _ in range(5):
            bucket.stamp(300.0, 0.0)
        assert bucket.stamp(300.0, 1000.0) == pytest.approx(1000.0)


class TestConformance:
    def test_output_conforms_to_arrival_curve(self):
        """In any window [t, t+tau] at most capacity + rate*tau bytes may
        be stamped -- the property placement's analysis assumes."""
        rate, capacity, size = 125.0, 1000.0, 150.0
        bucket = TokenBucket(rate=rate, capacity=capacity)
        stamps = [bucket.stamp(size, 0.0) for _ in range(200)]
        for i, start in enumerate(stamps):
            for j in range(i, len(stamps)):
                tau = stamps[j] - start
                sent = (j - i + 1) * size
                assert sent <= capacity + rate * tau + size + 1e-6

    def test_would_stamp_matches_stamp_without_debit(self):
        bucket = TokenBucket(rate=100.0, capacity=500.0)
        bucket.stamp(450.0, 0.0)
        predicted = bucket.would_stamp(200.0, 0.0)
        actual = bucket.stamp(200.0, 0.0)
        assert predicted == pytest.approx(actual)
        # would_stamp twice returns the same answer (no debit happened).
        bucket2 = TokenBucket(rate=100.0, capacity=500.0)
        assert (bucket2.would_stamp(100.0, 0.0)
                == bucket2.would_stamp(100.0, 0.0))


class TestRateChange:
    def test_set_rate_applies_forward(self):
        bucket = TokenBucket(rate=100.0, capacity=100.0)
        bucket.stamp(100.0, 0.0)
        bucket.set_rate(50.0, 0.0)
        # Refill now happens at 50 B/s: a 100 B packet waits 2 s.
        assert bucket.stamp(100.0, 0.0) == pytest.approx(2.0)

    def test_set_rate_validates(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=1.0).set_rate(0.0, 0.0)


class TestWouldStampMargin:
    """The margin ``VMShaper``'s head index rests on.

    The shaper files each backlogged destination under its bucket's
    ``would_stamp(head.size, t) - _TIME_EPS`` and trusts that bound until
    the bucket or the head changes.  That is exact only if, for an
    untouched bucket, a later ``now`` never answers earlier by
    ``_TIME_EPS`` or more; the mathematics says never earlier at all, so
    what is checked here is that float rounding stays inside the margin.
    """

    RATES = st.floats(units.mbps(1), units.gbps(40))
    SIZES = st.floats(1.0, 64 * units.KB)
    #: Zero, ulp-scale and packet-scale gaps between instants.
    GAPS = st.one_of(st.just(0.0), st.floats(0.0, 1e-9),
                     st.floats(0.0, 2e-3))
    #: What happened to the bucket before the probes: stamps leave it
    #: partly filled or in deficit, re-rates change the refill slope.
    HISTORY = st.lists(st.one_of(
        st.tuples(st.just("stamp"), SIZES, GAPS),
        st.tuples(st.just("rate"), RATES, GAPS)), max_size=12)

    @settings(max_examples=500, deadline=None)
    # A partly filled bucket answering one ulp (5.6e-17 s) earlier 80 ps
    # later: the rounding is real, and the margin covers it.
    @example(rate=125000.0, capacity=64.0, start=0.0,
             history=[("stamp", 1.0, 0.0), ("stamp", 1.0, 0.0)],
             size=53591.125, gap1=3.241643577633054e-10,
             gap2=7.949906127846276e-11, toward=None)
    @given(rate=RATES, capacity=st.floats(64.0, units.MB), start=st.floats(
        0.0, 1.0), history=HISTORY, size=SIZES, gap1=GAPS, gap2=GAPS,
        toward=st.none() | st.tuples(st.floats(0.0, 1.0),
                                     st.floats(0.0, 1.0)))
    def test_later_now_never_answers_earlier_beyond_eps(
            self, rate, capacity, start, history, size, gap1, gap2, toward):
        bucket = TokenBucket(rate, capacity, start)
        now = start
        for op, value, gap in history:
            now += gap
            if op == "stamp":
                bucket.stamp(value, now)
            else:
                bucket.set_rate(value, now)
        if toward is None:
            now1 = now + gap1
            now2 = now1 + gap2
        else:
            # Both probes before the head becomes eligible, where the
            # answer ``now + (size - tokens) / rate`` is the same instant
            # computed through different roundings.
            eligible = bucket.would_stamp(size, now)
            now1 = now + toward[0] * (eligible - now)
            now2 = now1 + toward[1] * (eligible - now1)
        assert (bucket.would_stamp(size, now2)
                >= bucket.would_stamp(size, now1) - _TIME_EPS)
