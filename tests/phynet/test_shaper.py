"""The event-driven hierarchical shaper (Fig. 8 as a scheduler)."""

import pytest

from repro import units
from repro.core import EventEngine
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.shaper import VMShaper


class FakePacket:
    __slots__ = ("dst", "size")

    def __init__(self, dst, size=units.MTU):
        self.dst = dst
        self.size = size


def build(bandwidth=units.gbps(2), burst=1.5 * units.KB,
          peak=None):
    sim = EventEngine()
    released = []
    config = PacerConfig(bandwidth=bandwidth, burst=burst,
                         peak_rate=peak or bandwidth)
    shaper = VMShaper(sim, config,
                      release=lambda p: released.append((sim.now, p)))
    return sim, shaper, released


class TestSingleDestination:
    def test_burst_then_rate(self):
        sim, shaper, released = build(bandwidth=units.gbps(1),
                                      burst=3 * units.MTU,
                                      peak=units.gbps(10))
        for _ in range(6):
            shaper.submit(FakePacket("d"))
        sim.run(until=1.0)
        assert len(released) == 6
        times = [t for t, _ in released]
        # First packets ride the burst at Bmax spacing; later ones at B.
        late_gaps = [b - a for a, b in zip(times[3:], times[4:])]
        expected = units.MTU / units.gbps(1)
        for gap in late_gaps:
            assert gap == pytest.approx(expected, rel=1e-6)

    def test_fifo_per_destination(self):
        sim, shaper, released = build()
        first, second = FakePacket("d"), FakePacket("d")
        shaper.submit(first)
        shaper.submit(second)
        sim.run(until=1.0)
        assert [p for _, p in released] == [first, second]

    def test_backlog_accounting(self):
        sim, shaper, released = build(bandwidth=units.mbps(10))
        for _ in range(5):
            shaper.submit(FakePacket("d"))
        assert shaper.backlog > 0
        assert shaper.destination_backlog("d") == shaper.backlog
        sim.run(until=10.0)
        assert shaper.backlog == pytest.approx(0.0)
        assert shaper.destination_backlog("d") == pytest.approx(0.0)


class TestMultipleDestinations:
    def test_aggregate_conforms_to_tenant_bucket(self):
        bandwidth = units.gbps(2)
        sim, shaper, released = build(bandwidth=bandwidth)
        for i in range(300):
            shaper.submit(FakePacket(i % 5))
        sim.run(until=1.0)
        assert len(released) == 300
        times = [t for t, _ in released]
        span = times[-1] - times[0]
        sent = 300 * units.MTU
        assert sent <= bandwidth * span + shaper.config.burst + 2 * units.MTU

    def test_independent_destinations_do_not_couple(self):
        """A deeply backlogged destination must not delay a fresh packet
        to an idle destination beyond the shared buckets' constraint --
        the property the FIFO VMPacer lacks."""
        sim, shaper, released = build(bandwidth=units.gbps(2))
        shaper.set_destination_rate("slow", units.mbps(10))
        for _ in range(50):
            shaper.submit(FakePacket("slow"))
        # Let the slow queue become deeply backlogged.
        sim.run(until=0.001)
        released.clear()
        fresh = FakePacket("idle")
        shaper.submit(fresh)
        sim.run(until=0.002)
        fresh_times = [t for t, p in released if p is fresh]
        assert fresh_times, "idle-destination packet never released"
        # It left promptly (within a few packet times at B), not behind
        # the slow destination's multi-ms backlog.
        assert fresh_times[0] <= 0.001 + 10 * units.MTU / units.gbps(2)

    def test_per_destination_rates(self):
        sim, shaper, released = build(bandwidth=units.gbps(2))
        shaper.set_destination_rate("a", units.gbps(1))
        shaper.set_destination_rate("b", units.gbps(1))
        for _ in range(100):
            shaper.submit(FakePacket("a"))
            shaper.submit(FakePacket("b"))
        sim.run(until=1.0)
        for dest in ("a", "b"):
            times = [t for t, p in released if p.dst == dest]
            span = times[-1] - times[0]
            sent = len(times) * units.MTU
            # Conforms to the destination bucket: rate 1G, burst S.
            assert sent <= units.gbps(1) * span + shaper.config.burst \
                + 2 * units.MTU

    def test_peak_rate_spaces_all_releases(self):
        sim, shaper, released = build(bandwidth=units.gbps(2),
                                      burst=30 * units.KB,
                                      peak=units.gbps(5))
        for i in range(50):
            shaper.submit(FakePacket(i % 3))
        sim.run(until=1.0)
        times = sorted(t for t, _ in released)
        min_gap = units.MTU / units.gbps(5)
        for a, b in zip(times, times[1:]):
            assert b - a >= min_gap - 1e-12


class TestWakeUpInvariant:
    """An armed wake-up moves earlier only when a head packet, a
    destination rate or a bucket balance changed."""

    @pytest.mark.parametrize("later_us", range(1, 12))
    def test_submit_behind_head_schedules_nothing(self, later_us):
        """The second packet waits 12 us on a bucket the first one emptied.

        Submitting a third behind it while the bucket is partly refilled
        changes no head, rate or balance, so the engine must see zero new
        events.  A rescan at ``later_us = 10`` answers 1.1999999999999999e-05
        against the armed 1.2e-05 -- one ulp of float rounding -- which
        made the shaper arm a spurious second wake-up before it kept this
        invariant.
        """
        sim, shaper, released = build(bandwidth=units.gbps(1))
        shaper.submit(FakePacket("d"))
        shaper.submit(FakePacket("d"))
        sim.run(until=later_us * 1e-6)
        assert len(released) == 1
        pending = sim.pending_events
        shaper.submit(FakePacket("d"))
        assert sim.pending_events == pending
        sim.run(until=1.0)
        assert [t for t, _ in released] == pytest.approx(
            [0.0, 12e-6, 24e-6], abs=1e-12)

    def test_new_head_and_rate_change_do_re_arm(self):
        """The changes the invariant names still pull the wake-up in."""
        sim, shaper, released = build(bandwidth=units.gbps(1))
        shaper.set_destination_rate("slow", units.mbps(10))
        shaper.submit(FakePacket("slow"))
        shaper.submit(FakePacket("slow"))
        sim.run(until=1e-6)  # second "slow" packet now waits 1.2 ms
        pending = sim.pending_events
        shaper.submit(FakePacket("idle"))  # a new head, eligible at 12 us
        assert sim.pending_events == pending + 1
        sim.run(until=20e-6)
        assert [p.dst for _, p in released] == ["slow", "idle"]
        pending = sim.pending_events
        shaper.set_destination_rate("slow", units.gbps(1))
        assert sim.pending_events == pending + 1
        sim.run(until=40e-6)
        assert [p.dst for _, p in released] == ["slow", "idle", "slow"]
