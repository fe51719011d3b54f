"""Regressions for two output-port bookkeeping bugs.

1. ECN marking fired one packet late: ``_mark_if_needed`` compared the
   queue depth *before* counting the arriving packet, so the packet that
   took the queue past K sailed through unmarked and the congestion
   signal lagged the queue by one arrival.
2. A port created mid-run started its phantom-queue drain clock at 0.0
   instead of the creation time, granting it the whole elapsed history as
   drain credit.
"""

from repro import units
from repro.core import EventEngine
from repro.phynet.packet import Packet
from repro.phynet.port import OutputPort


def packet(size=1500.0):
    return Packet(src=0, dst=1, size=size, route=[])


class TestMarkingCountsArrivingPacket:
    def test_first_packet_over_threshold_is_marked(self):
        """A single arrival that alone exceeds K must be marked."""
        sim = EventEngine()
        port = OutputPort(sim, "t", units.gbps(10), 1e6,
                          ecn_threshold=1000.0)
        p = packet(size=1500.0)
        port.enqueue(p)
        assert p.ecn  # queue including p is 1500 > K=1000

    def test_exactly_the_crossing_packet_is_marked(self):
        """DCTCP marks on instantaneous occupancy at arrival: the packet
        that crosses K is the first one marked, not its successor."""
        sim = EventEngine()
        port = OutputPort(sim, "t", units.gbps(10), 1e6,
                          ecn_threshold=2000.0)
        blocker = packet()  # takes the wire; leaves the queue empty
        port.enqueue(blocker)
        p2 = packet()  # queue (incl. itself): 1500 <= 2000
        p3 = packet()  # queue (incl. itself): 3000 > 2000
        port.enqueue(p2)
        port.enqueue(p3)
        assert not p2.ecn
        assert p3.ecn
        assert port.stats.ecn_marks == 1

    def test_phantom_counts_arriving_packet(self):
        sim = EventEngine()
        capacity = units.gbps(10)
        port = OutputPort(sim, "t", capacity, 1e6,
                          phantom_drain=0.5 * capacity,
                          phantom_threshold=1000.0)
        p = packet(size=1500.0)
        port.enqueue(p)  # phantom including p: 1500 > 1000
        assert p.ecn


class TestPhantomClockStartsAtCreation:
    def test_port_created_mid_run(self):
        sim = EventEngine()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        capacity = units.gbps(10)
        port = OutputPort(sim, "late", capacity, 1e6,
                          phantom_drain=0.5 * capacity,
                          phantom_threshold=100.0)
        # Regression: the drain clock used to start at t=0 regardless of
        # the port's creation time.
        assert port._phantom_updated == sim.now

    def test_phantom_accumulates_from_creation_not_zero(self):
        """Back-to-back line-rate arrivals right after a mid-run creation
        must grow the phantom queue exactly as they would at t=0."""
        def run(start_delay):
            sim = EventEngine()
            if start_delay:
                sim.schedule(start_delay, lambda: None)
                sim.run()
            capacity = units.gbps(10)
            # Threshold deliberately off the phantom's exact trajectory
            # (multiples of 750) so float slop at a large time origin
            # cannot flip a comparison that sits on the boundary.
            port = OutputPort(sim, "t", capacity, 1e6,
                              phantom_drain=0.5 * capacity,
                              phantom_threshold=2800.0)
            base = sim.now
            packets = [packet() for _ in range(8)]
            for i, p in enumerate(packets):
                sim.schedule_at(base + i * 1500.0 / capacity,
                                port.enqueue, p)
            sim.run()
            return [p.ecn for p in packets]

        assert run(start_delay=0.0) == run(start_delay=5.0)
