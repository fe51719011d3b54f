"""Priority-aware buffer admission: push-out protects guaranteed traffic."""

import pytest

from repro import units
from repro.core import EventEngine
from repro.phynet.packet import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_GUARANTEED,
    Packet,
)
from repro.phynet.port import OutputPort


def port(sim, buffer_bytes=4500.0):
    delivered = []
    p = OutputPort(sim, "t", units.gbps(10), buffer_bytes,
                   on_delivery=delivered.append)
    return p, delivered


def packet(priority):
    return Packet(src=0, dst=1, size=1500.0, route=[], priority=priority)


class TestPushOut:
    def test_guaranteed_evicts_best_effort(self):
        sim = EventEngine()
        p, delivered = port(sim)
        # One packet transmits immediately; fill the 3-packet buffer with
        # best effort, then offer guaranteed traffic.
        blocker = packet(PRIORITY_GUARANTEED)
        p.enqueue(blocker)
        low = [packet(PRIORITY_BEST_EFFORT) for _ in range(3)]
        for pk in low:
            p.enqueue(pk)
        high = [packet(PRIORITY_GUARANTEED) for _ in range(3)]
        for pk in high:
            p.enqueue(pk)
        sim.run()
        # All guaranteed packets made it; best effort was pushed out.
        for pk in high:
            assert pk in delivered
        # Evictions are pushouts, not tail drops: conflating the two made
        # drop-rate metrics blame congestion for deliberate evictions.
        assert p.stats.pushouts == 3
        assert p.stats.pushed_out_bytes == 3 * 1500.0
        assert p.stats.drops == 0
        assert p.stats.dropped_bytes == 0.0

    def test_guaranteed_still_drops_against_guaranteed(self):
        sim = EventEngine()
        p, delivered = port(sim)
        packets = [packet(PRIORITY_GUARANTEED) for _ in range(8)]
        for pk in packets:
            p.enqueue(pk)
        sim.run()
        # No class to push out: classic drop-tail within the class.
        assert p.stats.drops > 0
        assert len(delivered) + p.stats.drops == 8

    def test_best_effort_never_evicts_anything(self):
        sim = EventEngine()
        p, delivered = port(sim)
        blocker = packet(PRIORITY_GUARANTEED)
        p.enqueue(blocker)
        high = [packet(PRIORITY_GUARANTEED) for _ in range(3)]
        for pk in high:
            p.enqueue(pk)
        low = packet(PRIORITY_BEST_EFFORT)
        p.enqueue(low)
        sim.run()
        assert low not in delivered
        for pk in high:
            assert pk in delivered

    def test_eviction_notifies_victim_flow(self):
        class Spy:
            def __init__(self):
                self.drops = []

            def on_drop(self, pk):
                self.drops.append(pk)

        sim = EventEngine()
        p, _ = port(sim)
        spy = Spy()
        p.enqueue(packet(PRIORITY_GUARANTEED))  # occupies the wire
        victim = packet(PRIORITY_BEST_EFFORT)
        victim.flow = spy
        for _ in range(3):
            p.enqueue(packet(PRIORITY_BEST_EFFORT))
        # Buffer is full of BE; this high packet evicts from the BE tail.
        p.enqueue(victim)  # dropped on entry (buffer full, BE)
        sim.run()
        assert victim in spy.drops
