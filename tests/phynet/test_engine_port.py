"""Event engine ordering and output-port queueing behaviour."""

import pytest

from repro import units
from repro.core import EventEngine
from repro.phynet.packet import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_GUARANTEED,
    Packet,
)
from repro.phynet.port import OutputPort


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = EventEngine()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = EventEngine()
        log = []
        for name in "abc":
            sim.schedule(1.0, log.append, name)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_run_until_stops_and_advances_clock(self):
        sim = EventEngine()
        log = []
        sim.schedule(5.0, log.append, "late")
        sim.run(until=2.0)
        assert log == []
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert log == ["late"]

    def test_cannot_schedule_in_the_past(self):
        sim = EventEngine()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_time_is_rejected(self):
        # A NaN stamp would sort before real events and run its callback
        # with ``now = nan``.
        sim = EventEngine()
        fired = []
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), fired.append, "nan")
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), fired.append, "nan")
        sim.schedule(0.5, fired.append, "real")
        sim.run()
        assert fired == ["real"]
        assert sim.now == 0.5

    def test_infinite_time_is_allowed(self):
        # A zero-rate token bucket arms at +inf: queued, never fired.
        sim = EventEngine()
        fired = []
        sim.schedule(float("inf"), fired.append, "never")
        sim.schedule_at(float("inf"), fired.append, "never")
        sim.run(until=1.0)
        assert fired == []
        assert sim.pending_events == 2

    def test_stop_aborts_run(self):
        sim = EventEngine()
        log = []
        sim.schedule(1.0, lambda: (log.append(1), sim.stop()))
        sim.schedule(2.0, log.append, 2)
        sim.run()
        assert log == [1]
        assert sim.pending_events == 1


def make_port(sim, capacity=units.gbps(10), buffer_bytes=10 * units.KB,
              delivered=None, **kwargs):
    return OutputPort(sim, "test", capacity, buffer_bytes,
                      on_delivery=(delivered.append
                                   if delivered is not None else None),
                      **kwargs)


def packet(size=1500.0, route=None, priority=PRIORITY_GUARANTEED):
    return Packet(src=0, dst=1, size=size, route=route or [],
                  priority=priority)


class TestOutputPort:
    def test_serialization_delay(self):
        sim = EventEngine()
        delivered = []
        port = make_port(sim, delivered=delivered, prop_delay=0.0)
        port.enqueue(packet(size=1250.0))
        sim.run()
        assert delivered
        assert sim.now == pytest.approx(1250.0 / units.gbps(10))

    def test_fifo_within_priority(self):
        sim = EventEngine()
        delivered = []
        port = make_port(sim, delivered=delivered)
        first, second = packet(), packet()
        port.enqueue(first)
        port.enqueue(second)
        sim.run()
        assert delivered == [first, second]

    def test_strict_priority(self):
        sim = EventEngine()
        delivered = []
        port = make_port(sim, delivered=delivered, buffer_bytes=1e6)
        blocker = packet()           # grabs the wire
        low = packet(priority=PRIORITY_BEST_EFFORT)
        high = packet()
        port.enqueue(blocker)
        port.enqueue(low)
        port.enqueue(high)
        sim.run()
        assert delivered == [blocker, high, low]

    def test_drop_tail(self):
        sim = EventEngine()
        port = make_port(sim, buffer_bytes=3000.0)
        for _ in range(5):
            port.enqueue(packet(size=1500.0))
        assert port.stats.drops >= 1
        # Queued + transmitting never exceed the buffer.
        assert port.stats.max_queue_bytes <= 3000.0

    def test_drop_notifies_flow(self):
        class FlowSpy:
            def __init__(self):
                self.dropped = []

            def on_drop(self, pkt):
                self.dropped.append(pkt)

        sim = EventEngine()
        port = make_port(sim, buffer_bytes=1600.0)
        spy = FlowSpy()
        for _ in range(3):
            p = packet()
            p.flow = spy
            port.enqueue(p)
        assert len(spy.dropped) >= 1

    def test_ecn_marking_threshold(self):
        sim = EventEngine()
        port = make_port(sim, buffer_bytes=1e6, ecn_threshold=2000.0)
        packets = [packet() for _ in range(4)]
        for p in packets:
            port.enqueue(p)
        # Later packets found the queue above threshold.
        assert any(p.ecn for p in packets)
        assert not packets[0].ecn

    def test_phantom_queue_marks_below_line_rate(self):
        """HULL: sustained arrivals above the phantom drain rate get
        marked even though the real queue stays empty."""
        sim = EventEngine()
        capacity = units.gbps(10)
        port = make_port(sim, capacity=capacity, buffer_bytes=1e6,
                         phantom_drain=0.5 * capacity,
                         phantom_threshold=3000.0)
        marked = 0
        # Feed at exactly line rate: real queue ~1 packet, phantom grows.
        for i in range(20):
            p = packet()
            sim.schedule_at(i * 1500.0 / capacity, port.enqueue, p)
        sim.run()
        assert port.stats.ecn_marks > 0
        assert port.stats.drops == 0

    def test_utilization(self):
        sim = EventEngine()
        port = make_port(sim, prop_delay=0.0)
        port.enqueue(packet(size=1250.0))
        sim.run()
        elapsed = sim.now
        assert port.utilization(elapsed) == pytest.approx(1.0)

    def test_forwards_along_route(self):
        sim = EventEngine()
        delivered = []
        last = make_port(sim, delivered=delivered)
        first = OutputPort(sim, "first", units.gbps(10), 1e6)
        p = Packet(src=0, dst=1, size=1500.0, route=[first, last])
        first.enqueue(p)
        sim.run()
        assert delivered == [p]
        assert p.hop == 2

    @pytest.mark.parametrize("field, value", [
        ("capacity", float("nan")), ("capacity", float("inf")),
        ("capacity", 0.0), ("buffer_bytes", float("nan")),
        ("buffer_bytes", float("inf")), ("buffer_bytes", -1.0),
        ("prop_delay", float("nan")), ("prop_delay", -1e-6),
    ])
    def test_constructor_rejects_non_finite_or_negative(self, field, value):
        with pytest.raises(ValueError):
            make_port(EventEngine(), **{field: value})

    def test_fault_factor_rejects_nan(self):
        port = make_port(EventEngine())
        for factor in (float("nan"), -0.1, 1.1):
            with pytest.raises(ValueError):
                port.set_fault_factor(factor)
        assert port.fault_factor == 1.0
