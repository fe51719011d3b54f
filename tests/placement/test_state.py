"""Per-port reservation state and its conservative aggregate curve."""

import pytest

from repro import units
from repro.placement.state import Contribution, PortState
from repro.topology.switch import Port, PortKind


def make_port(capacity=units.gbps(10), buffer_bytes=312 * units.KB):
    return Port(port_id=0, kind=PortKind.TOR_DOWN, capacity=capacity,
                buffer_bytes=buffer_bytes)


def contribution(bandwidth=units.gbps(1), burst=50 * units.KB,
                 peak=units.gbps(5), slack=3 * units.MTU):
    return Contribution(bandwidth=bandwidth, burst=burst, peak_rate=peak,
                        packet_slack=slack)


class TestContribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            Contribution(bandwidth=-1, burst=0, peak_rate=0,
                         packet_slack=0)
        with pytest.raises(ValueError):
            Contribution(bandwidth=10, burst=0, peak_rate=5,
                         packet_slack=0)


class TestPortState:
    def test_add_remove_roundtrip(self):
        """Release refolds the surviving contributions, so adding one
        and refolding none leaves the port exactly empty."""
        state = PortState(make_port())
        state.add(contribution())
        state.reset_totals([])
        assert state.bandwidth == 0.0
        assert state.burst == 0.0
        assert state.peak_rate == 0.0
        assert state.is_empty

    def test_empty_port_has_one_packet_floor(self):
        state = PortState(make_port())
        # An empty port can still have one MTU in flight.
        assert state.backlog() <= units.MTU + 1e-6

    def test_queue_bound_grows_with_contributions(self):
        state = PortState(make_port())
        before = state.queue_bound()
        state.add(contribution())
        mid = state.queue_bound()
        state.add(contribution())
        after = state.queue_bound()
        assert before <= mid <= after

    def test_admits_rejects_bandwidth_overflow(self):
        state = PortState(make_port(capacity=units.gbps(10)))
        big = contribution(bandwidth=units.gbps(11), peak=units.gbps(11))
        assert not state.admits(big)

    def test_admits_rejects_buffer_overflow(self):
        # The burst converges from two 10G senders onto a 10G port, so
        # half of it queues: 250 KB into a 100 KB buffer fails.
        state = PortState(make_port(buffer_bytes=100 * units.KB))
        bursty = contribution(burst=500 * units.KB, peak=units.gbps(20))
        assert not state.admits(bursty)

    def test_admits_line_rate_burst(self):
        # A burst arriving at exactly line rate never queues, no matter
        # its size.
        state = PortState(make_port(buffer_bytes=100 * units.KB))
        smooth = contribution(burst=500 * units.KB, peak=units.gbps(10))
        assert state.admits(smooth)

    def test_admits_accepts_conforming(self):
        state = PortState(make_port())
        assert state.admits(contribution())

    def test_aggregate_curve_is_conservative(self):
        """The rebuilt curve must dominate the exact sum of the parts."""
        from curve_aggregate import sum_curves
        from repro.netcalc.arrival import dual_rate
        state = PortState(make_port())
        parts = []
        for i in range(1, 4):
            c = contribution(bandwidth=units.gbps(0.5) * i,
                             burst=20 * units.KB * i,
                             peak=units.gbps(2) * i,
                             slack=i * units.MTU)
            state.add(c)
            parts.append(dual_rate(c.bandwidth, c.burst, c.peak_rate,
                                   packet_size=c.packet_slack))
        exact = sum_curves(parts)
        conservative = state.aggregate_curve()
        assert conservative.dominates(exact)

    def test_bandwidth_only_check(self):
        state = PortState(make_port(capacity=units.gbps(10)))
        ok = contribution(bandwidth=units.gbps(9), peak=units.gbps(9),
                          burst=10 * units.MB)  # burst ignored
        assert state.admits_bandwidth(ok)
        assert not state.admits_bandwidth(
            contribution(bandwidth=units.gbps(11), peak=units.gbps(11)))
