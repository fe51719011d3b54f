"""Queue-bound math: delay, backlog and the p interval (paper Fig. 6b)."""

import math

import pytest

from repro.netcalc.arrival import dual_rate, token_bucket
from repro.netcalc.bounds import (
    backlog_bound,
    delay_bound,
    empty_interval,
    queue_is_stable,
)
from repro.netcalc.service import RateLatencyService, constant_rate


class TestStability:
    def test_stable_when_rate_below_capacity(self):
        assert queue_is_stable(token_bucket(5.0, 10.0), constant_rate(10.0))

    def test_unstable_when_rate_above_capacity(self):
        assert not queue_is_stable(token_bucket(11.0, 1.0),
                                   constant_rate(10.0))

    def test_unstable_gives_infinite_bounds(self):
        arrival = token_bucket(11.0, 1.0)
        service = constant_rate(10.0)
        assert delay_bound(arrival, service) == math.inf
        assert backlog_bound(arrival, service) == math.inf


class TestTokenBucketBounds:
    """For A = B*t + S against rate C: delay = S/C, backlog = S."""

    def test_delay_is_burst_over_capacity(self):
        arrival = token_bucket(5.0, 100.0)
        assert delay_bound(arrival, constant_rate(10.0)) == pytest.approx(
            10.0)

    def test_backlog_is_burst(self):
        arrival = token_bucket(5.0, 100.0)
        assert backlog_bound(arrival, constant_rate(10.0)) == pytest.approx(
            100.0)

    def test_service_latency_adds_to_delay(self):
        arrival = token_bucket(5.0, 100.0)
        service = RateLatencyService(rate=10.0, latency=2.0)
        assert delay_bound(arrival, service) == pytest.approx(12.0)

    def test_service_latency_adds_to_backlog(self):
        arrival = token_bucket(5.0, 100.0)
        service = RateLatencyService(rate=10.0, latency=2.0)
        # At t = 2 the arrivals are 110 and nothing has been served.
        assert backlog_bound(arrival, service) == pytest.approx(110.0)


class TestDualRateBounds:
    """The paper's Fig. 5 arithmetic: S bytes arriving at R, drained at C
    queue up S * (1 - C/R) bytes."""

    def test_burst_partially_absorbed_while_arriving(self):
        # 600 KB arriving at 20 Gbps into a 10 Gbps port: 300 KB backlog.
        C = 1.25e9      # 10 Gbps in bytes/s
        R = 2.50e9      # 20 Gbps
        S = 600e3
        arrival = dual_rate(rate=1.0, burst=S, peak_rate=R, packet_size=1.0)
        backlog = backlog_bound(arrival, constant_rate(C))
        assert backlog == pytest.approx(S * (1 - C / R), rel=1e-3)

    def test_no_queueing_when_peak_below_capacity(self):
        arrival = dual_rate(rate=1.0, burst=1000.0, peak_rate=5.0,
                            packet_size=10.0)
        backlog = backlog_bound(arrival, constant_rate(10.0))
        assert backlog <= 10.0  # at most the packet-size slack

    def test_delay_bound_matches_manual_computation(self):
        # A = min(20 t + 10, 5 t + 100), C = 10.
        arrival = dual_rate(rate=5.0, burst=100.0, peak_rate=20.0,
                            packet_size=10.0)
        service = constant_rate(10.0)
        # Breakpoint at t* = (100-10)/15 = 6; A(t*) = 130; delay there is
        # 130/10 - 6 = 7; at t=0 delay is 1.  Maximum is 7.
        assert delay_bound(arrival, service) == pytest.approx(7.0)


class TestEmptyInterval:
    def test_token_bucket_p_value(self):
        # A = 5t + 100 vs C = 10: queue empties at t = 100/(10-5) = 20.
        arrival = token_bucket(5.0, 100.0)
        assert empty_interval(arrival, constant_rate(10.0)) == pytest.approx(
            20.0)

    def test_p_value_at_least_delay_time(self):
        arrival = dual_rate(rate=5.0, burst=100.0, peak_rate=20.0,
                            packet_size=10.0)
        service = constant_rate(10.0)
        assert (empty_interval(arrival, service)
                >= delay_bound(arrival, service))

    def test_infinite_when_rate_equals_capacity_with_burst(self):
        arrival = token_bucket(10.0, 100.0)
        assert empty_interval(arrival, constant_rate(10.0)) == math.inf

    def test_unstable_is_infinite(self):
        arrival = token_bucket(20.0, 1.0)
        assert empty_interval(arrival, constant_rate(10.0)) == math.inf
