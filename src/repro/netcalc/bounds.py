"""Queue bounds from arrival and service curves (paper Fig. 6b).

Given a concave arrival curve ``A`` and a rate-latency service curve
``beta``, classic network-calculus results bound a FIFO queue:

* the maximum *delay* is the largest horizontal distance between the curves
  (``q`` in the paper's figure) -- this is the port's **queue bound**;
* the maximum *backlog* is the largest vertical distance -- compared against
  the port's buffer to rule out loss;
* the queue must have emptied at least once in any interval of length ``p``,
  the last time at which ``A`` still exceeds ``beta`` -- Silo uses ``p``
  (bounded by the queue capacity) to propagate egress burstiness.

For piecewise-linear concave ``A`` and convex ``beta`` all three extrema lie
at breakpoints, so every bound below is exact and O(#pieces).
"""

from __future__ import annotations

import math
from typing import List

from repro.netcalc.curves import Curve
from repro.netcalc.service import RateLatencyService

_INF = math.inf

#: Relative stability slack.  Rates here are bytes/second (~1.25e9 for a
#: 10 Gbps port), where an *absolute* 1e-9 is below one ulp -- i.e. an
#: exact-equality test in disguise.  A relative tolerance absorbs float
#: drift from summing tenant rates at any link speed.
_REL_TOL = 1e-9


def queue_is_stable(arrival: Curve, service: RateLatencyService) -> bool:
    """True when the long-run arrival rate does not exceed the service rate.

    An unstable queue has unbounded delay and backlog; Silo's admission
    control must never create one.
    """
    return arrival.sustained_rate <= service.rate * (1.0 + _REL_TOL)


def _candidate_times(arrival: Curve,
                     service: RateLatencyService) -> List[float]:
    times = [0.0, service.latency]
    times.extend(t for t in arrival.breakpoints if t > 0.0)
    return times


def delay_bound(arrival: Curve, service: RateLatencyService) -> float:
    """Maximum queuing delay (seconds): the horizontal deviation.

    Returns ``math.inf`` for an unstable queue.  For a stable queue the
    deviation ``sup_t [T + A(t)/R - t]`` is concave piecewise-linear in
    ``t`` and therefore attained at a breakpoint of ``A``.
    """
    if not queue_is_stable(arrival, service):
        return _INF
    best = 0.0
    for t in _candidate_times(arrival, service):
        dev = service.latency + arrival(t) / service.rate - t
        if dev > best:
            best = dev
    return best


def backlog_bound(arrival: Curve, service: RateLatencyService) -> float:
    """Maximum queued bytes: the vertical deviation ``sup_t A(t) - beta(t)``.

    Returns ``math.inf`` for an unstable queue.
    """
    if not queue_is_stable(arrival, service):
        return _INF
    best = 0.0
    for t in _candidate_times(arrival, service):
        dev = arrival(t) - service(t)
        if dev > best:
            best = dev
    return best


def empty_interval(arrival: Curve, service: RateLatencyService) -> float:
    """The ``p`` value: by time ``p`` the queue must have emptied once.

    ``p = sup { t : A(t) > beta(t) }``.  Kurose's analysis shows the burst a
    port can add to egress traffic is bounded by what arrives within ``p``;
    Silo substitutes the static queue *capacity* ``c >= p`` to decouple the
    bound from competing tenants.  Returns ``math.inf`` when the sustained
    arrival rate equals or exceeds the service rate with backlog remaining.
    """
    if arrival.sustained_rate > service.rate * (1.0 + _REL_TOL):
        return _INF
    # Walk the difference A - beta segment by segment; it starts >= 0 at t=0
    # (burst vs. zero service) and is eventually decreasing.  Find the last
    # zero crossing.
    times = sorted(set(_candidate_times(arrival, service)))
    # Add a far point on the final segment so the crossing is bracketed.
    last_piece = arrival.pieces[-1]
    rate_gap = service.rate - last_piece.rate
    if rate_gap <= service.rate * _REL_TOL:
        # Arrival keeps pace with service forever.
        return _INF if arrival(times[-1]) > service(times[-1]) else times[-1]
    far = times[-1] + (arrival(times[-1]) + 1.0) / rate_gap
    times.append(far)

    crossing = 0.0
    for lo, hi in zip(times, times[1:]):
        gap_lo = arrival(lo) - service(lo)
        gap_hi = arrival(hi) - service(hi)
        if gap_lo > 0 and gap_hi <= 0:
            # Linear interpolation is exact within one segment.
            span = gap_lo - gap_hi
            crossing = hi if span <= 0 else lo + (hi - lo) * gap_lo / span
        elif gap_hi > 0:
            crossing = hi
    return crossing
