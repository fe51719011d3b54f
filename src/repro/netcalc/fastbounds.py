"""Allocation-free queue bounds for dual-rate arrival curves.

:class:`~repro.placement.state.PortState` keeps four running totals and
rebuilds a *dual-rate* aggregate curve -- ``min(peak*t + slack,
bandwidth*t + burst)`` -- for every admission probe.  Building the
:class:`~repro.netcalc.curves.Curve` costs a sort, a convex-hull sweep and
several allocations per probe, which dominates placement time at
datacenter scale (section 5's 100K-host target).

This module computes the same backlog/delay bounds *in closed form*.  The
arithmetic deliberately mirrors, operation for operation, what
``Curve([...])`` + :func:`~repro.netcalc.bounds.backlog_bound` /
:func:`~repro.netcalc.bounds.delay_bound` would do -- including the prune
epsilons, the breakpoint evaluation order and the stability test -- so the
closed form is **bit-identical** to the Curve-built bounds, not merely
close.  The Curve-built bounds are the test oracle
``tests/oracles/seed_admission.py``; the property tests in
``tests/placement/test_fast_admission.py`` assert exact agreement.  The
prune tolerance and the stability slack are imported, not restated, so
the two cannot drift apart.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.netcalc.bounds import _REL_TOL
from repro.netcalc.curves import _EPS

_INF = math.inf


def _effective_pieces(bandwidth: float, burst: float, peak: float,
                      slack: float) -> Tuple[Tuple[float, float], ...]:
    """The pieces ``Curve`` would keep for a dual-rate aggregate.

    Replicates ``_prune([(peak, slack), (bandwidth, burst)])`` for the
    pre-conditioned inputs produced by ``PortState.aggregate_curve``
    (``slack <= burst``, ``bandwidth <= peak``).  Returns one or two
    ``(rate, burst)`` tuples ordered by decreasing rate.
    """
    if peak <= bandwidth or burst <= slack:
        return ((bandwidth, burst),)
    # _prune sorts by rate descending: [(peak, slack), (bandwidth, burst)].
    if math.isclose(peak, bandwidth, rel_tol=_EPS, abs_tol=_EPS):
        # Equal-rate dedup keeps the lower burst (the slack piece).
        return ((peak, slack),)
    if burst <= slack + _EPS:
        # The flat piece is below the steep one everywhere.
        return ((bandwidth, burst),)
    crossover = (burst - slack) / (peak - bandwidth)
    if crossover <= _EPS:
        # The steep piece's active interval is empty.
        return ((bandwidth, burst),)
    return ((peak, slack), (bandwidth, burst))


def dual_rate_backlog(bandwidth: float, burst: float, peak: float,
                      slack: float, rate: float) -> float:
    """Worst-case backlog of a dual-rate curve at a constant-rate server.

    Equivalent to ``backlog_bound(Curve.from_pieces([(peak, slack),
    (bandwidth, burst)]), constant_rate(rate))`` without constructing
    either object.
    """
    pieces = _effective_pieces(bandwidth, burst, peak, slack)
    if pieces[-1][0] > rate * (1.0 + _REL_TOL):
        return _INF
    # The deviation at t=0 is the steepest kept piece's burst.
    best = pieces[0][1] if pieces[0][1] > 0.0 else 0.0
    if len(pieces) == 2:
        (p_rate, p_slack), (b_rate, b_burst) = pieces
        # t = crossover (the only positive breakpoint, > _EPS here).
        crossover = (b_burst - p_slack) / (p_rate - b_rate)
        dev = b_rate * crossover + b_burst - rate * crossover
        if dev > best:
            best = dev
    return best


def dual_rate_delay(bandwidth: float, burst: float, peak: float,
                    slack: float, rate: float) -> float:
    """Worst-case delay of a dual-rate curve at a constant-rate server.

    Equivalent to ``delay_bound(...)`` on the rebuilt Curve; see
    :func:`dual_rate_backlog`.
    """
    pieces = _effective_pieces(bandwidth, burst, peak, slack)
    if pieces[-1][0] > rate * (1.0 + _REL_TOL):
        return _INF
    dev = pieces[0][1] / rate
    best = dev if dev > 0.0 else 0.0
    if len(pieces) == 2:
        (p_rate, p_slack), (b_rate, b_burst) = pieces
        crossover = (b_burst - p_slack) / (p_rate - b_rate)
        dev = (b_rate * crossover + b_burst) / rate - crossover
        if dev > best:
            best = dev
    return best
