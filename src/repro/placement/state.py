"""Per-port reservation state used by admission control.

Each tenant crossing a port contributes a dual-rate arrival curve.  Summing
the exact curves of hundreds of tenants would grow without bound, so the
port state keeps four running totals -- sustained bandwidth, burst bytes,
peak (burst-drain) rate and the per-sender packet slack -- and rebuilds a
*conservative* aggregate curve from them:

    sum_i min(f_i, g_i)  <=  min(sum_i f_i, sum_i g_i)

i.e. the rebuilt curve over-estimates arrivals, so any placement it admits
is also admitted by the exact analysis.  This keeps admission O(1) per port
regardless of tenant count, which is what lets the placement manager handle
the paper's 100K-host scalability target (section 5).

The rebuilt curve's bounds are evaluated in closed form
(:mod:`repro.netcalc.fastbounds`) without allocating a
:class:`~repro.netcalc.curves.Curve`, since millions of admission probes
run per placement campaign.  Building the Curve from
:meth:`PortState.aggregate_curve` and running the generic network-calculus
bounds on it gives the same numbers; that is the test oracle
``tests/oracles/seed_admission.py``, asserted identical by
``tests/placement/test_fast_admission.py``.

:meth:`PortState.admits` is *not* monotone in the totals.  Where the
rebuilt peak equals the bandwidth it checks the burst, but where the peak
lies within the ``isclose`` band above the bandwidth it checks only the
packet slack (the equal-rate dedup keeps the slack piece).  Adding a load
can move a port from the first branch to the second, so a port rejecting
a contribution does not mean a more loaded port rejects it too.
:meth:`PortState.could_admit` is the weaker test that *is* monotone: for
reachable states ``P <= P'`` and valid contributions ``x <= x'`` (float
totals and terms, componentwise), ``P'.admits(x')`` implies
``P.could_admit(x)``.  It reads the port's totals plus ``x``, so placement
asks it twice: on an *empty* state, to turn away a tenant no port of a
domain can hold, and on a server's own ports with the smallest
contributions any VM count the fill may try there would make, to turn
away a loaded server without probing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro import units
from repro.netcalc.curves import Curve
from repro.netcalc.fastbounds import (_EPS, _REL_TOL, dual_rate_backlog,
                                      dual_rate_delay)
from repro.topology.switch import Port

_MTU = units.MTU
#: :meth:`PortState.could_admit` uses the two-piece backlog of the totals
#: plus a contribution only when their peak exceeds the port capacity by
#: this fraction (plus ``_EPS``); below it the bound falls back to the
#: packet slack.
_PEAK_GAP = 0.01
#: Relative margin on that backlog: it covers the rounding of both the
#: bound's and ``admits``' evaluation (below 1e-10, see ``could_admit``).
_BOUND_MARGIN = 1e-6


@dataclass(frozen=True)
class Contribution:
    """One tenant's arrival-curve contribution at one port.

    Attributes:
        bandwidth: sustained hose bandwidth crossing the port (bytes/s).
        burst: total burst bytes, already inflated for upstream bunching.
        peak_rate: rate at which the burst can drain into the port, after
            capping at the senders' physical link capacities.
        packet_slack: one packet per sender (even paced sources emit whole
            packets).
    """

    bandwidth: float
    burst: float
    peak_rate: float
    packet_slack: float

    def __post_init__(self) -> None:
        if self.bandwidth < 0 or self.burst < 0 or self.packet_slack < 0:
            raise ValueError("contribution terms must be >= 0")
        if self.peak_rate < self.bandwidth:
            raise ValueError("peak rate must be >= sustained bandwidth")


class PortState:
    """Running reservation totals for one port."""

    __slots__ = ("port", "bandwidth", "burst", "peak_rate", "packet_slack",
                 "_capacity", "_buffer_limit")

    def __init__(self, port: Port):
        self.port = port
        self.bandwidth = 0.0
        self.burst = 0.0
        self.peak_rate = 0.0
        self.packet_slack = 0.0
        # Hoisted constants for the admission probe.  The buffer limit
        # carries *relative* slack: at buffer magnitudes (hundreds of KB)
        # an absolute epsilon is either below one ulp (no effect) or an
        # arbitrary absolute tolerance; a relative one tracks float drift
        # from the add/remove reservation cycles at any magnitude.
        self._capacity = port.capacity
        self._buffer_limit = port.buffer_bytes * (1.0 + _REL_TOL)

    # -- mutation ------------------------------------------------------------

    def add(self, contribution: Contribution) -> None:
        """Add a tenant contribution to the port's totals."""
        self.bandwidth += contribution.bandwidth
        self.burst += contribution.burst
        self.peak_rate += contribution.peak_rate
        self.packet_slack += contribution.packet_slack

    def reset_totals(self, contributions: Iterable[Contribution]) -> None:
        """Rebuild the running totals by folding ``contributions`` in order.

        Incremental subtraction would leave ~1-ulp residue
        per cycle; re-summing the surviving contributions in their
        original commit order reproduces *bit-for-bit* the totals a
        freshly built port holding the same reservations would have, so
        arbitrarily long place/release sequences never accumulate drift.
        Release runs off the admission hot path, so the O(tenants at this
        port) fold is affordable.
        """
        bandwidth = 0.0
        burst = 0.0
        peak_rate = 0.0
        packet_slack = 0.0
        for contribution in contributions:
            bandwidth += contribution.bandwidth
            burst += contribution.burst
            peak_rate += contribution.peak_rate
            packet_slack += contribution.packet_slack
        self.bandwidth = bandwidth
        self.burst = burst
        self.peak_rate = peak_rate
        self.packet_slack = packet_slack

    # -- analysis --------------------------------------------------------------

    def _totals(self, extra: Optional[Contribution]):
        """The conditioned dual-rate totals the aggregate curve is built
        from (shared by the closed-form bounds and
        :meth:`aggregate_curve`)."""
        bandwidth = self.bandwidth
        burst = self.burst
        peak = self.peak_rate
        slack = self.packet_slack
        if extra is not None:
            bandwidth += extra.bandwidth
            burst += extra.burst
            peak += extra.peak_rate
            slack += extra.packet_slack
        if slack < units.MTU:
            slack = units.MTU
        if burst < slack:
            burst = slack
        if peak < bandwidth:
            peak = bandwidth
        return bandwidth, burst, peak, slack

    def aggregate_curve(self, extra: Optional[Contribution] = None) -> Curve:
        """Conservative aggregate arrival curve, optionally with a candidate.

        Returns the dual-rate curve built from the summed totals; see the
        module docstring for why this is a sound over-approximation.
        """
        bandwidth, burst, peak, slack = self._totals(extra)
        if peak <= bandwidth or burst <= slack:
            return Curve.affine(bandwidth, burst)
        return Curve.from_pieces([(peak, slack), (bandwidth, burst)])

    def queue_bound(self, extra: Optional[Contribution] = None) -> float:
        """Worst-case queuing delay (seconds) at this port."""
        bandwidth, burst, peak, slack = self._totals(extra)
        return dual_rate_delay(bandwidth, burst, peak, slack,
                               self._capacity)

    def backlog(self, extra: Optional[Contribution] = None) -> float:
        """Worst-case queued bytes at this port."""
        bandwidth, burst, peak, slack = self._totals(extra)
        return dual_rate_backlog(bandwidth, burst, peak, slack,
                                 self._capacity)

    def admits(self, extra: Contribution) -> bool:
        """Silo's first constraint: queue bound within queue capacity.

        Checked in byte form (backlog <= buffer) which is equivalent to
        "queue bound <= queue capacity" for a line-rate server, plus queue
        stability (reserved bandwidth within line rate).

        This is the single hottest call in a placement campaign (every
        ``_server_ok`` probe lands here twice), so the ``_totals`` +
        :func:`dual_rate_backlog` pipeline is inlined with ``latency=0``
        folded through.  The arithmetic is operation-for-operation the
        same; the Curve-built oracle in ``tests/oracles/seed_admission.py``
        and the property tests keep it honest.
        """
        capacity = self._capacity
        bandwidth = self.bandwidth + extra.bandwidth
        if bandwidth > capacity:
            return False
        burst = self.burst + extra.burst
        peak = self.peak_rate + extra.peak_rate
        slack = self.packet_slack + extra.packet_slack
        if slack < _MTU:
            slack = _MTU
        if burst < slack:
            burst = slack
        if peak < bandwidth:
            peak = bandwidth
        limit = self._buffer_limit
        # Single affine piece (bandwidth, burst): it is stable (bandwidth
        # <= capacity was just checked) and its backlog at a zero-latency
        # server is exactly the burst.
        if peak <= bandwidth or burst <= slack:
            return burst <= limit
        if math.isclose(peak, bandwidth, rel_tol=_EPS, abs_tol=_EPS):
            # Equal-rate dedup keeps the (peak, slack) piece, whose rate
            # may exceed capacity by the rounding the dedup tolerated.
            if peak > capacity * (1.0 + _REL_TOL):
                return False
            return slack <= limit
        if burst <= slack + _EPS:
            return burst <= limit
        crossover = (burst - slack) / (peak - bandwidth)
        if crossover <= _EPS:
            return burst <= limit
        backlog = bandwidth * crossover + burst - capacity * crossover
        if slack > backlog:
            backlog = slack
        return backlog <= limit

    def could_admit(self, extra: Contribution) -> bool:
        """False only when no reachable state at least this loaded admits
        anything at least as large as ``extra``.

        Evaluates its clauses on the port's totals plus ``extra``, summed
        as :meth:`admits` sums them; on an empty state that sum is
        ``extra`` itself (``0.0 + x == x``).  Reachable means: the totals
        are float sums, from ``0.0``, of valid contributions (tenants and
        fault poisons alike), so each is ``>= 0`` and the summed peak is
        ``>=`` the summed bandwidth.  ``C`` is the port capacity, ``L``
        the buffer limit.

        Lemma: for reachable states ``P <= P'`` and valid contributions
        ``x <= x'`` (componentwise), ``P'.admits(x')`` implies
        ``P.could_admit(x)``.  Rounded float addition is monotone in both
        operands, so the sums ``b, r, p, s`` (bandwidth, burst, peak,
        slack) this method forms on ``P`` and ``x`` are componentwise
        ``<=`` the sums ``admits`` forms on ``P'`` and ``x'``, and the
        conditioning (slack raised to one MTU, burst to the slack, peak
        to the bandwidth) is monotone too; call the conditioned sums of
        ``admits`` ``B, R, Q, S``.

        * Bandwidth: ``admits`` requires ``B <= C``, so ``b <= C``.
        * Slack: every branch of ``admits`` that returns True has checked
          a value ``>= S`` against ``L`` (the burst, conditioned to
          ``>= S``; the slack itself in the near-equal branch; the
          two-piece backlog, raised to ``>= S``), so ``s <= S <= L``.
        * Backlog, used only when ``p > C(1 + g) + _EPS`` (``g`` is
          ``_PEAK_GAP``).  Then ``Q >= p`` and ``B <= C`` give ``Q - B >
          gC + _EPS``, wider than the ``isclose`` band ``max(_EPS * Q,
          _EPS)`` of any ``Q <= C(1 + _REL_TOL)``, the only peaks that
          branch admits; so ``P'`` admits ``x'`` either through a branch
          that checks ``R <= L`` or through the two-piece branch.  In
          real numbers the backlog of ``min(p t + s, b t + r)`` at rate
          ``C`` is ``((p - C) r + (C - b) s) / (p - b)``, a convex
          combination of ``r`` and ``s``, and it grows with every term
          because the curve grows pointwise; so it is at most the backlog
          of ``min(Q t + S, B t + R)``.  If ``R <= L`` that is at most
          ``R <= L``.  In the two-piece branch ``admits`` evaluates ``B t
          + R - C t`` with ``t = (R - S) / (Q - B) < R / gC``; its
          rounding is a few ulps of ``R + 2 C t < R (1 + 2 / g)``, and
          the exact value is at least ``R (Q - C) / (Q - B) >= R g / (1 +
          g)``, so the computed value is within a relative 1e-10 of the
          exact one.  This method evaluates the convex form from
          non-negative terms, within a few ulps of its exact value.
          ``_BOUND_MARGIN`` covers both roundings.

        Below the gap the bound checks no burst: where ``p == b`` an empty
        port would check the burst, and that is exactly the check a loaded
        port in the near-equal branch skips.
        """
        capacity = self._capacity
        bandwidth = self.bandwidth + extra.bandwidth
        if bandwidth > capacity:
            return False
        slack = self.packet_slack + extra.packet_slack
        if slack < _MTU:
            slack = _MTU
        limit = self._buffer_limit
        if slack > limit:
            return False
        peak = self.peak_rate + extra.peak_rate
        if peak <= capacity * (1.0 + _PEAK_GAP) + _EPS:
            return True
        burst = self.burst + extra.burst
        if burst < slack:
            burst = slack
        backlog = (((peak - capacity) * burst + (capacity - bandwidth) * slack)
                   / (peak - bandwidth))
        return backlog <= limit * (1.0 + _BOUND_MARGIN)

    def admits_bandwidth(self, extra: Contribution) -> bool:
        """Oktopus' bandwidth-only admission check."""
        return self.bandwidth + extra.bandwidth <= self._capacity

    @property
    def is_empty(self) -> bool:
        """No reservations at all: this port is interchangeable with any
        other empty port of the same shape (used to prune search)."""
        return (self.bandwidth == 0.0 and self.burst == 0.0
                and self.peak_rate == 0.0)

    def __repr__(self) -> str:
        return (f"PortState({self.port!r}: "
                f"bw={units.to_gbps(self.bandwidth):.2f}Gbps "
                f"burst={self.burst / 1e3:.0f}KB)")
