# Curve-form reference for paper section 4.2.2: hose aggregation, link
# capping and egress propagation on explicit ``Curve`` objects.  The
# shipped admission path does this arithmetic in closed form
# (``repro.placement.state.PortState``, ``repro.netcalc.fastbounds``);
# no command, scenario, benchmark or example reached this module, so it
# left ``src/repro/netcalc/aggregate.py`` for here.
# ``tests/netcalc/test_aggregate.py`` pins its numbers against the paper
# and ``tests/placement/test_state.py`` checks ``PortState``'s rebuilt
# aggregate dominates its exact sum.  It is the reference, not product
# code.
"""Aggregating and propagating arrival curves (paper section 4.2.2).

Three operations let Silo reason about a whole datacenter from per-VM
curves:

* **hose-model addition** -- for a tenant with ``N`` VMs of guarantee
  ``{B, S}``, the traffic from ``m`` of them across a network cut is not
  ``A_{mB, mS}`` but the tighter ``A_{min(m, N-m)B, mS}``: hose bandwidth is
  limited by the receiving side too, while burst allowances are not
  destination-limited (all ``m`` may burst simultaneously, as in the
  partition-aggregate pattern);
* **link capping** -- traffic leaving a server or crossing a link can never
  exceed the line rate, which tightens the peak-rate piece of the curve;
* **egress propagation** -- after crossing a port whose queue can hold
  ``c`` seconds of traffic, a flow may emerge bunched: its egress curve is
  the ingress curve advanced by ``c`` (``A_{B, B.c+S}`` for a token bucket).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import units
from repro.netcalc.arrival import dual_rate, token_bucket
from repro.netcalc.curves import Curve


def sum_curves(curves: Iterable[Curve]) -> Optional[Curve]:
    """Exact sum of any number of curves; ``None`` for an empty iterable."""
    total: Optional[Curve] = None
    for curve in curves:
        total = curve if total is None else total + curve
    return total


def hose_aggregate(m: int, n_total: int, bandwidth: float, burst: float,
                   peak_rate: Optional[float] = None,
                   packet_size: float = units.MTU) -> Curve:
    """Arrival curve for traffic from ``m`` of a tenant's ``n_total`` VMs.

    Implements the paper's tightened aggregate ``A_{min(m, N-m)B, mS}``.
    When ``peak_rate`` (``Bmax``) is given, the aggregate burst drains at no
    more than ``m * Bmax``.

    Raises ``ValueError`` if ``m`` is not in ``[1, n_total - 1]`` -- a cut
    with all or none of the VMs on one side carries no tenant traffic.
    """
    if not 1 <= m <= n_total - 1:
        raise ValueError(
            f"m must be between 1 and N-1, got m={m} for N={n_total}")
    hose_bw = min(m, n_total - m) * bandwidth
    total_burst = m * burst
    if peak_rate is None:
        return token_bucket(hose_bw, total_burst)
    return dual_rate(hose_bw, total_burst, m * peak_rate,
                     packet_size=m * packet_size)


def cap_at_link(curve: Curve, link_rate: float,
                packet_size: float = units.MTU) -> Curve:
    """Cap a curve at a link's line rate.

    No source behind a link of rate ``C`` can deliver more than
    ``C*t + packet`` bytes in ``t`` seconds (one packet may already be in
    flight), so the capped curve is ``min(A(t), C*t + packet)``.
    """
    if link_rate <= 0:
        raise ValueError("link rate must be positive")
    return curve.minimum(Curve.affine(link_rate, packet_size))


def egress_curve(ingress: Curve, queue_capacity_seconds: float) -> Curve:
    """Arrival curve for traffic after it crosses a buffered port.

    Silo bounds the bunching a port can introduce by the port's queue
    *capacity* ``c`` (a static property), not its current ``p`` value, so
    that the egress curve is independent of competing traffic: in the worst
    case every byte sent during ``[0, c]`` leaves as one burst, i.e.
    ``A_out(t) = A_in(t + c)``.
    """
    if queue_capacity_seconds < 0:
        raise ValueError("queue capacity must be >= 0")
    return ingress.shift_earlier(queue_capacity_seconds)
