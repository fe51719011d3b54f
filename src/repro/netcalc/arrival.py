"""Standard arrival-curve constructors (paper Fig. 6a).

Silo characterizes a VM with guarantee ``{B, S, d}`` and burst rate ``Bmax``
by the dual-rate curve ``A'(t) = min(Bmax*t + L, B*t + S)``: the VM may hold
``S`` bytes of burst credit but drains it no faster than ``Bmax``; ``L`` is
one maximum-size packet, since even a perfectly paced source emits whole
packets.  The simpler token bucket ``A(t) = B*t + S`` is the curve the paper
uses for exposition and is an upper bound on the dual-rate curve.
"""

from __future__ import annotations

from repro import units
from repro.netcalc.curves import Curve


def token_bucket(rate: float, burst: float) -> Curve:
    """The curve ``A(t) = rate * t + burst`` (bytes/second, bytes)."""
    if rate < 0:
        raise ValueError("token bucket rate must be >= 0")
    if burst < 0:
        raise ValueError("token bucket burst must be >= 0")
    return Curve.affine(rate, burst)


def dual_rate(rate: float, burst: float, peak_rate: float,
              packet_size: float = units.MTU) -> Curve:
    """The ``Bmax``-limited arrival curve ``min(peak*t + L, rate*t + S)``.

    ``peak_rate`` must be at least ``rate``; when they are equal the curve
    degenerates to a token bucket with a one-packet burst.
    """
    if peak_rate < rate:
        raise ValueError(
            f"peak rate {peak_rate} must be >= sustained rate {rate}")
    if packet_size <= 0:
        raise ValueError("packet size must be positive")
    if peak_rate == rate or burst <= packet_size:
        return Curve.affine(rate, min(burst, packet_size))
    return Curve.from_pieces([
        (peak_rate, packet_size),
        (rate, burst),
    ])
