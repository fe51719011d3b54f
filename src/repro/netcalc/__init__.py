"""Network calculus for Silo's admission control.

Silo bounds switch queuing by describing every traffic source with a concave
*arrival curve* ``A(t)`` (an upper bound on bytes sent in any window of
length ``t``) and every switch port with a *service curve* (a lower bound on
bytes served).  This package implements:

* :class:`~repro.netcalc.curves.Curve` -- piecewise-linear concave curves as
  a minimum of affine pieces, with exact addition, minimum, capping and
  time-shift operators;
* token-bucket and dual-rate (``Bmax``-limited) arrival curves (paper
  Fig. 6a);
* rate-latency service curves;
* queue bounds: horizontal deviation (delay), vertical deviation (backlog)
  and the ``p``-interval over which a queue must empty (Fig. 6b).

Hose-model tenant aggregation ``A_{min(m, N-m)B, mS}`` and egress burst
propagation ``A_{B, B.c+S}`` (section 4.2.2) are applied in closed form
by :mod:`repro.placement.state`.
"""

from repro.netcalc.curves import AffinePiece, Curve
from repro.netcalc.arrival import token_bucket, dual_rate
from repro.netcalc.service import RateLatencyService, constant_rate
from repro.netcalc.bounds import (
    backlog_bound,
    delay_bound,
    empty_interval,
    queue_is_stable,
)

__all__ = [
    "AffinePiece",
    "Curve",
    "token_bucket",
    "dual_rate",
    "RateLatencyService",
    "constant_rate",
    "backlog_bound",
    "delay_bound",
    "empty_interval",
    "queue_is_stable",
]
