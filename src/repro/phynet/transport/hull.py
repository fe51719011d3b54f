"""HULL: DCTCP congestion control against phantom-queue marking.

HULL (Alizadeh et al., NSDI 2012) trades a slice of bandwidth for
near-zero queues: each port runs a *phantom queue* -- a virtual counter
draining slightly slower than the link -- and marks ECN from the phantom,
so real queues stay almost empty.  The end-host algorithm is DCTCP; the
difference is entirely in how ports are configured, which
:class:`~repro.mechanisms.baselines.HullMechanism` does on the network
it builds.
"""

from __future__ import annotations

from repro.phynet.transport.dctcp import Dctcp

#: Phantom queue drain rate as a fraction of line rate (the HULL paper's
#: recommended ~5-10% bandwidth headroom).
HULL_DRAIN_FRACTION = 0.95
#: Phantom-queue marking threshold, bytes.
HULL_MARKING_THRESHOLD = 3_000


class HullTcp(Dctcp):
    """DCTCP endpoints; phantom-queue marking configured at the ports."""
