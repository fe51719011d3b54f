"""SWP end to end: speculative duplicates racing paced originals.

Silo's pacing trades average latency for a delay *bound*; SWP (the
"speculative window protocol" family of duplicate-transmission schemes)
tries to claw the average back without giving up the pacer.  For every
small message the sender immediately emits a second, low-priority copy
that bypasses the pacer entirely, while the original follows through the
token-bucket hierarchy on the guaranteed class.  Whichever copy arrives
first wins; the receiver's sequence-number dedup makes the race
invisible to the application.

The scheme's weakness -- and why the three-way campaign exists -- is
that the speculative copy rides the *best-effort* class behind strict
priority: precisely when the network is busy enough for pacing delay to
hurt, the copy sits behind (or is pushed out by) every guaranteed-class
byte, so the original's paced latency becomes the tail.  And because the
originals here are paced from rate alone (no admission control sizing a
burst allowance), SWP holds no delay guarantee to fall back on.

Data-path details -- the dedup rule, duplicate-load counters, and the
pacer bypass -- live in :class:`repro.phynet.transport.swp.SwpTransport`
and ``phynet/network.py``; this module only packages them behind the
:class:`~repro.mechanisms.base.Mechanism` interface.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms.base import Mechanism, register_mechanism
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.transport.base import Transport
from repro.phynet.transport.swp import SwpTransport

__all__ = ["SwpMechanism"]


@register_mechanism
class SwpMechanism(Mechanism):
    """Rate-paced originals + unpaced low-priority speculative copies."""

    name = "swp"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place the VM the way an SWP-only cloud would.

        Delay-sensitive VMs (``guarantee.wants_delay``) get their
        originals paced at the guaranteed rate with a single-packet
        bucket: without admission control there is no calculus sizing a
        safe burst ``S``, so the speculative copy is what SWP relies on
        for low latency.  Everything else runs plain unpaced TCP at the
        normal priority -- SWP's two queue levels separate *copies*
        from originals, not tenants from each other, and the scheme
        offers no bandwidth isolation for bulk traffic.
        """
        if guarantee is None or not guarantee.wants_delay:
            return net.add_vm(vm_id, tenant_id, server,
                              guarantee=guarantee, paced=False)
        pacer_config = PacerConfig(
            bandwidth=guarantee.bandwidth, burst=units.MTU,
            peak_rate=guarantee.bandwidth, packet_size=units.MTU)
        return net.add_vm(vm_id, tenant_id, server, guarantee=guarantee,
                          paced=True, pacer_config=pacer_config)

    def transport_class(self) -> Optional[Type[Transport]]:
        """Flows must run :class:`SwpTransport` to emit/dedup copies."""
        return SwpTransport

    def counters(self, net: PacketNetwork) -> Dict[str, Any]:
        """Duplicate-load accounting summed over the run's transports."""
        totals = {"spec_packets_sent": 0, "spec_bytes_sent": 0.0,
                  "spec_wins": 0, "duplicate_deliveries": 0}
        for flow in net.transports.values():
            if isinstance(flow, SwpTransport):
                totals["spec_packets_sent"] += flow.spec_packets_sent
                totals["spec_bytes_sent"] += flow.spec_bytes_sent
                totals["spec_wins"] += flow.spec_wins
                totals["duplicate_deliveries"] += flow.duplicate_deliveries
        return totals
