"""The Silo mechanism and the unpaced ``none`` baseline.

Silo is the paper's full stack: every VM sits behind the Fig. 8
token-bucket hierarchy (network-calculus pacing with burst allowance
``S`` and peak rate ``Bmax``) whose per-destination buckets the
tenant's hose split re-rates, guaranteed traffic rides the high 802.1q
priority class while VMs without a guarantee run unpaced in the
best-effort class (section 4.4), and -- uniquely among the registered
mechanisms -- placement goes through delay-aware admission control,
which is what turns the pacer's per-hop burstiness bounds into an
end-to-end delay guarantee.

``none`` is the control group: plain TCP Reno, no pacing, no admission;
it calibrates both the simulation overhead of the other mechanisms
(the repo benchmark's ``packet-paced`` vs ``packet-unpaced`` workloads)
and the tail latency an unprotected tenant suffers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms.base import Mechanism, register_mechanism
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.packet import PRIORITY_BEST_EFFORT

__all__ = ["SiloMechanism", "NoneMechanism"]


@register_mechanism
class SiloMechanism(Mechanism):
    """Network-calculus pacing + priorities + delay-aware admission."""

    name = "silo"
    placement = "silo"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place the VM behind a Silo pacer derived from its guarantee,
        or unpaced in the best-effort class when it has none."""
        if guarantee is None:
            return net.add_vm(vm_id, tenant_id, server,
                              priority=PRIORITY_BEST_EFFORT)
        return self._add_paced_vm(net, vm_id, tenant_id, server, guarantee,
                                  PacerConfig.from_guarantee(guarantee))


@register_mechanism
class NoneMechanism(Mechanism):
    """No SLO mechanism at all: plain TCP on drop-tail queues."""

    name = "none"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place the VM unpaced; its guarantee is dropped, unenforced."""
        return net.add_vm(vm_id, tenant_id, server)
