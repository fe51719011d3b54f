"""The Silo mechanism and the unpaced ``none`` baseline.

Silo is the paper's full stack: every VM sits behind the Fig. 8
token-bucket hierarchy (network-calculus pacing with burst allowance
``S`` and peak rate ``Bmax``), guaranteed traffic rides the high
802.1q priority class, and -- uniquely among the registered mechanisms
-- placement goes through delay-aware admission control, which is what
turns the pacer's per-hop burstiness bounds into an end-to-end delay
guarantee.

``none`` is the control group: plain TCP Reno, no pacing, no admission;
it calibrates both the simulation overhead of the other mechanisms
(the repo benchmark's ``packet-paced`` vs ``packet-unpaced`` workloads)
and the tail latency an unprotected tenant suffers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms.base import Mechanism, register_mechanism
from repro.phynet.network import PacketNetwork, VirtualMachine

__all__ = ["SiloMechanism", "NoneMechanism"]


@register_mechanism
class SiloMechanism(Mechanism):
    """Network-calculus pacing + priorities + delay-aware admission."""

    name = "silo"
    placement = "silo"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place the VM behind a Silo pacer derived from its guarantee."""
        return net.add_vm(vm_id, tenant_id, server, guarantee=guarantee,
                          paced=guarantee is not None)


@register_mechanism
class NoneMechanism(Mechanism):
    """No SLO mechanism at all: plain TCP on drop-tail queues."""

    name = "none"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place the VM unpaced; the guarantee is recorded but unenforced."""
        return net.add_vm(vm_id, tenant_id, server, guarantee=None,
                          paced=False)
