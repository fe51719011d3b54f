"""The paper's other section 6.2 baselines: DCTCP, HULL, Oktopus(+).

``dctcp`` and ``hull`` are ``none`` (the TCP baseline) on ECN-marking,
respectively phantom-queue, ports with the matching endpoints: they
react to queues once they exist instead of preventing them.  ``okto``
and ``okto+`` reserve bandwidth and place through the Oktopus manager,
which never budgets switch buffers for bursts; ``okto`` enforces the
reservation as a plain rate limit, ``okto+`` adds Silo's burst
allowance on top of a placement that did not account for it.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms.base import register_mechanism
from repro.mechanisms.silo import NoneMechanism, SiloMechanism
from repro.phynet.network import PacketNetwork, VirtualMachine

__all__ = ["DctcpMechanism", "HullMechanism", "OktoMechanism",
           "OktoPlusMechanism"]


@register_mechanism
class DctcpMechanism(NoneMechanism):
    """ECN-marking ports and DCTCP endpoints; unpaced, unplaced."""

    name = "dctcp"
    scheme = "dctcp"


@register_mechanism
class HullMechanism(NoneMechanism):
    """Phantom-queue ports and HULL endpoints; unpaced, unplaced."""

    name = "hull"
    scheme = "hull"


@register_mechanism
class OktoPlusMechanism(SiloMechanism):
    """Oktopus placement, Silo's pacer: bursts nobody budgeted for."""

    name = "okto+"
    scheme = "okto+"
    placement = "oktopus"


@register_mechanism
class OktoMechanism(OktoPlusMechanism):
    """Oktopus: bandwidth reservation only, no burst allowance."""

    name = "okto"
    scheme = "okto"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Pace the VM at its bandwidth with the burst stripped."""
        if guarantee is not None:
            guarantee = NetworkGuarantee(
                bandwidth=guarantee.bandwidth, burst=units.MTU,
                delay=guarantee.delay, peak_rate=guarantee.bandwidth)
        return super().add_vm(net, vm_id, tenant_id, server, guarantee)
