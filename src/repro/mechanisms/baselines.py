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

from typing import Optional, Type

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms.base import register_mechanism
from repro.mechanisms.silo import NoneMechanism, SiloMechanism
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.transport.base import Transport
from repro.phynet.transport.dctcp import Dctcp
from repro.phynet.transport.hull import (
    HULL_DRAIN_FRACTION,
    HULL_MARKING_THRESHOLD,
    HullTcp,
)
from repro.topology.tree import TreeTopology

#: DCTCP marking threshold for 10 GbE (the DCTCP paper's K = 65 packets
#: scaled to bytes is ~97 KB; shallow-buffer deployments use less).
DCTCP_K = 65 * units.MTU

__all__ = ["DctcpMechanism", "HullMechanism", "OktoMechanism",
           "OktoPlusMechanism"]


@register_mechanism
class DctcpMechanism(NoneMechanism):
    """ECN-marking ports and DCTCP endpoints; unpaced, unplaced."""

    name = "dctcp"

    def build_network(self, topology: TreeTopology,
                      tracer=None) -> PacketNetwork:
        """Every switch port marks above :data:`DCTCP_K` queued bytes."""
        net = super().build_network(topology, tracer=tracer)
        for port in net.ports.values():
            port.ecn_threshold = DCTCP_K
        return net

    def transport_class(self) -> Optional[Type[Transport]]:
        """Flows run :class:`Dctcp` to react to the marks."""
        return Dctcp


@register_mechanism
class HullMechanism(NoneMechanism):
    """Phantom-queue ports and HULL endpoints; unpaced, unplaced."""

    name = "hull"

    def build_network(self, topology: TreeTopology,
                      tracer=None) -> PacketNetwork:
        """Every switch port marks from a phantom queue draining just
        under its line rate."""
        net = super().build_network(topology, tracer=tracer)
        for port in net.ports.values():
            port.phantom_drain = HULL_DRAIN_FRACTION * port.capacity
            port.phantom_threshold = HULL_MARKING_THRESHOLD
        return net

    def transport_class(self) -> Optional[Type[Transport]]:
        """Flows run :class:`HullTcp` (DCTCP's endpoint algorithm)."""
        return HullTcp


@register_mechanism
class OktoPlusMechanism(SiloMechanism):
    """Oktopus placement, Silo's pacer: bursts nobody budgeted for."""

    name = "okto+"
    placement = "oktopus"


@register_mechanism
class OktoMechanism(OktoPlusMechanism):
    """Oktopus: bandwidth reservation only, no burst allowance."""

    name = "okto"

    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Pace the VM at its bandwidth with the burst stripped."""
        if guarantee is not None:
            guarantee = NetworkGuarantee(
                bandwidth=guarantee.bandwidth, burst=units.MTU,
                delay=guarantee.delay, peak_rate=guarantee.bandwidth)
        return super().add_vm(net, vm_id, tenant_id, server, guarantee)
