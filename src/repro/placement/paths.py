"""Path extraction for a candidate placement.

The what-if estimator (:mod:`repro.analysis.surrogate`) predicts a
tenant's message-latency distribution by composing per-port delay models
along the switch ports its traffic traverses.  This module answers the
"which ports?" half of that question: given a :class:`Placement` and the
:class:`TreeTopology` it lives in, enumerate the directed port sequence
of every sender->receiver flow of the paper's class-A workload (all VMs
send to the tenant's first VM, matching
:class:`repro.phynet.apps.EpochBurstApp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.tenant import Placement
from repro.topology.switch import Port
from repro.topology.tree import TreeTopology

__all__ = ["SenderPath", "IncastPaths", "incast_paths"]


@dataclass(frozen=True)
class SenderPath:
    """One sender VM's directed port sequence toward the receiver.

    ``ports`` is empty when the sender is co-located with the receiver
    (same server: traffic only crosses the hypervisor vswitch, which is
    not a topology port).
    """

    vm_index: int
    server: int
    ports: Tuple[Port, ...]


@dataclass(frozen=True)
class IncastPaths:
    """Every sender's path for a class-A all-to-one placement."""

    receiver_vm: int
    receiver_server: int
    senders: Tuple[SenderPath, ...]

    def port_fan_in(self) -> Dict[str, int]:
        """Map port name -> number of senders whose path crosses it.

        The fan-in at a port is what drives its incast queue build-up:
        a ``tor-down`` port carrying all ``N-1`` senders of an epoch
        burst queues roughly ``N-1`` messages back-to-back.
        """
        counts: Dict[str, int] = {}
        for sender in self.senders:
            for port in sender.ports:
                counts[port.name] = counts.get(port.name, 0) + 1
        return counts

    def max_hops(self) -> int:
        """The longest sender path length, in ports."""
        return max((len(s.ports) for s in self.senders), default=0)


def incast_paths(topology: TreeTopology,
                 placement: Placement) -> IncastPaths:
    """Enumerate sender paths for an all-to-one (class-A) placement.

    Args:
        topology: the tree the placement's server ids index into.
        placement: an admitted (or merely proposed) placement;
            ``vm_servers`` need not have been accepted by a manager.
            Its first VM receives, matching the packet simulator's
            ``EpochBurstApp``.

    Returns:
        One :class:`SenderPath` per non-receiver VM, in VM order.
    """
    receiver_server = placement.vm_servers[0]
    senders = tuple(
        SenderPath(vm_index=vm_index, server=server,
                   ports=tuple(topology.path_ports(server,
                                                   receiver_server)))
        for vm_index, server in enumerate(placement.vm_servers[1:], 1))
    return IncastPaths(receiver_vm=0, receiver_server=receiver_server,
                       senders=senders)
