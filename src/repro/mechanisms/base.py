"""The ``Mechanism`` interface and registry.

A *mechanism* is everything an SLO scheme does on the data path once
VMs are placed: how the :class:`~repro.phynet.network.PacketNetwork` is
configured (queue discipline, ECN), how each VM's hypervisor egress is
paced, which transport its flows run, and what control machinery runs
alongside the simulation.  The network itself knows no scheme; the
mechanism is the only thing that does.  Scenario construction consumes
exactly this interface, so every packet-level experiment gains a
``mechanism`` axis for free: build the network through the mechanism,
:meth:`Mechanism.attach` each tenant's VMs, pass its transport class to
the applications, call :meth:`Mechanism.start` before ``sim.run`` and
:meth:`Mechanism.counters` after.

Registered implementations (see :mod:`repro.mechanisms`):

=========  =========================================================
``silo``   the paper's stack: network-calculus pacing + priorities
``swp``    speculative duplicates racing paced originals
``eyeq``   distributed RTT-scale hose congestion control
``none``   plain TCP, no pacing -- the overhead/latency baseline
``dctcp``  ECN-marking ports + DCTCP endpoints, no pacing
``hull``   phantom-queue ports + HULL endpoints, no pacing
``okto``   Oktopus: bandwidth-only placement, rate limit, no burst
``okto+``  Oktopus placement with Silo's burst allowance
=========  =========================================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from repro.core.guarantees import NetworkGuarantee
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.transport.base import Transport
from repro.topology.tree import TreeTopology

__all__ = ["Mechanism", "MECHANISMS", "register_mechanism",
           "get_mechanism", "mechanism_names"]


class Mechanism(ABC):
    """One end-to-end SLO mechanism: pacing, transport, queueing, control.

    Instances are cheap, stateless-until-:meth:`start` configuration
    objects; create a fresh one per simulation run.
    """

    #: Registry key and display name ("silo", "swp", "eyeq", "none", ...).
    name: str = ""
    #: The placement policy the mechanism's tenants are admitted by
    #: ("silo": delay-aware admission, "oktopus": bandwidth-only), or
    #: ``None`` for mechanisms that run under any placement (the
    #: host-level SWP and EyeQ, the unmanaged TCP family) -- scenarios
    #: then stripe the tenants across servers and skip admission.
    placement: Optional[str] = None

    def build_network(self, topology: TreeTopology,
                      tracer=None) -> PacketNetwork:
        """Construct the simulated network this mechanism runs on (plain
        ports; a subclass configures them for its queue discipline)."""
        return PacketNetwork(topology, tracer=tracer)

    @abstractmethod
    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place one VM with this mechanism's hypervisor egress config."""

    def attach(self, net: PacketNetwork, tenant_id: int,
               vm_servers: Sequence[int],
               guarantee: Optional[NetworkGuarantee],
               first_vm_id: int) -> List[int]:
        """Add one tenant's VMs, numbered from ``first_vm_id`` in
        placement order, through :meth:`add_vm`; returns their ids."""
        vm_ids = list(range(first_vm_id, first_vm_id + len(vm_servers)))
        for vm_id, server in zip(vm_ids, vm_servers):
            self.add_vm(net, vm_id, tenant_id, server, guarantee)
        return vm_ids

    def transport_class(self) -> Optional[Type[Transport]]:
        """Transport for application flows; ``None`` = plain TCP."""
        return None

    def start(self, net: PacketNetwork) -> None:
        """Attach control machinery before ``sim.run`` (default: none)."""

    def counters(self, net: PacketNetwork) -> Dict[str, Any]:
        """Mechanism-specific counters after a run (JSON-serializable)."""
        return {}


#: Mechanism factories keyed by registry name.
MECHANISMS: Dict[str, Callable[[], Mechanism]] = {}


def register_mechanism(factory: Type[Mechanism]) -> Type[Mechanism]:
    """Class decorator adding a :class:`Mechanism` to the registry."""
    if not factory.name:
        raise ValueError(f"{factory.__name__} has no registry name")
    if factory.name in MECHANISMS:
        raise ValueError(f"mechanism {factory.name!r} already registered")
    MECHANISMS[factory.name] = factory
    return factory


def get_mechanism(name: str) -> Mechanism:
    """A fresh instance of the named mechanism.

    Raises:
        KeyError: unknown name (message lists the registered ones).
    """
    try:
        factory = MECHANISMS[name]
    except KeyError:
        raise KeyError(f"unknown mechanism {name!r}; pick from "
                       f"{sorted(MECHANISMS)}") from None
    return factory()


def mechanism_names() -> tuple:
    """Registered mechanism names, sorted (CLI choices, docs tables)."""
    return tuple(sorted(MECHANISMS))
