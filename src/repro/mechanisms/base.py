"""The ``Mechanism`` interface and registry.

A *mechanism* is everything an SLO scheme does on the data path once
VMs are placed: how the :class:`~repro.phynet.network.PacketNetwork` is
configured (queue discipline, ECN), how each VM's hypervisor egress is
paced, whether a tenant's hose is re-split over its VM pairs, which
transport its flows run, and what control machinery runs alongside the
simulation.  The network itself knows no scheme; the mechanism is the
only thing that does.  :class:`~repro.mechanisms.run.PacketRun` consumes
exactly this interface, so every packet-level experiment gains a
``mechanism`` axis for free: it builds the network through the
mechanism (which fixes its transport), adds each tenant's VMs with
:meth:`Mechanism.attach` and calls :meth:`Mechanism.start` before
``sim.run``; callers read :meth:`Mechanism.counters` after.

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

import math
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.pacer.eyeq import allocate_hose_rates
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.network import PacketNetwork, VirtualMachine
from repro.phynet.port import OutputPort
from repro.phynet.transport.base import Transport
from repro.phynet.transport.tcp import TcpReno
from repro.topology.tree import TreeTopology

__all__ = ["Mechanism", "MECHANISMS", "register_mechanism",
           "get_mechanism", "mechanism_names"]

#: How often the oracle hose split (:func:`_coordinate_hose`) re-runs.
COORDINATION_INTERVAL = 500 * units.MICROS


def _coordinate_hose(net: PacketNetwork, tenant_id: int) -> None:
    """Periodic hose split for one tenant (Fig. 8 top row).

    The steady state EyeQ-style rate exchange converges to
    (:func:`allocate_hose_rates`), computed centrally: every backlogged
    pair of the tenant's guaranteed VMs gets its max-min share of both
    hoses as its per-destination pacer rate.
    """
    guarantees = {vm_id: vm.guarantee.bandwidth
                  for vm_id, vm in net.vms.items()
                  if vm.tenant_id == tenant_id and vm.guarantee is not None}
    demands = {pair: math.inf for pair, flow in net.transports.items()
               if pair[0] in guarantees and pair[1] in guarantees
               and (flow.send_queue or flow.in_flight)}
    rates = allocate_hose_rates(demands, guarantees) if demands else {}
    for (src, dst) in net.transports:
        if src not in guarantees or dst not in guarantees:
            continue
        pacer = net.vms[src].pacer
        if pacer is None:
            continue
        rate = rates.get((src, dst))
        if rate is None or rate <= 0:
            # Idle pair: optimistically restore the full hose rate so a
            # fresh message is not throttled by a stale split.
            rate = guarantees[src]
        pacer.set_destination_rate(dst, rate)
    net.sim.schedule(COORDINATION_INTERVAL, _coordinate_hose, net, tenant_id)


class Mechanism(ABC):
    """One end-to-end SLO mechanism: pacing, transport, queueing, control.

    Instances are cheap configuration objects that remember which
    tenants' hose split they started; create a fresh one per simulation
    run.
    """

    #: Registry key and display name ("silo", "swp", "eyeq", "none", ...).
    name: str = ""
    #: The placement policy the mechanism's tenants are admitted by
    #: ("silo": delay-aware admission, "oktopus": bandwidth-only), or
    #: ``None`` for mechanisms that run under any placement (the
    #: host-level SWP and EyeQ, the unmanaged TCP family) -- scenarios
    #: then stripe the tenants across servers and skip admission.
    placement: Optional[str] = None

    def __init__(self):
        #: Tenants whose hose split :meth:`_add_paced_vm` started.
        self._coordinated: set = set()

    def build_network(self, topology: TreeTopology,
                      tracer=None) -> PacketNetwork:
        """Construct the simulated network this mechanism runs on: its
        fabric ports set up by :meth:`configure_port` as they are built,
        and :meth:`transport_class` for every flow."""
        return PacketNetwork(topology, transport_class=self.transport_class(),
                             configure_port=self.configure_port,
                             tracer=tracer)

    def configure_port(self, port: OutputPort) -> None:
        """Set this mechanism's queue discipline on a fabric port as the
        network builds it; plain drop-tail unless a subclass marks."""

    @abstractmethod
    def add_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
               server: int, guarantee: Optional[NetworkGuarantee]
               ) -> VirtualMachine:
        """Place one VM with this mechanism's hypervisor egress config."""

    def attach(self, net: PacketNetwork, tenant_id: int,
               vm_servers: Sequence[int],
               guarantee: Optional[NetworkGuarantee]) -> List[int]:
        """Add one tenant's VMs through :meth:`add_vm`, numbered in
        placement order after every VM ``net`` already holds; returns
        their ids."""
        first = max(net.vms, default=-1) + 1
        vm_ids = list(range(first, first + len(vm_servers)))
        for vm_id, server in zip(vm_ids, vm_servers):
            self.add_vm(net, vm_id, tenant_id, server, guarantee)
        return vm_ids

    def _add_paced_vm(self, net: PacketNetwork, vm_id: int, tenant_id: int,
                      server: int, guarantee: NetworkGuarantee,
                      pacer_config: PacerConfig) -> VirtualMachine:
        """Place a guaranteed VM behind ``pacer_config``; the tenant's
        first one starts its periodic hose split (:func:`_coordinate_hose`)."""
        vm = net.add_vm(vm_id, tenant_id, server, guarantee=guarantee,
                        pacer_config=pacer_config)
        if tenant_id not in self._coordinated:
            self._coordinated.add(tenant_id)
            net.sim.schedule(COORDINATION_INTERVAL, _coordinate_hose, net,
                             tenant_id)
        return vm

    def transport_class(self) -> Type[Transport]:
        """Transport every flow runs (the paper runs plain TCP on top of
        Silo's and Oktopus' rate enforcement)."""
        return TcpReno

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
