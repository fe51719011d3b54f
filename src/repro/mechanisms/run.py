"""The one code that assembles a packet run and judges a message late.

Admission stays with the caller (section 6.2, ``repro trace`` and the
hybrid window each admit differently); a :class:`PacketRun` takes the
admitted tenants, in order, as :class:`PacketTenant` s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro import units
from repro.analysis.stats import percentile
from repro.core.tenant import TenantRequest
from repro.faults.inject import NetworkFaultInjector
from repro.mechanisms.base import Mechanism
from repro.phynet.metrics import MessageRecord, MetricsCollector
from repro.topology.tree import TreeTopology

__all__ = ["PacketRun", "PacketTenant"]


@dataclass
class PacketTenant:
    """One admitted tenant: its request, one server per VM, and ``app``,
    called as ``app(network, metrics, tenant_id, vm_ids)`` once its VMs
    are attached to build the application the run starts (``None``:
    the VMs carry no traffic)."""

    request: TenantRequest
    vm_servers: Sequence[int]
    app: Optional[Callable[..., Any]]


class PacketRun:
    """``tenants`` running on a packet network ``mech`` builds.

    The order is part of the contract (event sequence numbers and the
    apps' shared RNG draws follow it): per tenant, attach its VMs and
    build and start its app; then pre-schedule ``faults`` (a
    :class:`~repro.faults.FaultSchedule`)."""

    def __init__(self, mech: Mechanism, topology: TreeTopology,
                 tenants: Iterable[PacketTenant], tracer=None, faults=None):
        self.mech = mech
        self.tenants = list(tenants)
        self.net = mech.build_network(topology, tracer=tracer)
        self.metrics = MetricsCollector(tracer=tracer)
        #: Each tenant's started app (``None`` without one), in order.
        self.apps: List[Any] = []
        for tenant in self.tenants:
            request = tenant.request
            vm_ids = mech.attach(self.net, request.tenant_id,
                                 tenant.vm_servers, request.guarantee)
            app = None
            if tenant.app is not None:
                app = tenant.app(self.net, self.metrics, request.tenant_id,
                                 vm_ids)
                app.start()
            self.apps.append(app)
        self.injector = (NetworkFaultInjector(self.net, faults)
                         if faults is not None else None)

    def run(self, until: float) -> None:
        """Start the mechanism's control machinery, then simulate."""
        self.mech.start(self.net)
        self.net.sim.run(until=until)

    def records(self, tenant: PacketTenant) -> List[MessageRecord]:
        """Every message ``tenant`` sent, finished or not."""
        tenant_id = tenant.request.tenant_id
        return [r for r in self.metrics.records if r.tenant_id == tenant_id]

    def count_late(self, tenants: Iterable[PacketTenant]) -> int:
        """Late messages over ``tenants`` (all with a delay guarantee):
        a message is late if it never finished or took longer than its
        size's bound, ``guarantee.message_latency_bound(size)``."""
        return sum(1 for t in tenants for r in self.records(t)
                   if not r.completed or r.latency
                   > t.request.guarantee.message_latency_bound(r.size))

    def late(self, tenant: PacketTenant) -> Optional[float]:
        """Fraction of ``tenant``'s messages that were late; ``None``
        without a delay guarantee or without a single message (0 would
        read as "no violations" for a tenant that never ran)."""
        if not tenant.request.wants_delay:
            return None
        sent = len(self.records(tenant))
        return self.count_late([tenant]) / sent if sent else None

    def percentile_us(self, tenant: PacketTenant,
                      q: float) -> Optional[float]:
        """``tenant``'s ``q``-th latency percentile over finished
        messages in microseconds, ``None`` when none finished."""
        latencies = self.metrics.latencies(tenant.request.tenant_id)
        return units.to_usec(percentile(latencies, q)) if latencies else None
