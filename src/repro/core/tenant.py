"""Tenant requests and placement results."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.guarantees import NetworkGuarantee

_tenant_ids = itertools.count(1)


def reset_tenant_ids() -> None:
    """Restart the process-global tenant-id counter at 1.

    Auto-assigned ids (``TenantRequest`` without an explicit
    ``tenant_id``) come from one process-global counter, so the ids a
    scenario sees depend on how many tenants the process created before
    it.  The campaign runner calls this before every cell so a cell's
    output is byte-identical whether it runs first in a fresh worker
    process or hundredth in a serial in-process sweep.  Never call it
    while a placement manager still holds live tenants: recycled ids
    would collide inside that manager.
    """
    global _tenant_ids
    _tenant_ids = itertools.count(1)


class TenantClass(enum.Enum):
    """The two tenant classes of the paper's evaluation (Table 3).

    ``CLASS_A``: delay-sensitive, needs bandwidth + delay + burst
    guarantees (OLDI-style, all-to-one traffic).
    ``CLASS_B``: bandwidth-sensitive only (data-parallel, all-to-all).
    ``BEST_EFFORT``: no guarantees at all; carried at low switch priority
    on residual capacity (section 4.4).
    """

    CLASS_A = "class-a"
    CLASS_B = "class-b"
    BEST_EFFORT = "best-effort"


@dataclass
class TenantRequest:
    """A tenant's admission request: ``N`` VMs with a common guarantee.

    Silo's pricing model is per-tenant: all of a tenant's VMs share the
    same ``{B, S, d, Bmax}`` (section 4.1).  ``guarantee`` is ``None`` only
    for best-effort tenants.
    """

    n_vms: int
    guarantee: Optional[NetworkGuarantee]
    tenant_class: TenantClass = TenantClass.CLASS_B
    name: Optional[str] = None
    tenant_id: int = field(default_factory=lambda: next(_tenant_ids))

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise ValueError("a tenant needs at least one VM")
        if self.guarantee is None and self.tenant_class is not TenantClass.BEST_EFFORT:
            raise ValueError("only best-effort tenants may omit a guarantee")
        if self.name is None:
            self.name = f"tenant-{self.tenant_id}"

    @property
    def wants_delay(self) -> bool:
        """Whether this tenant asked for a delay guarantee."""
        return self.guarantee is not None and self.guarantee.wants_delay


@dataclass
class Placement:
    """Where an admitted tenant's VMs landed.

    ``vm_servers[i]`` is the server id hosting the tenant's ``i``-th VM.
    """

    request: TenantRequest
    vm_servers: List[int]

    def __post_init__(self) -> None:
        if len(self.vm_servers) != self.request.n_vms:
            raise ValueError(
                f"placement has {len(self.vm_servers)} VM slots for a "
                f"request of {self.request.n_vms} VMs")

    @property
    def tenant_id(self) -> int:
        """The placed tenant's id."""
        return self.request.tenant_id

    def vms_per_server(self) -> Dict[int, int]:
        """Map server id -> number of this tenant's VMs hosted there."""
        counts: Dict[int, int] = {}
        for server in self.vm_servers:
            counts[server] = counts.get(server, 0) + 1
        return counts
