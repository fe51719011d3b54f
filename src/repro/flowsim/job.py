"""Tenant jobs and their flows for the fluid simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.tenant import Placement, TenantRequest

#: Flows count as drained below this many bytes: sub-microbyte residue
#: from rate * dt accounting, far below one packet, never real payload.
_DONE_EPS = 1e-6


class FlowState:
    """One fluid flow: a VM pair moving ``remaining`` bytes.

    ``links`` are the port ids the flow crosses (used both for max-min
    sharing and utilization accounting); ``rate`` is the current fluid
    rate, re-assigned by the simulator's sharing policy.
    """

    __slots__ = ("tenant_id", "src_vm", "dst_vm", "links", "nominal_rate",
                 "epoch", "key", "remaining", "rate", "updated")

    def __init__(self, tenant_id: int, src_vm: int, dst_vm: int,
                 links: Tuple[int, ...], remaining: float) -> None:
        self.tenant_id = tenant_id
        self.src_vm = src_vm
        self.dst_vm = dst_vm
        self.links = links
        #: Bytes still to deliver.
        self.remaining = remaining
        #: Current fluid rate.
        self.rate = 0.0
        #: The reserved (hose-split) rate assigned at admission, before
        #: any fault capping; 0 for flows whose rate is dynamically
        #: shared.
        self.nominal_rate = 0.0
        #: Simulator bookkeeping: virtual time ``remaining`` was last
        #: brought up to date (flows advance lazily between rate
        #: changes).
        self.updated = 0.0
        #: Simulator bookkeeping: bumped on every rate change to
        #: invalidate finish events scheduled under the old rate.
        self.epoch = 0
        #: Sharing-solver key assigned by the owning simulator (None for
        #: standalone flows).
        self.key = None

    @property
    def done(self) -> bool:
        """Whether the flow has delivered all its bytes."""
        return self.remaining <= _DONE_EPS

    def __repr__(self) -> str:
        return (f"FlowState(tenant_id={self.tenant_id}, "
                f"src_vm={self.src_vm}, dst_vm={self.dst_vm}, "
                f"links={self.links!r}, remaining={self.remaining!r}, "
                f"rate={self.rate!r}, nominal_rate={self.nominal_rate!r}, "
                f"updated={self.updated!r}, epoch={self.epoch})")


@dataclass
class TenantJob:
    """A tenant's unit of work: flows plus a minimum compute time.

    The job (and the tenant) finishes when every flow has drained *and*
    the compute time has elapsed; the tenant then departs and frees its
    slots and reservations (section 6.3's model).
    """

    request: TenantRequest
    placement: Placement
    flows: List[FlowState]
    compute_time: float
    arrival: float
    finish: Optional[float] = None

    @property
    def tenant_id(self) -> int:
        """The owning tenant's id."""
        return self.request.tenant_id

    @property
    def network_done(self) -> bool:
        """Whether every flow of the job has finished."""
        return all(flow.done for flow in self.flows)

    @property
    def duration(self) -> Optional[float]:
        """Arrival-to-finish duration, or None while running."""
        if self.finish is None:
            return None
        return self.finish - self.arrival
