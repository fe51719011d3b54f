"""Silo's placement manager: both queuing constraints enforced.

Constraint 1 (per port): the queue bound -- computed from the conservative
aggregate of all admitted tenants' arrival curves -- must stay within the
port's queue capacity, so switch buffers can absorb every admissible burst
without loss.

Constraint 2 (per path): the sum of queue capacities along any path between
two of the tenant's VMs must not exceed the tenant's delay guarantee.
Because queue capacities are static, this reduces to capping how wide in
the hierarchy the tenant may be spread, which is decided once per request.
"""

from __future__ import annotations

from typing import Optional

from repro.core.tenant import TenantRequest
from repro.placement.base import PlacementManager
from repro.placement.state import Contribution, PortState


class SiloPlacementManager(PlacementManager):
    """Admission control with bandwidth, burst and delay guarantees."""

    def _allowed_scope(self, request: TenantRequest) -> Optional[str]:
        if request.guarantee is None or not request.guarantee.wants_delay:
            return "cluster"
        try:
            return self.topology.widest_scope_for_delay(
                request.guarantee.delay)
        except ValueError:
            return None

    def _port_ok(self, state: PortState,
                 contribution: Contribution) -> bool:
        return state.admits(contribution)

    def _port_bound(self, state: PortState,
                    contribution: Contribution) -> bool:
        """Implied by ``admits`` on every reachable state at least as
        loaded, for every contribution at least as large; see
        :meth:`PortState.could_admit`."""
        return state.could_admit(contribution)
