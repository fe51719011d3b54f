"""Oktopus-style bandwidth-aware placement (the paper's baseline).

Reserves hose-model bandwidth on every link a tenant's traffic crosses but
ignores bursts and packet delay entirely -- the placement in the paper's
Fig. 5(a) that overflows switch buffers is exactly what this manager can
produce.
"""

from __future__ import annotations

from typing import Optional

from repro.core.tenant import TenantRequest
from repro.placement.base import PlacementManager
from repro.placement.state import Contribution, PortState


class OktopusPlacementManager(PlacementManager):
    """Admission control with bandwidth guarantees only."""

    def _allowed_scope(self, request: TenantRequest) -> Optional[str]:
        return "cluster"

    def _port_ok(self, state: PortState,
                 contribution: Contribution) -> bool:
        return state.admits_bandwidth(contribution)

    def _port_bound(self, state: PortState,
                    contribution: Contribution) -> bool:
        """Exact: ``admits_bandwidth`` is monotone in the load and the
        contribution, so on ``state`` it rejects only what more load or a
        larger contribution can never make fit."""
        return state.admits_bandwidth(contribution)
