"""VM placement and admission control.

Three placement managers share one greedy first-fit search (section 4.2.3):

* :class:`~repro.placement.silo.SiloPlacementManager` -- enforces Silo's two
  queuing constraints (queue bound <= queue capacity at every port; summed
  queue capacities along every path <= the delay guarantee);
* :class:`~repro.placement.oktopus.OktopusPlacementManager` -- the
  bandwidth-only baseline;
* :class:`~repro.placement.locality.LocalityPlacementManager` -- the
  locality-aware baseline that packs VMs as close together as slots allow.
"""

from repro.placement.state import PortState, Contribution
from repro.placement.base import PlacementManager
from repro.placement.silo import SiloPlacementManager
from repro.placement.oktopus import OktopusPlacementManager
from repro.placement.locality import LocalityPlacementManager
from repro.placement.controller import (ClusterController, RecoveryReport,
                                        TenantOutcome)

__all__ = [
    "PortState",
    "Contribution",
    "PlacementManager",
    "SiloPlacementManager",
    "OktopusPlacementManager",
    "LocalityPlacementManager",
    "ClusterController",
    "RecoveryReport",
    "TenantOutcome",
]
