"""Flow-level (fluid) cluster simulator for datacenter-scale experiments.

Packet-level simulation cannot cover tens of thousands of servers over
minutes of tenant churn, so section 6.3's experiments use a flow-level
model, and so do we: flows are fluids with rates, either *reserved* from
the tenant's hose guarantee (Silo, Oktopus) or *max-min fair* over link
capacities (ideal TCP under locality placement).
"""

from repro.flowsim.job import FlowState, TenantJob
from repro.flowsim.sim import ClusterSim, ClusterStats
from repro.flowsim.workload import TenantWorkload, WorkloadConfig

__all__ = [
    "FlowState",
    "TenantJob",
    "ClusterSim",
    "ClusterStats",
    "TenantWorkload",
    "WorkloadConfig",
]
