"""Section 4.4 at cluster scale: utilization recovered by best-effort tenants.

Silo's guarantees are not work-conserving across tenants -- Fig. 16 shows
the utilization price.  Section 4.4's remedy is to carry best-effort
tenants on the residual capacity at low switch priority.  This bench runs
the fluid cluster simulation at a fixed guaranteed-tenant load while
sweeping the fraction of extra best-effort tenants, and reports the
utilization recovered -- with guaranteed tenants' job durations untouched.
"""

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.flowsim import ClusterSim
from repro.flowsim.workload import TenantArrival, TenantWorkload, WorkloadConfig
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology

from conftest import print_table

HORIZON = 120.0
BE_EXTRA = [0.0, 0.25, 0.5]  # best-effort arrivals per guaranteed arrival


class MixedWorkload:
    """The calibrated guaranteed stream plus interleaved BE tenants."""

    def __init__(self, base: TenantWorkload, be_fraction: float):
        self.base = base
        self.be_fraction = be_fraction

    def arrivals(self, until):
        carry = 0.0
        for arrival in self.base.arrivals(until):
            yield arrival
            carry += self.be_fraction
            while carry >= 1.0:
                carry -= 1.0
                request = TenantRequest(
                    n_vms=8, guarantee=None,
                    tenant_class=TenantClass.BEST_EFFORT)
                yield TenantArrival(
                    time=arrival.time, request=request,
                    pairs=[(i, (i + 4) % 8) for i in range(8)],
                    flow_bytes=500 * units.MB,
                    compute_time=1.0)


def run_cell(be_fraction: float):
    topo = TreeTopology(n_pods=2, racks_per_pod=4, servers_per_rack=10,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0)
    manager = SiloPlacementManager(topo)
    config = WorkloadConfig(b_flow_bytes=250 * units.MB,
                            a_flow_bytes=5 * units.MB,
                            mean_compute_time=8.0,
                            permutation_x=3, mean_vms=10, max_vms=16)
    base = TenantWorkload.for_occupancy(config, 0.5, topo.n_slots, seed=31)
    base.arrival_rate *= 1.5
    sim = ClusterSim(manager, sharing="reserved")
    return sim.run(MixedWorkload(base, be_fraction), until=HORIZON)


def compute():
    return {fraction: run_cell(fraction) for fraction in BE_EXTRA}


def test_ablation_best_effort_utilization():
    results = compute()

    rows = []
    for fraction, stats in results.items():
        rows.append([
            f"{fraction:g}",
            f"{stats.network_utilization:.2%}",
            f"{stats.mean_occupancy:.1%}",
            f"{stats.finished_jobs}",
        ])
    print_table(
        "Section 4.4: utilization recovered by best-effort tenants "
        "(fixed guaranteed load)",
        ["BE per guaranteed arrival", "utilization", "occupancy",
         "jobs"], rows)

    # Utilization rises monotonically with the best-effort share.
    utils = [results[f].network_utilization for f in BE_EXTRA]
    assert utils[1] > utils[0]
    assert utils[2] > utils[1]
    # And meaningfully: the residual class recovers a decent chunk.
    assert utils[-1] > 1.3 * utils[0]
