"""Ablation: the hose-model aggregation tightening (section 4.2.2).

Silo adds tenant curves across a cut as ``A_{min(m, N-m)B, mS}`` instead
of the naive ``A_{mB, mS}`` -- the receiving side's hose caps the
sustainable rate, so reserving ``m*B`` would double-count.  This bench
measures what the tightening buys: how many tenants the same datacenter
admits with and without it, at two oversubscription levels.
"""

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology

from conftest import print_table

N_REQUESTS = 60


def admitted_count(hose_tightening: bool, oversubscription: float) -> int:
    topo = TreeTopology(n_pods=1, racks_per_pod=4, servers_per_rack=5,
                        slots_per_server=8, link_rate=units.gbps(10),
                        oversubscription=oversubscription)
    manager = SiloPlacementManager(topo, hose_tightening=hose_tightening)
    admitted = 0
    for _ in range(N_REQUESTS):
        request = TenantRequest(
            n_vms=10,
            guarantee=NetworkGuarantee(bandwidth=units.gbps(1.5),
                                       burst=2 * units.KB,
                                       delay=units.msec(2),
                                       peak_rate=units.gbps(1.5)),
            tenant_class=TenantClass.CLASS_A)
        if manager.place(request) is not None:
            admitted += 1
    return admitted


def compute():
    rows = []
    gains = {}
    for oversub in (2.0, 5.0):
        tight = admitted_count(True, oversub)
        naive = admitted_count(False, oversub)
        gains[oversub] = (tight, naive)
        rows.append([f"1:{oversub:.0f}", str(naive), str(tight),
                     f"{(tight - naive) / max(naive, 1):+.0%}"])
    return rows, gains


def test_ablation_hose_tightening():
    rows, gains = compute()
    print_table(
        "Ablation: tenants admitted with naive vs tightened hose "
        "aggregation (60 offered)",
        ["oversubscription", "naive m*B", "min(m,N-m)*B", "gain"], rows)

    for oversub, (tight, naive) in gains.items():
        # Tightening never hurts, and under oversubscription it strictly
        # helps: the naive sum exhausts uplink reservations early.
        assert tight >= naive
    assert gains[5.0][0] > gains[5.0][1]
