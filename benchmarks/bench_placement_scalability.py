"""Section 5's placement microbenchmark: time to place at 100K-host scale.

The paper: "in a simulated datacenter with 100K hosts with an average
tenant requesting 49 VMs... over 100K requests, the maximum placement
time is 1.15 s".  We build the same 100K-host topology and measure the
per-request placement latency over a (smaller, for wall-time) request
stream; the claim under test is that admission stays around a second per
request even at full scale, i.e. it is usable as an online controller.
"""

import random
import time

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology

from conftest import print_table

N_REQUESTS = 60
MEAN_VMS = 49


def build_datacenter():
    # 100,096 hosts: 23 pods x 34 racks x 128 servers... keep the paper's
    # three-tier shape with big racks so the server count lands on 100K.
    return TreeTopology(n_pods=25, racks_per_pod=50, servers_per_rack=80,
                        slots_per_server=8, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


def compute():
    rng = random.Random(99)
    topo = build_datacenter()
    manager = SiloPlacementManager(topo)
    times = []
    admitted = 0
    for _ in range(N_REQUESTS):
        n_vms = max(2, min(200, int(rng.expovariate(1.0 / MEAN_VMS))))
        request = TenantRequest(
            n_vms=n_vms,
            guarantee=NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([100, 250, 500])),
                burst=rng.choice([5, 15]) * units.KB,
                delay=units.msec(1),
                peak_rate=units.gbps(1)),
            tenant_class=TenantClass.CLASS_A)
        started = time.perf_counter()
        placement = manager.place(request)
        times.append(time.perf_counter() - started)
        if placement is not None:
            admitted += 1
    return topo, times, admitted


def test_placement_scalability():
    topo, times, admitted = compute()
    rows = [[
        f"{topo.n_servers:,}",
        f"{N_REQUESTS}",
        f"{admitted}",
        f"{1e3 * sum(times) / len(times):.1f}",
        f"{1e3 * max(times):.1f}",
    ]]
    print_table(
        "Section 5: placement manager scalability (paper: max 1.15 s "
        "at 100K hosts)",
        ["hosts", "requests", "admitted", "mean ms", "max ms"], rows)

    assert topo.n_servers == 100_000
    assert admitted > 0
    # The paper's bar: every placement decision lands within ~a second.
    assert max(times) < 1.5
