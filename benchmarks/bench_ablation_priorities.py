"""Section 4.4 ablation: best-effort tenants on the residual capacity.

Silo's guarantees are not work-conserving across tenants, which costs
utilization.  The paper's answer is 802.1q: best-effort tenants run at
low switch priority and soak up whatever the guaranteed tenants leave.
This bench measures exactly that three-way trade:

* guaranteed tenant alone -- baseline latency, wasted capacity;
* + best-effort tenant at LOW priority -- latency preserved, wire filled;
* + the same tenant at EQUAL priority -- the latency guarantee erodes,
  demonstrating why the priority split is load-bearing.
"""

import random

from repro import units
from repro.analysis import percentile
from repro.core.guarantees import NetworkGuarantee
from repro.phynet import (
    MetricsCollector,
    PacketNetwork,
    PRIORITY_BEST_EFFORT,
    PRIORITY_GUARANTEED,
)
from repro.phynet.apps import BulkApp, EpochBurstApp
from repro.topology import TreeTopology
from repro.workloads import Fixed
from repro.workloads.patterns import all_to_all_pairs

from conftest import print_table

DURATION = 0.04
MESSAGE = 15 * units.KB
GUARANTEE = NetworkGuarantee(bandwidth=units.mbps(250),
                             burst=15 * units.KB, delay=units.msec(1),
                             peak_rate=units.gbps(1))


def run_scenario(best_effort: str):
    """``best_effort``: "none", "low-priority" or "equal-priority"."""
    topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                        slots_per_server=6, link_rate=units.gbps(10))
    net = PacketNetwork(topo)
    metrics = MetricsCollector()
    rng = random.Random(77)
    for vm in range(6):
        net.add_vm(vm, 1, vm % 3, guarantee=GUARANTEE, paced=True)
    app_a = EpochBurstApp(net, metrics, 1, list(range(6)), Fixed(MESSAGE),
                          epoch=units.msec(3), rng=rng)
    app_a.start()

    bulk = None
    if best_effort != "none":
        priority = (PRIORITY_BEST_EFFORT if best_effort == "low-priority"
                    else PRIORITY_GUARANTEED)
        vms = list(range(6, 12))
        for vm in vms:
            net.add_vm(vm, 2, vm % 3, priority=priority)  # unpaced
        bulk = BulkApp(net, metrics, 2, all_to_all_pairs(vms),
                       chunk_size=units.MB)
        bulk.start()
    net.sim.run(until=DURATION)

    lats = metrics.latencies(1)
    elapsed = DURATION
    wire = sum(p.stats.tx_bytes for p in net.ports.values())
    return {
        "p99": percentile(lats, 99),
        "max": max(lats),
        "bulk": bulk.throughput(elapsed) if bulk else 0.0,
        "wire_bytes": wire,
    }


def compute():
    return {mode: run_scenario(mode)
            for mode in ("none", "low-priority", "equal-priority")}


def test_ablation_best_effort_priorities():
    results = compute()
    bound = GUARANTEE.message_latency_bound(MESSAGE)

    rows = []
    for mode, r in results.items():
        rows.append([
            mode,
            f"{units.to_usec(r['p99']):.0f}",
            f"{units.to_usec(r['max']):.0f}",
            f"{units.to_gbps(r['bulk']):.1f}",
            f"{r['wire_bytes'] / 1e6:.0f}",
        ])
    print_table(
        f"Section 4.4: best-effort tenants on residual capacity "
        f"(class-A bound {units.to_usec(bound):.0f} us)",
        ["best-effort mode", "A p99 us", "A max us", "BE Gbps",
         "wire MB"], rows)

    alone = results["none"]
    low = results["low-priority"]
    equal = results["equal-priority"]
    # Low-priority best effort fills the wire...
    assert low["bulk"] > units.gbps(5)
    assert low["wire_bytes"] > 3 * alone["wire_bytes"]
    # ...without breaking the guarantee.
    assert low["max"] <= bound
    # Equal priority erodes the tail relative to the low-priority split.
    assert equal["max"] > 1.5 * low["max"]