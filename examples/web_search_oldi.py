#!/usr/bin/env python
"""Web-search-style partition-aggregate under an SLO budget.

The paper's introduction argues that an OLDI task with a 20 ms budget can
spend 16 ms computing *if* it knows messages take at most 4 ms -- the
whole point of guaranteed message latency.  This example runs a
partition-aggregate service (one root, seven workers) three ways:

* plain TCP on an idle fabric (fast, but no guarantee to plan against),
* plain TCP next to a bandwidth-hungry tenant (the tail blows the SLO),
* under Silo guarantees next to the same neighbour (a computable bound).

Run:  python examples/web_search_oldi.py
"""

import random

from repro import NetworkGuarantee, units
from repro.analysis import percentile
from repro.core.guarantees import message_latency_bound
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import BulkApp
from repro.phynet.oldi import PartitionAggregateApp
from repro.topology import TreeTopology
from repro.workloads import Fixed
from repro.workloads.patterns import all_to_all_pairs

DURATION = 0.06
DEADLINE = 5 * units.MILLIS
N_WORKERS = 7
GUARANTEE = NetworkGuarantee(bandwidth=units.mbps(500),
                             burst=20 * units.KB, delay=units.msec(1),
                             peak_rate=units.gbps(1))


def run(scheme: str, with_neighbour: bool):
    """``scheme`` is a registered mechanism: "none" (plain TCP) or "silo"."""
    topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=4,
                        slots_per_server=6, link_rate=units.gbps(10))
    mech = get_mechanism(scheme)
    net = mech.build_network(topo)
    metrics = MetricsCollector()
    vms_a = mech.attach(net, 1, [vm % 4 for vm in range(N_WORKERS + 1)],
                        GUARANTEE)
    app = PartitionAggregateApp(
        net, metrics, 1, root_vm=vms_a[0], worker_vms=vms_a[1:],
        rng=random.Random(13),
        response_size=Fixed(15 * units.KB),
        worker_compute=Fixed(500 * units.MICROS),
        deadline=DEADLINE)
    if with_neighbour:
        # The neighbour has no guarantee: under Silo it rides the
        # best-effort class (section 4.4); under plain TCP there is no
        # such split.
        vms_b = mech.attach(net, 2, [vm % 4 for vm in range(12)], None)
        BulkApp(net, metrics, 2, all_to_all_pairs(vms_b),
                chunk_size=units.MB).start()
    app.start(interval=units.msec(3))
    net.sim.run(until=DURATION)
    lats = [q.latency for q in app.completed_queries()]
    return app, lats


def main() -> None:
    # What the tenant can *promise* under Silo: query down + compute +
    # response back, each leg bounded by the section 4.1 formula.
    leg = message_latency_bound(15 * units.KB, GUARANTEE.bandwidth,
                                GUARANTEE.burst, GUARANTEE.delay,
                                GUARANTEE.effective_peak_rate)
    network_bound = 2 * leg
    print(f"deadline {DEADLINE * 1e3:.0f} ms; guaranteed network round "
          f"trip <= {network_bound * 1e3:.2f} ms; compute budget "
          f"{(DEADLINE - network_bound - 500e-6) * 1e3:.2f} ms\n")

    for label, scheme, neighbour in [
            ("TCP (idle)", "none", False),
            ("TCP + neighbour", "none", True),
            ("Silo + neighbour", "silo", True)]:
        app, lats = run(scheme, neighbour)
        print(f"{label:18s} queries={len(lats):3d} "
              f"median={percentile(lats, 50) * 1e3:6.2f}ms "
              f"p99={percentile(lats, 99) * 1e3:6.2f}ms "
              f"SLO misses={app.slo_miss_fraction():6.1%}")
    print("\nExpected: the neighbour blows TCP's tail past the deadline; "
          "Silo keeps every query inside the bound it promised.")


if __name__ == "__main__":
    main()
