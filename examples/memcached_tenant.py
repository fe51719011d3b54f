#!/usr/bin/env python
"""An OLDI-style tenant: memcached under a bandwidth-hungry neighbour.

Recreates the motivating experiment of the paper (Fig. 1 / section 6.1)
at small scale: tenant A serves memcached RPCs with Facebook-ETC-like
value sizes; tenant B runs an all-to-all shuffle.  We run the same
workload three ways --

* both tenants on plain TCP (the status quo: the tail explodes),
* tenant A alone (the baseline the tail should resemble),
* both tenants under Silo guarantees (the tail is tamed).

Run:  python examples/memcached_tenant.py
"""

import random

from repro import NetworkGuarantee, units
from repro.analysis import summarize
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import BulkApp, MemcachedApp
from repro.topology import TreeTopology
from repro.workloads import EtcWorkload
from repro.workloads.patterns import all_to_all_pairs

DURATION = 0.05  # simulated seconds
N_SERVERS = 3
VMS_PER_TENANT = 6


def build(scheme: str, with_neighbour: bool):
    """``scheme`` is a registered mechanism: "none" (plain TCP) or "silo"."""
    topology = TreeTopology(n_pods=1, racks_per_pod=1,
                            servers_per_rack=N_SERVERS,
                            slots_per_server=4,
                            link_rate=units.gbps(10))
    mech = get_mechanism(scheme)
    net = mech.build_network(topology)
    metrics = MetricsCollector()
    rng = random.Random(42)
    servers = [vm % N_SERVERS for vm in range(VMS_PER_TENANT)]

    g_a = NetworkGuarantee(bandwidth=units.mbps(420),
                           burst=3 * units.KB,
                           delay=units.msec(1),
                           peak_rate=units.gbps(1))
    vms_a = mech.attach(net, 1, servers, g_a)
    memcached = MemcachedApp(net, metrics, 1, server_vm=vms_a[0],
                             client_vms=vms_a[1:],
                             workload=EtcWorkload(), rng=rng)
    memcached.start()

    shuffle = None
    if with_neighbour:
        g_b = NetworkGuarantee(bandwidth=units.gbps(2.9),
                               burst=1.5 * units.KB)
        vms_b = mech.attach(net, 2, servers, g_b)
        shuffle = BulkApp(net, metrics, 2, all_to_all_pairs(vms_b),
                          chunk_size=units.MB)
        shuffle.start()

    net.sim.run(until=DURATION)
    return metrics, memcached, shuffle


def report(label: str, metrics: MetricsCollector, memcached, shuffle):
    lats = metrics.latencies(1)
    summary = summarize(lats)
    line = (f"{label:24s} rpcs={memcached.rpcs_completed:6d} "
            f"median={units.to_usec(summary.median):7.1f}us "
            f"p99={units.to_usec(summary.p99):8.1f}us "
            f"p99.9={units.to_usec(summary.p999):9.1f}us")
    if shuffle is not None:
        line += f" shuffle={units.to_gbps(shuffle.throughput(DURATION)):5.2f}Gbps"
    print(line)


def main() -> None:
    print(f"memcached RPC latency over {DURATION * 1000:.0f} ms simulated")
    for label, scheme, neighbour in [
        ("TCP (idle)", "none", False),
        ("TCP + shuffle", "none", True),
        ("Silo + shuffle", "silo", True),
    ]:
        metrics, memcached, shuffle = build(scheme, neighbour)
        report(label, metrics, memcached, shuffle)
    print("\nExpected shape (paper Fig. 1 / Fig. 11): the TCP tail "
          "inflates by an order of magnitude under contention; Silo "
          "pulls it back near the idle baseline while the shuffle "
          "tenant keeps its guaranteed bandwidth.")


if __name__ == "__main__":
    main()
