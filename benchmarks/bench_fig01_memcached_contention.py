"""Fig. 1: memcached request latency, alone vs with competing traffic.

The paper's motivating measurement: a memcached tenant (Facebook-ETC-like
values) shares five servers with a netperf tenant; under plain TCP the
99th-percentile RPC latency inflates by roughly an order of magnitude and
the 99.9th by far more.  The testbed is substituted by the packet-level
simulator (see DESIGN.md); a fixed per-request service time stands in for
the end-host stack the paper's numbers include.

Expected shape: contention multiplies the p99 by >= 5x and the p99.9 by
more, while the median moves far less.
"""

import random

from repro import units
from repro.analysis import summarize
from repro.phynet import MetricsCollector, PacketNetwork
from repro.phynet.apps import BulkApp, MemcachedApp
from repro.topology import TreeTopology
from repro.workloads import EtcWorkload, Fixed
from repro.workloads.patterns import all_to_all_pairs

from conftest import print_table

DURATION = 0.05
N_SERVERS = 3
SERVICE_TIME = Fixed(80 * units.MICROS)  # end-host stack stand-in


def run_scenario(with_netperf: bool):
    topo = TreeTopology(n_pods=1, racks_per_pod=1,
                        servers_per_rack=N_SERVERS, slots_per_server=4,
                        link_rate=units.gbps(10))
    net = PacketNetwork(topo)
    metrics = MetricsCollector()
    rng = random.Random(17)
    for vm in range(6):
        net.add_vm(vm, 1, vm % N_SERVERS)
    memcached = MemcachedApp(net, metrics, 1, server_vm=0,
                             client_vms=list(range(1, 6)),
                             workload=EtcWorkload(), rng=rng,
                             service_time=SERVICE_TIME)
    memcached.start()
    if with_netperf:
        vms_b = list(range(6, 12))
        for vm in vms_b:
            net.add_vm(vm, 2, vm % N_SERVERS)
        BulkApp(net, metrics, 2, all_to_all_pairs(vms_b),
                chunk_size=units.MB).start()
    net.sim.run(until=DURATION)
    return summarize(metrics.latencies(1))


def compute():
    return run_scenario(False), run_scenario(True)


def test_fig01_memcached_contention():
    alone, contended = compute()

    def fmt(s):
        return [f"{s.count}", f"{units.to_usec(s.median):.0f}",
                f"{units.to_usec(s.p99):.0f}",
                f"{units.to_usec(s.p999):.0f}",
                f"{units.to_usec(s.maximum):.0f}"]

    print_table("Fig. 1: memcached RPC latency (us)",
                ["scenario", "rpcs", "median", "p99", "p99.9", "max"],
                [["alone"] + fmt(alone),
                 ["with netperf"] + fmt(contended)])

    # The paper's shape: an order of magnitude at the tail.
    assert contended.p99 >= 5 * alone.p99
    assert contended.p999 >= 5 * alone.p999
    # The tail inflates far more than the median (tail-at-scale effect).
    assert (contended.p999 / alone.p999) > (contended.median
                                            / alone.median)
