"""Table 2 + Fig. 11: the testbed experiment under Silo req1-req3.

Two 15-VM tenants on five servers (six VMs each): tenant A serves
memcached, tenant B shuffles with netperf.  Requirement rows follow
Table 2 -- tenant A's bandwidth guarantee sweeps {1.0, 1.5, 2.0} x its
average requirement (210 Mbps), tenant B gets the remaining capacity so
that three VMs of each tenant per server sum to the 10 Gbps NIC.

Expected shape (Fig. 11): plain TCP inflates tenant A's tail latency by
orders of magnitude; every Silo requirement keeps the 99th percentile
within the ~2 ms message-latency guarantee; bigger reservations for
tenant A trim its 99.9th percentile further while tenant B still gets
>= 90% of the throughput TCP alone would give it.
"""

import random

from repro import units
from repro.analysis import summarize
from repro.core.guarantees import NetworkGuarantee, message_latency_bound
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import BulkApp, MemcachedApp
from repro.topology import TreeTopology
from repro.workloads import EtcWorkload, Fixed
from repro.workloads.patterns import all_to_all_pairs

from conftest import print_table

DURATION = 0.05
N_SERVERS = 5
VMS_EACH = 15
AVG_BANDWIDTH = units.mbps(210)
SERVICE_TIME = Fixed(80 * units.MICROS)
#: Per-client request gap scaled so the server's aggregate response
#: traffic averages ~80% of the tenant's measured bandwidth requirement
#: (as in the paper, where 210 Mbps IS the measured average of this
#: workload): 14 clients x ~4 krps x ~330 B values ~ 21 MB/s.
ETC = EtcWorkload(mean_interarrival=250 * units.MICROS)

#: Table 2's rows: (label, tenant A bandwidth, tenant B bandwidth).
REQUIREMENTS = [
    ("req1", units.mbps(210), units.mbps(3123)),
    ("req2", units.mbps(315), units.mbps(3018)),
    ("req3", units.mbps(420), units.mbps(2913)),
]


def run_scenario(scheme: str, bw_a=None, bw_b=None, with_b=True):
    """``scheme`` is a registered mechanism: "none" (plain TCP) or
    "silo" (tenant A guaranteed ``bw_a``, tenant B ``bw_b``)."""
    topo = TreeTopology(n_pods=1, racks_per_pod=1,
                        servers_per_rack=N_SERVERS, slots_per_server=6,
                        link_rate=units.gbps(10))
    mech = get_mechanism(scheme)
    net = mech.build_network(topo)
    metrics = MetricsCollector()
    rng = random.Random(23)
    servers = [vm % N_SERVERS for vm in range(VMS_EACH)]

    g_a = None
    if scheme == "silo":
        g_a = NetworkGuarantee(bandwidth=bw_a, burst=1.5 * units.KB,
                               delay=units.msec(1),
                               peak_rate=units.gbps(1))
    vms_a = mech.attach(net, 1, servers, g_a)
    memcached = MemcachedApp(net, metrics, 1, server_vm=vms_a[0],
                             client_vms=vms_a[1:],
                             workload=ETC, rng=rng,
                             service_time=SERVICE_TIME)
    memcached.start()

    netperf = None
    if with_b:
        g_b = None
        if scheme == "silo":
            g_b = NetworkGuarantee(bandwidth=bw_b, burst=1.5 * units.KB)
        vms_b = mech.attach(net, 2, servers, g_b)
        netperf = BulkApp(net, metrics, 2, all_to_all_pairs(vms_b),
                          chunk_size=units.MB)
        netperf.start()
    net.sim.run(until=DURATION)
    summary = summarize(metrics.latencies(1))
    throughput = netperf.throughput(DURATION) if netperf else 0.0
    return summary, throughput, memcached.rpcs_completed


def compute():
    results = {}
    results["tcp-idle"] = run_scenario("none", with_b=False)
    results["tcp"] = run_scenario("none")
    for label, bw_a, bw_b in REQUIREMENTS:
        results[f"silo-{label}"] = run_scenario("silo", bw_a, bw_b)
    return results


def test_fig11_testbed_guarantees():
    results = compute()
    # The message-latency guarantee of section 6.1 (~2 ms): one maximum
    # 1 KB value at Bmax after the 1 ms delay allowance, doubled for the
    # request leg.
    guarantee = 2 * message_latency_bound(
        1 * units.KB, AVG_BANDWIDTH, 1.5 * units.KB, units.msec(1),
        units.gbps(1))

    rows = []
    for label, (summary, throughput, rpcs) in results.items():
        rows.append([
            label, f"{rpcs}",
            f"{units.to_usec(summary.median):.0f}",
            f"{units.to_usec(summary.p99):.0f}",
            f"{units.to_usec(summary.p999):.0f}",
            f"{units.to_gbps(throughput):.2f}" if throughput else "-",
        ])
    print_table(
        f"Fig. 11: memcached latency (us) and netperf throughput; "
        f"message-latency guarantee ~{units.to_msec(guarantee):.2f} ms",
        ["scenario", "rpcs", "median", "p99", "p99.9", "B Gbps"], rows)

    idle = results["tcp-idle"][0]
    tcp = results["tcp"][0]
    # TCP under contention suffers at the tail (Fig. 11b).
    assert tcp.p999 >= 10 * idle.p999
    for label, _, bw_b in REQUIREMENTS:
        summary, throughput, _ = results[f"silo-{label}"]
        # Silo keeps the p99 within the guarantee (Fig. 11a/b)...
        assert summary.p99 <= guarantee
        # ...while tenant B achieves >= 85% of its aggregate hose
        # reservation (Fig. 11c: "92% to 99% of bandwidth achieved by
        # TCP alone").
        assert throughput >= 0.85 * VMS_EACH * bw_b
    # Bigger reservations for tenant A monotonically trim its tail.
    tails = [results[f"silo-{label}"][0].p999
             for label, _, _ in REQUIREMENTS]
    assert tails[-1] <= tails[0] * 1.2
