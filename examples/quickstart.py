#!/usr/bin/env python
"""Quickstart: admit a tenant, read off its guarantees, verify on the wire.

This walks the three steps a Silo deployment performs:

1. describe the datacenter and stand up the placement manager;
2. admit a tenant with {bandwidth, burst, delay} guarantees -- the
   placement manager finds servers whose switch queues can absorb it;
3. compute the tenant-visible message-latency bound from the guarantee
   alone, then *check it* by simulating the tenant's worst-case traffic
   at packet level.

Run:  python examples/quickstart.py
"""

import random

from repro import NetworkGuarantee, TenantClass, TenantRequest
from repro import units
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import EpochBurstApp
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology
from repro.workloads import Fixed


def main() -> None:
    # 1. A small datacenter: 2 racks x 4 servers x 4 VM slots, 10 GbE,
    #    shallow-buffered switches (312 KB per port, as in the paper).
    topology = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=4,
                            slots_per_server=4,
                            link_rate=units.gbps(10),
                            buffer_bytes=312 * units.KB)
    manager = SiloPlacementManager(topology)
    print(f"datacenter: {topology}")

    # 2. A tenant that needs predictable small-message latency: 8 VMs,
    #    250 Mbps each, 15 KB burst allowance, 1 ms packet delay, and
    #    bursts serialized at up to 1 Gbps.
    request = TenantRequest(
        n_vms=8,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(250),
                                   burst=15 * units.KB,
                                   delay=units.msec(1),
                                   peak_rate=units.gbps(1)),
        tenant_class=TenantClass.CLASS_A)
    placement = manager.place(request)
    if placement is None:
        raise SystemExit("tenant rejected -- should not happen here")
    print(f"admitted {request.name} on servers "
          f"{sorted(set(placement.vm_servers))}")

    # 3. The tenant can now bound its own message latency, with no
    #    knowledge of other tenants (section 4.1).
    message = 15 * units.KB
    bound = request.guarantee.message_latency_bound(message)
    print(f"guaranteed latency for a {message / 1000:.0f} KB message: "
          f"{units.to_msec(bound):.3f} ms")

    # Verify on the simulated wire: all 7 workers burst a full message to
    # the aggregator every 2 ms -- the worst case the guarantee covers.
    # The Silo mechanism puts every VM behind a pacer derived from the
    # guarantee.
    silo = get_mechanism("silo")
    net = silo.build_network(topology)
    vm_ids = silo.attach(net, request.tenant_id, placement.vm_servers,
                         request.guarantee)
    metrics = MetricsCollector()
    app = EpochBurstApp(net, metrics, request.tenant_id, vm_ids,
                        Fixed(message), epoch=units.msec(2),
                        rng=random.Random(0))
    app.start(phase=0.0)
    net.sim.run(until=0.1)

    latencies = metrics.latencies(request.tenant_id)
    worst = max(latencies)
    print(f"simulated {len(latencies)} messages: "
          f"median {units.to_usec(sorted(latencies)[len(latencies) // 2]):.0f} us, "
          f"worst {units.to_usec(worst):.0f} us "
          f"(bound {units.to_usec(bound):.0f} us)")
    print("bound holds!" if worst <= bound else "BOUND VIOLATED")
    drops = net.port_stats()["drops"]
    print(f"switch drops: {drops} (placement sized every buffer)")


if __name__ == "__main__":
    main()
