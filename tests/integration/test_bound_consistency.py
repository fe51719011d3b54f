"""Consistency between the three layers of queue analysis.

The repo computes switch queuing three ways: the paper's illustrative
burst-only arithmetic (`repro.analysis.burst`), the rigorous per-port
admission bound (`repro.placement.state`), and the actual packet-level
simulation (`repro.phynet`).  Soundness means they nest: illustrative
<= rigorous, and simulated <= rigorous for admitted (conforming)
tenants.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis.burst import burst_convergence
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import EpochBurstApp
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology
from repro.workloads import Fixed


def topo(buffer_kb=312):
    return TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=4,
                        slots_per_server=4, link_rate=units.gbps(10),
                        buffer_bytes=buffer_kb * units.KB)


guarantee_params = st.tuples(
    st.integers(min_value=4, max_value=12),          # n_vms
    st.floats(min_value=100, max_value=1000),        # Mbps
    st.floats(min_value=2, max_value=30),            # burst KB
    st.floats(min_value=0.5, max_value=10),          # Bmax Gbps
)


@settings(max_examples=30, deadline=None)
@given(guarantee_params)
def test_illustrative_burst_never_exceeds_rigorous_bound(params):
    """The Fig. 5 arithmetic is a lower bound on the admission math.

    For every port of an admitted tenant, the burst-only convergence
    backlog must not exceed the rigorous curve-based backlog the manager
    enforces, because the rigorous aggregate additionally carries the
    sustained-bandwidth and upstream-bunching terms.
    """
    n_vms, mbps, burst_kb, bmax = params
    bandwidth = units.mbps(mbps)
    guarantee = NetworkGuarantee(
        bandwidth=bandwidth, burst=burst_kb * units.KB,
        delay=units.msec(2),
        peak_rate=max(units.gbps(bmax), bandwidth))
    manager = SiloPlacementManager(topo(buffer_kb=2000))
    request = TenantRequest(n_vms=n_vms, guarantee=guarantee,
                            tenant_class=TenantClass.CLASS_A)
    placement = manager.place(request)
    if placement is None or len(set(placement.vm_servers)) < 2:
        return  # nothing crosses the network
    assignment = placement.vms_per_server()
    for port_burst in burst_convergence(manager.topology, assignment,
                                        guarantee):
        state = manager.states[port_burst.port.port_id]
        assert (port_burst.backlog_bytes
                <= state.backlog() + units.MTU + 1e-6)


class TestSimulationWithinBound:
    def test_simulated_queues_stay_inside_admission_backlog(self):
        """Drive an admitted tenant's worst case at packet level: every
        port's observed max queue must stay within the rigorous bound."""
        manager = SiloPlacementManager(topo())
        guarantee = NetworkGuarantee(bandwidth=units.mbps(400),
                                     burst=15 * units.KB,
                                     delay=units.msec(1),
                                     peak_rate=units.gbps(1))
        request = TenantRequest(n_vms=8, guarantee=guarantee,
                                tenant_class=TenantClass.CLASS_A)
        placement = manager.place(request)
        assert placement is not None

        silo = get_mechanism("silo")
        net = silo.build_network(manager.topology)
        vm_ids = silo.attach(net, request.tenant_id, placement.vm_servers,
                             guarantee)
        metrics = MetricsCollector()
        app = EpochBurstApp(net, metrics, request.tenant_id,
                            vm_ids, Fixed(15 * units.KB),
                            epoch=units.msec(3), rng=random.Random(3),
                            jitter=units.MICROS)
        app.start(phase=0.0)
        net.sim.run(until=0.05)
        assert metrics.latencies(request.tenant_id)
        for port_id, sim_port in net.ports.items():
            bound = manager.states[port_id].backlog()
            assert sim_port.stats.max_queue_bytes <= bound + units.MTU
