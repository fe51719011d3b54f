"""Partition-aggregate OLDI application."""

import random

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import BulkApp
from repro.phynet.oldi import PartitionAggregateApp
from repro.topology import TreeTopology
from repro.workloads import Fixed
from repro.workloads.patterns import all_to_all_pairs


def build(paced=False, n_workers=5):
    """The app on plain TCP, or under Silo with ``paced``."""
    topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                        slots_per_server=6, link_rate=units.gbps(10))
    mech = get_mechanism("silo" if paced else "none")
    net = mech.build_network(topo)
    metrics = MetricsCollector()
    guarantee = NetworkGuarantee(bandwidth=units.mbps(500),
                                 burst=20 * units.KB,
                                 delay=units.msec(1),
                                 peak_rate=units.gbps(1))
    mech.attach(net, 1, [vm % 3 for vm in range(n_workers + 1)], guarantee)
    app = PartitionAggregateApp(
        net, metrics, 1, root_vm=0, worker_vms=list(range(1, n_workers + 1)),
        rng=random.Random(5), worker_compute=Fixed(200 * units.MICROS),
        deadline=20 * units.MILLIS)
    return net, metrics, app


class TestPartitionAggregate:
    def test_queries_complete(self):
        net, metrics, app = build()
        app.start(interval=units.msec(2))
        net.sim.run(until=0.03)
        completed = app.completed_queries()
        assert len(completed) >= 10
        for query in completed:
            assert query.responses == 5
            assert query.latency > 200 * units.MICROS  # compute floor

    def test_latency_includes_fanout_and_aggregation(self):
        net, metrics, app = build()
        app.start(interval=units.msec(2))
        net.sim.run(until=0.03)
        query = app.completed_queries()[0]
        # Query + compute + response: comfortably above one compute time
        # and below a millisecond on an idle 10G fabric.
        assert 200 * units.MICROS < query.latency < units.msec(1)

    def test_slo_misses_counted_under_contention(self):
        net, metrics, app = build()
        # A bulk neighbour on the same servers with a tight deadline.
        vms_b = list(range(6, 12))
        for vm in vms_b:
            net.add_vm(vm, 2, vm % 3)
        BulkApp(net, metrics, 2, all_to_all_pairs(vms_b),
                chunk_size=units.MB).start()
        app.deadline = 600 * units.MICROS
        app.start(interval=units.msec(2))
        net.sim.run(until=0.04)
        assert app.slo_miss_fraction() > 0.0

    def test_guaranteed_tenant_meets_tight_slo(self):
        net, metrics, app = build(paced=True)
        app.deadline = 5 * units.MILLIS
        app.start(interval=units.msec(3))
        net.sim.run(until=0.05)
        assert app.completed_queries()
        assert app.slo_miss_fraction() == 0.0

    def test_validation(self):
        net, metrics, app = build()
        with pytest.raises(ValueError):
            app.start(interval=0.0)
        with pytest.raises(ValueError):
            PartitionAggregateApp(net, metrics, 1, root_vm=0,
                                  worker_vms=[], rng=random.Random(0))
