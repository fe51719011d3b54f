"""PacketRun: the one packet-run assembler and its one late rule."""

import json
import random

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.faults import FaultEvent, FaultSchedule, FaultTarget
from repro.mechanisms import PacketRun, PacketTenant, get_mechanism
from repro.topology import TreeTopology

DELAY = NetworkGuarantee(bandwidth=units.mbps(250), burst=15 * units.KB,
                         delay=units.msec(1), peak_rate=units.gbps(1))
NO_DELAY = NetworkGuarantee(bandwidth=units.mbps(250), burst=15 * units.KB)


def topology():
    return TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=4,
                        slots_per_server=4, link_rate=units.gbps(1))


def tenant(guarantee=DELAY, servers=(0, 1), app=None):
    request = TenantRequest(
        n_vms=len(servers), guarantee=guarantee,
        tenant_class=(TenantClass.CLASS_A if guarantee.wants_delay
                      else TenantClass.CLASS_B))
    return PacketTenant(request, list(servers), app)


def record(run, packet_tenant, size, latency):
    """Log one message of ``packet_tenant``; ``latency`` None = unfinished."""
    entry = run.metrics.new_message(packet_tenant.request.tenant_id, 0, 1,
                                    size, 0.0)
    if latency is not None:
        entry.finish = latency


def quiet_run(*tenants):
    return PacketRun(get_mechanism("silo"), topology(), tenants)


class TestLateRule:
    def test_fraction_late_counts_incomplete(self):
        """Moved from tests/analysis/test_stats.py: one finished message
        over the bound plus one that never finished = 2 of 5."""
        t = tenant(NetworkGuarantee(bandwidth=units.mbps(250),
                                    burst=15 * units.KB, delay=0.05))
        run = quiet_run(t)
        for latency in (0.001, 0.002, 0.003, 0.1, None):
            record(run, t, 1000.0, latency)
        assert run.late(t) == pytest.approx(0.4)
        assert run.count_late([t]) == 2

    def test_unfinished_counts_as_late(self):
        t = tenant()
        run = quiet_run(t)
        record(run, t, units.KB, None)
        assert run.late(t) == 1.0

    def test_over_the_bound_is_late_and_at_it_is_not(self):
        t = tenant()
        run = quiet_run(t)
        bound = DELAY.message_latency_bound(units.KB)
        record(run, t, units.KB, bound)
        assert run.late(t) == 0.0
        record(run, t, units.KB, bound + 1e-9)
        assert run.late(t) == 0.5

    def test_each_size_is_judged_against_its_own_bound(self):
        t = tenant()
        run = quiet_run(t)
        small, large = units.KB, 100 * units.KB
        between = (DELAY.message_latency_bound(small)
                   + DELAY.message_latency_bound(large)) / 2
        record(run, t, small, between)   # late for 1 KB
        record(run, t, large, between)   # on time for 100 KB
        assert run.late(t) == 0.5

    def test_no_delay_guarantee_has_no_late_fraction(self):
        t = tenant(NO_DELAY)
        run = quiet_run(t)
        record(run, t, units.KB, None)
        assert run.late(t) is None

    def test_no_records_is_null_not_zero(self):
        """0.0 would read as "no SLO violations" for a tenant that never
        sent a message."""
        t = tenant()
        run = quiet_run(t)
        assert run.late(t) is None
        assert json.dumps({"late": run.late(t)}) == '{"late": null}'

    def test_count_late_pools_tenants(self):
        a, b = tenant(servers=(0, 1)), tenant(servers=(2, 3))
        run = quiet_run(a, b)
        record(run, a, units.KB, None)
        record(run, b, units.KB, None)
        record(run, b, units.KB, 1e-6)
        assert run.count_late([a, b]) == 2


class TestPercentile:
    def test_latency_percentile(self):
        """Moved from tests/analysis/test_stats.py (in microseconds now;
        unfinished messages do not count)."""
        t = tenant()
        run = quiet_run(t)
        for latency in (0.001, 0.002, 0.003, 0.1, None):
            record(run, t, 1000.0, latency)
        assert run.percentile_us(t, 50) == pytest.approx(2000.0)

    def test_no_finished_message_is_none(self):
        t = tenant()
        run = quiet_run(t)
        assert run.percentile_us(t, 99.0) is None
        record(run, t, units.KB, None)
        assert run.percentile_us(t, 99.0) is None


class RecordingApp:
    """An app that logs when it is built and started, and draws once
    from the shared RNG at start."""

    def __init__(self, log, rng, net, tenant_id, vm_ids):
        self.log, self.rng, self.net = log, rng, net
        self.tenant_id, self.vm_ids = tenant_id, vm_ids
        # VMs of later tenants are not attached yet.
        log.append(("build", tenant_id, tuple(vm_ids), len(net.vms)))

    def start(self):
        self.log.append(("start", self.tenant_id, self.rng.random()))


class TestAssemblyOrder:
    def test_per_tenant_attach_build_start_in_tenant_order(self):
        log, rng = [], random.Random(5)

        def app(net, metrics, tenant_id, vm_ids):
            return RecordingApp(log, rng, net, tenant_id, vm_ids)

        tenants = [tenant(servers=(0, 1, 2), app=app),
                   tenant(NO_DELAY, servers=(3, 3), app=None),
                   tenant(servers=(1, 2), app=app)]
        run = quiet_run(*tenants)
        ids = [t.request.tenant_id for t in tenants]
        draws = random.Random(5)
        assert log == [
            ("build", ids[0], (0, 1, 2), 3),
            ("start", ids[0], draws.random()),
            ("build", ids[2], (5, 6), 7),
            ("start", ids[2], draws.random()),
        ]
        assert run.apps[1] is None
        assert [vm.tenant_id for _, vm in sorted(run.net.vms.items())] == [
            ids[0]] * 3 + [ids[1]] * 2 + [ids[2]] * 2

    def test_faults_are_scheduled_after_the_apps(self):
        """An app event and a fault at the same instant: the app's fires
        first, because the injector is created after every app started."""
        when = 1e-4
        port_id = next(iter(topology().path_ports(0, 1))).port_id
        seen = []

        class Probe:
            def __init__(self, net):
                self.net = net

            def start(self):
                self.net.sim.schedule_at(
                    when, lambda: seen.append(
                        self.net.port(port_id).is_down))

        run = PacketRun(
            get_mechanism("silo"), topology(),
            [tenant(app=lambda net, metrics, tenant_id, vm_ids:
                    Probe(net))],
            faults=FaultSchedule(
                [FaultEvent.down(when, FaultTarget("link", port_id))]))
        run.run(until=2 * when)
        assert seen == [False]
        assert run.net.ports[port_id].is_down
        assert run.injector.applied == 1


class TestRun:
    def test_runs_the_mechanism_and_apps_to_the_horizon(self):
        from repro.phynet.apps import EpochBurstApp
        from repro.workloads import Fixed
        rng = random.Random(3)

        def burst(net, metrics, tenant_id, vm_ids):
            return EpochBurstApp(net, metrics, tenant_id, vm_ids,
                                 Fixed(units.KB), epoch=units.msec(1),
                                 rng=rng)

        t = tenant(servers=(0, 1, 2), app=burst)
        run = quiet_run(t)
        run.run(until=0.005)
        assert run.net.sim.now == pytest.approx(0.005)
        assert len(run.records(t)) >= 8
        assert run.late(t) == 0.0
