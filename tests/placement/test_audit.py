"""Admission audit trail: which constraint bound each decision.

Silo rejects a tenant for one of two reasons from the paper's admission
criteria -- the delay guarantee cannot be met at any scope, or the
per-port queueing constraints fail -- plus the trivial "no slots left".
The audit log must attribute every rejection to the right one.
"""

import io

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.obs import RingBufferSink
from repro.placement import SiloPlacementManager
from repro.placement.audit import (
    CONSTRAINT_CAPACITY,
    CONSTRAINT_DELAY,
    CONSTRAINT_NONE,
    CONSTRAINT_QUEUE_BOUND,
    AdmissionAudit,
)
from repro.topology import TreeTopology


def make_topo(**kwargs):
    defaults = dict(n_pods=1, racks_per_pod=2, servers_per_rack=2,
                    slots_per_server=4, link_rate=units.gbps(10),
                    oversubscription=5.0, buffer_bytes=312 * units.KB)
    defaults.update(kwargs)
    return TreeTopology(**defaults)


def request(tenant_id=0, n_vms=4, bandwidth=units.gbps(0.25),
            burst=15 * units.KB, delay=units.msec(1),
            peak=units.gbps(1)):
    return TenantRequest(
        tenant_id=tenant_id, n_vms=n_vms,
        guarantee=NetworkGuarantee(bandwidth=bandwidth, burst=burst,
                                   delay=delay, peak_rate=peak),
        tenant_class=TenantClass.CLASS_A)


def audited_manager(topo=None, tracer=None):
    audit = AdmissionAudit()
    manager = SiloPlacementManager(topo or make_topo())
    manager.audit, manager.tracer = audit, tracer
    return manager, audit


class TestConstraintAttribution:
    def test_admission_records_none_and_scope(self):
        manager, audit = audited_manager()
        assert manager.place(request(n_vms=4), now=1.5) is not None
        assert len(audit) == 1
        record = audit.records[0]
        assert record.admitted
        assert record.constraint == CONSTRAINT_NONE
        assert record.scope == "server"
        assert record.time == 1.5
        assert record.n_vms == 4
        assert record.tenant_class == "CLASS_A"

    def test_scope_capping_delay_is_a_delay_rejection(self):
        manager, audit = audited_manager()
        # Tighter than one rack's path queue capacity: the tenant may not
        # leave a single server, yet 5 VMs need more than the 4 slots a
        # server has.  Slots exist cluster-wide, so the binding
        # constraint is the delay guarantee, not capacity.
        tight = manager.topology.scope_queue_capacity("rack") / 2
        assert manager.place(request(n_vms=5, delay=tight)) is None
        assert audit.records[-1].constraint == CONSTRAINT_DELAY
        assert audit.records[-1].scope is None

    def test_full_cluster_is_a_capacity_rejection(self):
        manager, audit = audited_manager()
        # 16 slots total; 17 VMs cannot fit regardless of queueing.
        assert manager.place(request(n_vms=17)) is None
        assert audit.records[-1].constraint == CONSTRAINT_CAPACITY

    def test_port_check_failure_is_a_queue_bound_rejection(self):
        manager, audit = audited_manager()
        # 8 VMs must span >= 2 servers; the tightened hose aggregate
        # min(4, 4) * 6 Gbps = 24 Gbps swamps a 10 Gbps NIC, so slots
        # exist but no arrangement passes the port checks.
        big = request(n_vms=8, bandwidth=units.gbps(6), delay=None,
                      peak=units.gbps(10))
        assert manager.place(big) is None
        assert audit.records[-1].constraint == CONSTRAINT_QUEUE_BOUND

    def test_constraint_counts_aggregate(self):
        manager, audit = audited_manager()
        manager.place(request(tenant_id=0, n_vms=4))
        tight = manager.topology.scope_queue_capacity("rack") / 2
        manager.place(request(tenant_id=1, n_vms=5, delay=tight))
        manager.place(request(tenant_id=2, n_vms=17))
        counts = audit.constraint_counts()
        assert counts == {CONSTRAINT_NONE: 1, CONSTRAINT_DELAY: 1,
                          CONSTRAINT_CAPACITY: 1}
        assert sum(not r.admitted for r in audit.records) == 2


class TestOutputs:
    def test_summary_line(self):
        manager, audit = audited_manager()
        manager.place(request(tenant_id=0, n_vms=4))
        manager.place(request(tenant_id=1, n_vms=17))
        summary = audit.summary()
        assert "admitted=1" in summary
        assert "capacity=1" in summary

    def test_write_csv(self):
        manager, audit = audited_manager()
        manager.place(request(n_vms=4), now=0.25)
        out = io.StringIO()
        audit.write_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == ("seq,tenant_id,n_vms,tenant_class,admitted,"
                            "constraint,scope,time")
        assert lines[1].startswith("0,0,4,CLASS_A,")

    def test_tracer_emits_admission_events(self):
        sink = RingBufferSink()
        manager, audit = audited_manager(tracer=sink)
        manager.place(request(tenant_id=0, n_vms=4), now=2.0)
        manager.place(request(tenant_id=1, n_vms=17), now=3.0)
        events = sink.of_kind("admission")
        assert len(events) == len(audit.records) == 2
        assert events[0].admitted and events[0].constraint == "none"
        assert not events[1].admitted
        assert events[1].constraint == CONSTRAINT_CAPACITY
        assert events[1].time == 3.0

    def test_audit_off_by_default_costs_nothing(self):
        manager = SiloPlacementManager(make_topo())
        assert manager.audit is None and manager.tracer is None
        assert manager.place(request(n_vms=4)) is not None
