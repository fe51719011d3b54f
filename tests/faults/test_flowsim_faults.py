"""Fault injection in the fluid cluster simulation."""

import pytest

from repro import units
from repro.faults import FaultEvent, FaultSchedule, FaultTarget
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.placement import ClusterController, SiloPlacementManager
from repro.topology import TreeTopology


def build_topology():
    return TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=4,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=2.5,
                        buffer_bytes=312 * units.KB)


def fast_config():
    """Short jobs so plenty finish inside a few simulated seconds."""
    return WorkloadConfig(mean_compute_time=0.3,
                          a_flow_bytes=1 * units.MB,
                          b_flow_bytes=5 * units.MB,
                          mean_vms=6.0, max_vms=8)


def run_sim(faults, seed=11, horizon=10.0, sharing="reserved",
            idle_controller=False):
    topo = build_topology()
    manager = SiloPlacementManager(topo)
    workload = TenantWorkload.for_occupancy(
        fast_config(), 0.6, topo.n_slots, seed=seed)
    controller = (ClusterController(manager, retry_evicted=False)
                  if idle_controller else None)
    sim = ClusterSim(manager, sharing=sharing, faults=faults,
                     controller=controller)
    stats = sim.run(workload, until=horizon)
    return sim, stats


def fingerprint(stats):
    return (stats.finished_jobs, stats.carried_bytes,
            stats.network_utilization, stats.mean_occupancy,
            stats.evicted_jobs, stats.rerouted_jobs)


class TestEmptySchedule:
    def test_empty_schedule_is_byte_identical_to_no_faults(self):
        _sim, plain = run_sim(None)
        _sim, empty = run_sim(FaultSchedule(()))
        assert fingerprint(plain) == fingerprint(empty)

    def test_idle_controller_changes_no_outcome(self):
        """An attached controller that never sees a fault only hears
        ``notify_departed``: the run is the one without it."""
        _sim, plain = run_sim(None)
        sim, armed = run_sim(None, idle_controller=True)
        assert sim.controller is not None
        assert fingerprint(armed) == fingerprint(plain)

    def test_no_controller_without_faults(self):
        sim, _stats = run_sim(None)
        assert sim.controller is None


class TestFaultRuns:
    def test_poisson_faults_complete_without_stalls(self):
        topo = build_topology()
        faults = FaultSchedule.poisson(topo, mtbf=1.0, mttr=0.5,
                                       horizon=10.0, seed=2)
        assert not faults.is_empty
        sim, stats = run_sim(faults)
        assert stats.finished_jobs > 0
        # The controller attached in no-resurrect mode.
        assert sim.controller is not None
        assert not sim.controller.retry_evicted

    def test_fault_events_reach_the_trace_stream(self):
        from repro.obs import RingBufferSink

        topo = build_topology()
        manager = SiloPlacementManager(topo)
        faults = FaultSchedule.poisson(topo, mtbf=1.0, mttr=0.5,
                                       horizon=5.0, seed=2)
        sink = RingBufferSink()
        workload = TenantWorkload.for_occupancy(
            fast_config(), 0.6, topo.n_slots, seed=11)
        sim = ClusterSim(manager, sharing="reserved", tracer=sink,
                         faults=faults)
        sim.run(workload, until=5.0)
        # Every scheduled event before the horizon is delivered exactly
        # once, in schedule order, and never before its time.
        injected = [e for e in sink.events if e.kind == "fault.inject"]
        due = [e for e in faults.events if e.time <= 5.0]
        assert len(due) >= 2
        assert [(e.target, e.action) for e in injected] \
            == [(e.target.spec, e.action) for e in due]
        assert all(seen.time >= event.time
                   for seen, event in zip(injected, due))

    def test_server_crash_kills_unplaceable_jobs(self):
        # A cluster exactly big enough for one spanning job: crashing a
        # server mid-run evicts it (no capacity to re-place).
        topo = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=1,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=2.5,
                            buffer_bytes=312 * units.KB)
        manager = SiloPlacementManager(topo)
        config = WorkloadConfig(mean_vms=8, max_vms=8, min_vms=8,
                                mean_compute_time=100.0)
        workload = TenantWorkload(config, arrival_rate=100.0, seed=1)
        faults = FaultSchedule(
            [FaultEvent.down(0.5, FaultTarget("server", 0))])
        sim = ClusterSim(manager, sharing="reserved", faults=faults)
        stats = sim.run(workload, until=2.0)
        assert stats.evicted_jobs >= 1
        assert sim.controller.health.down_servers == {0}

    def test_link_repair_restores_capacity(self):
        topo = build_topology()
        port_id = topo.tor_up(0).port_id
        faults = FaultSchedule([
            FaultEvent.down(1.0, FaultTarget("link", port_id)),
            FaultEvent.up(2.0, FaultTarget("link", port_id)),
        ])
        sim, stats = run_sim(faults, horizon=5.0)
        assert sim._link_capacity[port_id] == sim._base_capacity[port_id]
        assert not sim._down_ports
        assert stats.finished_jobs > 0

    def test_maxmin_sharing_survives_faults_too(self):
        topo = build_topology()
        faults = FaultSchedule.poisson(topo, mtbf=1.0, mttr=0.5,
                                       horizon=8.0, seed=5)
        sim, stats = run_sim(faults, sharing="maxmin", horizon=8.0)
        assert stats.finished_jobs > 0


class TestDeterminism:
    def test_same_seed_same_faults_same_outcome(self):
        topo = build_topology()
        faults = FaultSchedule.poisson(topo, mtbf=0.8, mttr=0.4,
                                       horizon=8.0, seed=3)

        def fingerprint():
            sim, stats = run_sim(faults, horizon=8.0)
            return (stats.finished_jobs, stats.carried_bytes,
                    stats.evicted_jobs, stats.rerouted_jobs,
                    stats.network_utilization)

        assert fingerprint() == fingerprint()
