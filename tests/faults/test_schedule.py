"""Seeded fault schedules: determinism, spec grammar, replay order."""

import json

import pytest

from repro import units
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    FaultTarget,
    eligible_targets,
)
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.obs import RingBufferSink
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology


def build_topology():
    return TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0,
                        buffer_bytes=312 * units.KB)


class TestEligibleTargets:
    def test_covers_every_component_once(self):
        topo = build_topology()
        targets = eligible_targets(topo, ("link", "server", "switch"))
        specs = [t.spec for t in targets]
        assert len(specs) == len(set(specs))
        assert sum(s.startswith("link:") for s in specs) == len(topo.ports)
        assert sum(s.startswith("server:") for s in specs) == topo.n_servers
        # ToRs + aggs + one logical core.
        assert sum(s.startswith("switch:") for s in specs) == \
            topo.n_racks + topo.n_pods + 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            eligible_targets(build_topology(), ("disk",))


class TestPoisson:
    def test_same_seed_is_identical_different_seed_is_not(self):
        topo = build_topology()
        make = lambda seed: FaultSchedule.poisson(
            topo, mtbf=0.005, mttr=0.002, horizon=0.2, seed=seed).events
        assert make(7) == make(7)
        assert make(7) != make(8)

    def test_no_overlapping_faults_on_one_component(self):
        topo = build_topology()
        schedule = FaultSchedule.poisson(topo, mtbf=0.001, mttr=0.05,
                                         horizon=0.5, seed=3)
        impaired = set()
        for event in schedule:
            if event.action == "up":
                impaired.discard(event.target.spec)
            else:
                assert event.target.spec not in impaired
                impaired.add(event.target.spec)

    def test_events_are_time_sorted_and_within_horizon(self):
        topo = build_topology()
        schedule = FaultSchedule.poisson(topo, mtbf=0.002, mttr=0.001,
                                         horizon=0.1, seed=1)
        times = [e.time for e in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 0.1 for t in times)

    def test_degrade_fraction_emits_partial_faults(self):
        topo = build_topology()
        schedule = FaultSchedule.poisson(topo, mtbf=0.002, mttr=0.001,
                                         horizon=0.2, seed=5,
                                         degrade_fraction=1.0)
        downs = [e for e in schedule if e.action != "up"]
        assert downs
        assert all(e.action == "degrade" and 0.1 <= e.factor <= 0.9
                   for e in downs)

    def test_bad_parameters_rejected(self):
        topo = build_topology()
        with pytest.raises(ValueError):
            FaultSchedule.poisson(topo, mtbf=0.0, mttr=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            FaultSchedule.poisson(topo, mtbf=1.0, mttr=1.0, horizon=1.0,
                                  degrade_fraction=2.0)


class TestFromSpec:
    def test_none_and_empty_mean_no_faults(self):
        topo = build_topology()
        assert FaultSchedule.from_spec("none", topo, 1.0).is_empty
        assert FaultSchedule.from_spec("", topo, 1.0).is_empty

    def test_inline_poisson_matches_direct_construction(self):
        topo = build_topology()
        via_spec = FaultSchedule.from_spec(
            "poisson:mtbf_ms=5,mttr_ms=2,targets=link,degrade=0.5",
            topo, horizon=0.2, seed=9)
        direct = FaultSchedule.poisson(topo, mtbf=0.005, mttr=0.002,
                                       horizon=0.2, seed=9,
                                       target_kinds=("link",),
                                       degrade_fraction=0.5)
        assert via_spec.events == direct.events

    def test_unknown_poisson_key_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_spec("poisson:mtbf_ms=5,typo=1",
                                    build_topology(), 1.0)

    def test_json_events_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"events": [
            {"time": 0.01, "target": "server:2", "action": "down"},
            {"time": 0.02, "target": "server:2", "action": "up"},
            {"time": 0.015, "target": "link:3", "action": "degrade",
             "factor": 0.4},
        ]}))
        schedule = FaultSchedule.from_spec(str(path), build_topology(), 1.0)
        assert [e.time for e in schedule] == [0.01, 0.015, 0.02]
        assert schedule.events[1].factor == 0.4

    def test_json_poisson_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"poisson": {"mtbf_ms": 5, "mttr_ms": 2}}))
        topo = build_topology()
        schedule = FaultSchedule.from_spec(str(path), topo, horizon=0.2,
                                           seed=4)
        assert schedule.events == FaultSchedule.poisson(
            topo, mtbf=0.005, mttr=0.002, horizon=0.2, seed=4).events

    def test_json_without_known_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"faults": []}))
        with pytest.raises(ValueError):
            FaultSchedule.from_spec(str(path), build_topology(), 1.0)


class TestFaultClock:
    """A schedule replays through ``ClusterSim``'s cursor over
    ``schedule.events``."""

    def replay(self, schedule, until):
        topo = build_topology()
        workload = TenantWorkload.for_occupancy(
            WorkloadConfig(mean_compute_time=0.3), 0.5, topo.n_slots, seed=3)
        sink = RingBufferSink()
        sim = ClusterSim(SiloPlacementManager(topo), sharing="reserved",
                         tracer=sink, faults=schedule)
        sim.run(workload, until=until)
        return [e for e in sink.events if e.kind == "fault.inject"]

    def test_pop_due_delivers_each_event_once_in_order(self):
        target = FaultTarget("link", build_topology().tor_up(0).port_id)
        schedule = FaultSchedule([
            FaultEvent.down(0.5, target),
            FaultEvent.up(1.5, target),
            FaultEvent.down(2.5, target),
        ])
        early = self.replay(schedule, until=1.6)
        assert [e.action for e in early] == ["down", "up"]
        assert [e.time for e in early] == [0.5, 1.5]
        full = self.replay(schedule, until=10.0)
        assert [e.action for e in full] == ["down", "up", "down"]
        assert [e.time for e in full] == [0.5, 1.5, 2.5]
        assert all(e.target == target.spec for e in full)
