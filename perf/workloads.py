"""The five benchmark workloads and the open-loop service driver.

Every workload is a :class:`Workload`: ``prepare(seed, quick)`` builds
whatever may be built before the clock starts and yields a zero-argument
``run`` whose single call is the timed region and whose return value is
the scenario's JSON result; ``summarize(result)`` checks that result and
reduces it to ``ops``, ``failed``, ``admitted_fraction`` and the
``per_layer`` metrics that come from the result rather than the
tracer.  Workloads receive only a seed; every input is generated from
it.

Sizes are chosen so one instance takes 3--5 s (``fluid-maxmin``: 0.7 s,
see :data:`FLUID_SHAPE`) on the 2-CPU reference container and
``instances`` of them fill :data:`REFERENCE_SECONDS`; the
runner scales that count with ``--seconds``, gives every instance its
own derived seed and reports means across them.
``quick`` shrinks every workload for the harness tests and never
produces numbers worth keeping.

Constants that mirror ``benchmarks/bench_hybrid.py`` and
``benchmarks/bench_service.py`` are copied here on purpose: nothing is
imported from ``benchmarks/``, so those files stay free to change.
"""

from __future__ import annotations

import heapq
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List

# Nearest-rank, the repo and paper convention.
from repro.analysis.stats import percentile

__all__ = ["WORKLOADS", "Workload", "BenchError", "OpenLoopDriver",
           "service_open_loop", "REFERENCE_SECONDS"]


#: The run length (``run_seconds`` of ``BENCHMARK.json``) the workloads'
#: instance counts were sized for.
REFERENCE_SECONDS = 15.0


class BenchError(Exception):
    """A workload's output failed one of its correctness checks."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`BenchError` unless ``condition`` holds."""
    if not condition:
        raise BenchError(message)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload (see the module docstring)."""

    name: str
    #: Instances that fill :data:`REFERENCE_SECONDS` on the reference
    #: container.
    instances: int
    prepare: Callable[[int, bool], ContextManager[Callable[[], dict]]]
    summarize: Callable[[dict], dict]


# ---------------------------------------------------------------------------
# packet-paced / packet-unpaced: the mechanism-compare cell
# ---------------------------------------------------------------------------

def _packet_prepare(mechanism: str, duration: float):
    @contextmanager
    def prepare(seed: int, quick: bool) -> Iterator[Callable[[], dict]]:
        from repro.campaign.scenarios import mechanism_compare_cell
        from repro.core.tenant import reset_tenant_ids

        def run() -> dict:
            reset_tenant_ids()
            return mechanism_compare_cell(
                mechanism=mechanism, workload="fig12",
                duration=0.005 if quick else duration, seed=seed)
        yield run
    return prepare


#: Class-A tenants in the cell and senders per tenant: one burst per
#: tenant may still be in flight when the horizon cuts the run.
_CLASS_A_TENANTS, _SENDERS_PER_TENANT = 3, 5


def _packet_summary(result: dict) -> dict:
    require(result["messages"] > 0, "no class-A message was issued")
    require(bool(result["latency_us"]), "no class-A message completed")
    incomplete = result["incomplete"]
    completed = result["messages"] - incomplete
    over_bound = result["late"] - incomplete
    if result["mechanism"] == "silo":
        # The paper's claim: an admitted, paced tenant never sees a late
        # message, and the fabric never drops its packets.  A burst that
        # fired within one message latency of the horizon is merely
        # unfinished; more than one such burst per tenant is a wedge.
        require(over_bound == 0 and
                result["max_latency_us"] <= result["bound_us"],
                f"{over_bound} completed messages over the bound")
        require(incomplete <= _CLASS_A_TENANTS * _SENDERS_PER_TENANT,
                f"{incomplete} messages unfinished at the horizon")
        require(result["port"]["drops"] == 0,
                f"{result['port']['drops']} drops under pacing")
    return {
        "ops": result["messages"],
        # Late messages of the unpaced baseline, which promises nothing,
        # and messages in flight at the horizon are outcomes
        # (sim.msg_late_fraction, sim.msg_incomplete), not failures.
        "failed": 0,
        # The cell raises if one of its five tenants cannot be placed.
        "admitted_fraction": 1.0,
        "per_layer": {
            "sim.msg_p50_us": result["latency_us"]["p50"],
            "sim.msg_p99_us": result["latency_us"]["p99"],
            "sim.msg_samples": completed,
            "sim.msg_incomplete": incomplete,
            "sim.msg_late_fraction": over_bound / completed,
            "sim.bulk_goodput_mbps": result["class_b_goodput_mbps"],
            "phynet.port.drops": sum(result["port"]["class_drops"]),
            "phynet.port.pushouts": sum(result["port"]["class_pushouts"]),
        },
    }


# ---------------------------------------------------------------------------
# fluid-maxmin: max-min sharing past the saturation knee
# ---------------------------------------------------------------------------

#: 2 pods x 25 racks x 10 servers: the ``fig16-32k`` rack shape at 500
#: servers.  With the 16a operating point (boost 4, x = 3) the cluster is
#: saturated for most of a 16 s horizon, so the solver re-waterfills
#: pod-coupled components on almost every event -- the regime the
#: committed campaigns pay for.  How many flows those components hold
#: depends on the seed: the wall time follows the solver's
#: flows-resolved count (ratio steady within 4 %), and that count has a
#: coefficient of variation of 0.2--0.35 across seeds at 250 to 2000
#: servers and horizons 10 to 30.  Only the number of instances averages
#: it, so the instance is small (0.7 s) and a run holds twenty.
FLUID_SHAPE = dict(n_pods=2, racks_per_pod=25, servers_per_rack=10,
                   slots_per_server=4, oversubscription=5.0)
FLUID_HORIZON = 16.0
FLUID_BOOST = 4.0


@contextmanager
def _fluid_prepare(seed: int, quick: bool) -> Iterator[Callable[[], dict]]:
    from repro import units
    from repro.core.tenant import reset_tenant_ids
    from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
    from repro.placement import LocalityPlacementManager
    from repro.topology import TreeTopology

    reset_tenant_ids()
    topo = TreeTopology(link_rate=units.gbps(10),
                        buffer_bytes=312 * units.KB, **FLUID_SHAPE)
    manager = LocalityPlacementManager(topo)
    # The section 6.3 shape the fig15/fig16 sweeps share.
    config = WorkloadConfig(
        b_flow_bytes=250 * units.MB, a_flow_bytes=5 * units.MB,
        mean_compute_time=8.0, a_delay=600 * units.MICROS,
        permutation_x=3.0, mean_vms=10, max_vms=16)
    workload = TenantWorkload.for_occupancy(config, 0.5, topo.n_slots,
                                            seed=seed)
    workload.arrival_rate *= FLUID_BOOST
    sim = ClusterSim(manager, sharing="maxmin")

    def run() -> dict:
        stats = sim.run(workload,
                        until=4.0 if quick else FLUID_HORIZON)
        return {
            "arrivals": manager.accepted + manager.rejected,
            "admitted": manager.admitted_fraction(),
            "utilization": stats.network_utilization,
            "occupancy": stats.mean_occupancy,
            "finished_jobs": stats.finished_jobs,
            "evicted_jobs": stats.evicted_jobs,
            "carried_bytes": stats.carried_bytes,
            "peak_concurrent_flows": stats.peak_concurrent_flows,
        }
    yield run


def _fluid_summary(result: dict) -> dict:
    require(result["finished_jobs"] > 0, "no job finished")
    require(result["arrivals"] > 0, "no tenant arrived")
    return {
        "ops": result["arrivals"],
        "failed": result["evicted_jobs"],
        "admitted_fraction": result["admitted"],
        "per_layer": {
            "sim.net_utilization": result["utilization"],
            "flowsim.peak_concurrent_flows":
                result["peak_concurrent_flows"],
            "flowsim.jobs_finished": result["finished_jobs"],
        },
    }


# ---------------------------------------------------------------------------
# hybrid-8k: packet foreground inside an 8000-server fluid background
# ---------------------------------------------------------------------------

#: The ``bench_hybrid`` cell: the fig16-32k 8000-server shape.
HYBRID_CELL = dict(
    policy="silo", fg_app="memcached", fg_vms=6, fg_bandwidth_mbps=100.0,
    occupancy=0.6, horizon=12.0, fg_horizon_ms=20.0, fg_offset="peak",
    pods=16, racks_per_pod=50, servers_per_rack=10, slots=4,
    link_gbps=10.0, oversubscription=5.0, buffer_kb=312.0)
HYBRID_QUICK = dict(HYBRID_CELL, pods=2, racks_per_pod=5, horizon=2.0,
                    fg_horizon_ms=5.0)


@contextmanager
def _hybrid_prepare(seed: int, quick: bool) -> Iterator[Callable[[], dict]]:
    from repro.campaign.scenarios import hybrid_cell

    def run() -> dict:
        # hybrid_cell resets the tenant-id counter itself.
        return hybrid_cell(seed=seed,
                           **(HYBRID_QUICK if quick else HYBRID_CELL))
    yield run


def _hybrid_summary(result: dict) -> dict:
    background, foreground = result["background"], result["foreground"]
    require(background["finished_jobs"] > 0, "no background job finished")
    require(result["rejected_foreground"] == 0,
            "the foreground tenant was rejected")
    require(len(foreground) == 1 and foreground[0]["messages"] > 0,
            "the packet window carried no foreground message")
    fg = foreground[0]
    return {
        "ops": background["finished_jobs"] + fg["messages"],
        "failed": (result["rejected_foreground"]
                   + background["evicted_jobs"]),
        "admitted_fraction": result["bg_admitted"],
        "per_layer": {
            "sim.msg_p50_us": fg["p50_us"],
            "sim.msg_p99_us": fg["p99_us"],
            "sim.msg_samples": fg["messages"],
            "sim.net_utilization": background["network_utilization"],
            "flowsim.peak_concurrent_flows":
                background["peak_concurrent_flows"],
            "flowsim.jobs_finished": background["finished_jobs"],
            "hybrid.residual_events": result["residual_events"],
            "hybrid.watched_ports": result["watched_ports"],
        },
    }


# ---------------------------------------------------------------------------
# service-soak: the admission service under a server-crash storm
# ---------------------------------------------------------------------------

#: The ``bench_service`` topology, service knobs and fault storm.
SERVICE_SHAPE = dict(n_pods=8, racks_per_pod=8, servers_per_rack=16,
                     slots_per_server=8, oversubscription=5.0)
SERVICE_SHAPE_QUICK = dict(n_pods=2, racks_per_pod=2, servers_per_rack=8,
                           slots_per_server=4, oversubscription=5.0)
SERVICE_KNOBS = dict(queue_capacity=256, batch_size=32,
                     snapshot_every=500)
SERVICE_STORM = "poisson:mtbf_ms=100,mttr_ms=60,targets=server"
#: Closed-loop capacity phase: arrivals per virtual second, horizon.
CAPACITY_RATE, CAPACITY_HORIZON = 300.0, 10.0
CAPACITY_RATE_QUICK, CAPACITY_HORIZON_QUICK = 40.0, 2.0
#: Open-loop phase: arrivals per *wall* second.
OPEN_LOOP_RATE, OPEN_LOOP_RATE_QUICK = 200.0, 50.0

#: The benchmark may write only inside its checkout; ``.perf_work`` is
#: listed in the root ``.gitignore`` and removed when a run ends.
WORK_DIR = Path(__file__).resolve().parents[1] / ".perf_work"


def _service_topology(quick: bool):
    from repro import units
    from repro.topology import TreeTopology
    shape = SERVICE_SHAPE_QUICK if quick else SERVICE_SHAPE
    return TreeTopology(link_rate=units.gbps(10),
                        buffer_bytes=312 * units.KB, **shape)


@contextmanager
def _service(topology, tag: str):
    """A fresh :class:`AdmissionService` on a throwaway data dir."""
    from repro.service import AdmissionService
    data_dir = WORK_DIR / f"{os.getpid()}-{tag}"
    shutil.rmtree(data_dir, ignore_errors=True)
    service = AdmissionService(topology, data_dir, **SERVICE_KNOBS)
    try:
        yield service
    finally:
        service.close()
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still has its data dir there


@contextmanager
def _service_prepare(seed: int, quick: bool
                     ) -> Iterator[Callable[[], dict]]:
    from repro.faults import FaultSchedule
    from repro.service import ClosedLoopLoadGen
    topology = _service_topology(quick)
    rate = CAPACITY_RATE_QUICK if quick else CAPACITY_RATE
    horizon = CAPACITY_HORIZON_QUICK if quick else CAPACITY_HORIZON
    schedule = FaultSchedule.from_spec(SERVICE_STORM, topology,
                                       horizon=horizon, seed=seed)
    with _service(topology, f"capacity-{seed}") as service:
        loadgen = ClosedLoopLoadGen(service, arrival_rate=rate,
                                    horizon=horizon, seed=seed,
                                    fault_events=list(schedule.events))

        def run() -> dict:
            summary = loadgen.run()
            summary["offered"] = len(loadgen.arrivals)
            summary["live_tenants"] = len(service.cluster.placements)
            summary["wal_bytes"] = os.path.getsize(service.wal.path)
            summary["snapshot_bytes"] = (
                os.path.getsize(service.snapshots.path)
                if service.snapshots.path.exists() else 0)
            return summary
        yield run


def _service_summary(result: dict) -> dict:
    metrics = result["metrics"]
    decided = metrics["admitted"] + metrics["rejected_admission"]
    require(decided > 0, "the service decided no admission")
    require(result["live_tenants"] <= metrics["admitted"],
            "more live tenants than admissions")
    return {
        "ops": result["offered"],
        # Every offered admission ends admitted, rejected by the
        # admission math, or given up after bounces/sheds/expiries.
        "failed": result["gave_up"],
        "admitted_fraction": metrics["admitted"] / decided,
        "per_layer": {
            "service.wal.bytes": result["wal_bytes"],
            "service.snapshot.bytes": result["snapshot_bytes"],
            "service.queue.max_depth": metrics["max_queue_depth"],
            "service.queue.max_admit_depth": metrics["max_admit_depth"],
            "faults.events_applied": metrics["faults"],
        },
    }


class OpenLoopDriver:
    """Open-loop load against an admission service on the wall clock.

    Requests are sent on their schedule whether or not the service has
    caught up, and each is timed from when it was **due** to its
    ``on_decision`` callback, so a stall is charged to every request it
    delayed (no coordinated omission).  A tick is issued as soon as
    anything is due or queued; otherwise the driver sleeps to the next
    due time, at most ``poll`` seconds.  Bounced, shed, expired and
    still-undecided requests are failures: refused counts as failed.

    ``service`` needs ``submit_admission``, ``submit_departure``,
    ``submit_fault``, ``tick``, ``on_decision`` and a sized ``queue``;
    ``clock``/``sleep`` are injectable so the tests can run it on a fake
    clock against a stub.
    """

    def __init__(self, service, arrivals: List[tuple],
                 fault_events: List, duration: float,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep,
                 poll: float = 0.002, drain: float = 2.0) -> None:
        self.service = service
        self.duration = duration
        self.clock, self.sleep, self.poll = clock, sleep, poll
        self.drain = drain
        #: (due, order, kind, payload) min-heap of pending submissions.
        self._pending: List[tuple] = []
        self._order = 0
        for due, request, compute in arrivals:
            self._push(due, "admit", (request, compute))
        for event in fault_events:
            self._push(event.time, "fault", event)
        self._due: Dict[int, float] = {}
        self._compute: Dict[int, float] = {}
        self._tick_start = 0.0
        self.latencies: List[float] = []     # due -> decision
        self.queue_waits: List[float] = []   # due -> deciding tick start
        self.submit_lateness: List[float] = []
        self.tick_durations: List[float] = []
        self.outcomes = {"admitted": 0, "rejected": 0, "bounced": 0,
                         "shed": 0, "expired": 0}

    def _push(self, due: float, kind: str, payload) -> None:
        heapq.heappush(self._pending, (due, self._order, kind, payload))
        self._order += 1

    def _on_decision(self, item, outcome: str, now: float) -> None:
        request = item.payload
        due = self._due.pop(getattr(request, "tenant_id", None), None)
        if due is None:
            return  # a departure, a fault, or an evicted tenant's retry
        self.outcomes[outcome] += 1
        if outcome in ("admitted", "rejected"):
            self.latencies.append(self.clock() - self._t0 - due)
            self.queue_waits.append(self._tick_start - due)
        if outcome == "admitted":
            self._push(now + self._compute[request.tenant_id], "depart",
                       request.tenant_id)

    def _submit_due(self, now: float) -> int:
        service, submitted = self.service, 0
        while self._pending and self._pending[0][0] <= now:
            due, _order, kind, payload = heapq.heappop(self._pending)
            if kind == "admit":
                request, compute = payload
                self._due[request.tenant_id] = due
                self._compute[request.tenant_id] = compute
                self.submit_lateness.append(now - due)
                status, _retry = service.submit_admission(request, now)
                if status == "rejected":
                    del self._due[request.tenant_id]
                    self.outcomes["bounced"] += 1
            elif kind == "fault":
                service.submit_fault(payload, now=now)
            else:
                service.submit_departure(payload, now)
            submitted += 1
        return submitted

    def run(self) -> dict:
        """Drive the schedule to its end, then drain; returns counts
        and the raw latency series' summary."""
        service = self.service
        service.on_decision = self._on_decision
        self._t0 = self.clock()
        offered = sum(1 for entry in self._pending if entry[2] == "admit")
        try:
            while True:
                now = self.clock() - self._t0
                if now >= self.duration + self.drain:
                    break  # whatever is still queued counts as undecided
                if self._submit_due(now) or len(service.queue):
                    self._tick_start = now
                    service.tick(now)
                    self.tick_durations.append(
                        self.clock() - self._t0 - now)
                    continue
                if now >= self.duration and not any(
                        e[2] == "admit" for e in self._pending):
                    break
                wait = self.poll
                if self._pending:
                    wait = min(wait, max(0.0, self._pending[0][0] - now))
                self.sleep(wait)
        finally:
            service.on_decision = None
        outcomes = dict(self.outcomes)
        outcomes["undecided"] = len(self._due) + sum(
            1 for e in self._pending if e[2] == "admit")
        return {"offered": offered, "outcomes": outcomes}


def service_open_loop(seed: int, duration: float, quick: bool) -> dict:
    """The ``service-soak`` latency phase: one open-loop pass.

    Poisson arrivals at :data:`OPEN_LOOP_RATE` requests per wall second
    (2 s mean holding time, so tenants also depart inside the pass)
    under the same server-crash storm as the capacity phase.
    """
    from repro.faults import FaultSchedule
    from repro.flowsim import TenantWorkload, WorkloadConfig
    topology = _service_topology(quick)
    rate = OPEN_LOOP_RATE_QUICK if quick else OPEN_LOOP_RATE
    workload = TenantWorkload(WorkloadConfig(mean_compute_time=2.0),
                              rate, seed=seed)
    arrivals = [
        (a.time, replace(a.request, tenant_id=i + 1,
                         name=f"tenant-{i + 1}"), a.compute_time)
        for i, a in enumerate(workload.arrivals(duration))]
    schedule = FaultSchedule.from_spec(SERVICE_STORM, topology,
                                       horizon=duration, seed=seed)
    with _service(topology, f"open-{seed}") as service:
        driver = OpenLoopDriver(service, arrivals, list(schedule.events),
                                duration)
        result = driver.run()
    outcomes = result["outcomes"]
    require(result["offered"] == sum(outcomes.values()),
            f"open loop lost requests: offered {result['offered']}, "
            f"accounted {outcomes}")
    require(bool(driver.latencies), "the open loop decided nothing")
    failed = (outcomes["bounced"] + outcomes["shed"]
              + outcomes["expired"] + outcomes["undecided"])
    ms = 1e3
    return {
        "offered": result["offered"],
        "failed": failed,
        "metrics": {
            "service.open_loop_p50_ms":
                percentile(driver.latencies, 50.0) * ms,
            "service.open_loop_p99_ms":
                percentile(driver.latencies, 99.0) * ms,
            "service.open_loop_max_ms": max(driver.latencies) * ms,
            "service.open_loop_samples": len(driver.latencies),
            "service.open_loop_failed_fraction":
                failed / result["offered"],
            "service.stall_s_over_50ms":
                sum(d for d in driver.tick_durations if d > 0.05),
            "service.queue_wait_p50_ms":
                percentile(driver.queue_waits, 50.0) * ms,
            "service.shed": outcomes["shed"],
            "service.expired": outcomes["expired"],
            "service.backpressure": outcomes["bounced"],
            "perf.loadgen.late_p99_ms":
                percentile(driver.submit_lateness, 99.0) * ms,
        },
    }


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("packet-paced", 4, _packet_prepare("silo", 0.02),
             _packet_summary),
    Workload("packet-unpaced", 4, _packet_prepare("none", 0.015),
             _packet_summary),
    Workload("fluid-maxmin", 20, _fluid_prepare, _fluid_summary),
    Workload("hybrid-8k", 3, _hybrid_prepare, _hybrid_summary),
    Workload("service-soak", 4, _service_prepare, _service_summary),
)}
