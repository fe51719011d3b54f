"""Built-in cell functions and named sweeps.

Every reproduced-figure grid that used to live as a private loop in a
benchmark or CLI command is defined here exactly once: a *scenario*
function that runs one cell from its parameters and seed, and a named
:func:`~repro.campaign.registry.sweep` factory building the full grid
(the benchmark suite, ``python -m repro campaign --name ...`` and CI
all fetch the same object).  Seeds are spec-level: scenario functions
never invent their own -- that is what keeps a serial benchmark run,
an 8-worker CLI campaign and a resumed crash recovery byte-identical.

Scenario result contract: JSON-serializable dicts, finite numbers
only.  Scenarios accepting ``artifact_dir`` write their obs sinks and
CSVs there when the runner provides one; each worker process owns its
cell's sink, so parallel runs never interleave trace streams.
"""

from __future__ import annotations

import math
import os
import random
from typing import Dict, List, Optional, Union

from repro import units
from repro.campaign.registry import scenario, sweep
from repro.campaign.spec import SweepSpec
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import Placement, TenantClass, TenantRequest

__all__ = [
    "POLICY_MANAGERS", "fig15_cell", "fig16_cell", "fig16_scale_cell",
    "table1_cell",
    "failure_recovery_cell", "churn_cell",
    "trace_cell", "faults_cell", "service_soak_cell",
    "whatif_error_cell", "hybrid_cell",
    "mechanism_compare_cell", "fig12_cell",
    "MECHANISM_WORKLOADS", "COMPARE_MECHANISMS",
    "write_csv", "write_recovery_csv", "write_latency_csv",
]


def _policy_manager(policy: str):
    """(manager class, sharing mode) for a placement policy name."""
    from repro.placement import (
        LocalityPlacementManager,
        OktopusPlacementManager,
        SiloPlacementManager,
    )
    managers = {
        "locality": (LocalityPlacementManager, "maxmin"),
        "oktopus": (OktopusPlacementManager, "reserved"),
        "silo": (SiloPlacementManager, "reserved"),
    }
    return managers[policy]


#: Policy names in the order the figure sweeps report them.
POLICY_MANAGERS = ("locality", "oktopus", "silo")


def _cli_topology(pods: int, racks_per_pod: int, servers_per_rack: int,
                  slots: int, link_gbps: float = 10.0,
                  oversubscription: float = 5.0, buffer_kb: float = 312.0):
    """The tree topology the CLI's topology flags describe; the
    defaults are the fabric every built-in sweep runs on (10 GbE,
    1:5 oversubscribed, 312 KB port buffers)."""
    from repro.topology import TreeTopology
    return TreeTopology(
        n_pods=pods, racks_per_pod=racks_per_pod,
        servers_per_rack=servers_per_rack, slots_per_server=slots,
        link_rate=units.gbps(link_gbps),
        oversubscription=oversubscription,
        buffer_bytes=buffer_kb * units.KB)


def _two_pod_topology(slots_per_server: int = 4):
    """The 320-slot two-pod tree every section 6.3 sweep runs on."""
    return _cli_topology(2, 4, 10, slots_per_server)


# ---------------------------------------------------------------------------
# CSV helpers shared by the artifact-writing scenarios and the CLI
# ---------------------------------------------------------------------------

def write_csv(path: str, columns, rows) -> None:
    """Dump rows of cells as CSV; ``None`` cells render empty.

    Cells are written with ``str()`` (``repr`` round-trip for floats),
    so same-seed runs produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join("" if cell is None else str(cell)
                                  for cell in row) + "\n")


_RECOVERY_COLUMNS = ("tenant_id", "n_vms", "tenant_class", "outcome",
                     "lost_at", "recovered_at", "time_to_recover",
                     "guarantee_seconds_lost")


def write_recovery_csv(path: str, report) -> None:
    """Dump a :class:`RecoveryReport` as the standard per-tenant CSV."""
    write_csv(path, _RECOVERY_COLUMNS,
              ([getattr(row, column) for column in _RECOVERY_COLUMNS]
               for row in report.rows))


def _recovery_counts(report) -> Dict[str, int]:
    """A :class:`RecoveryReport`'s tenant fates as plain counters."""
    return {"affected": report.affected,
            **{outcome: report.count(outcome)
               for outcome in ("recovered", "degraded", "evicted")}}


def write_latency_csv(path: str, metrics) -> None:
    """Dump a ``MetricsCollector``'s per-message rows as the standard
    ``latency.csv`` (what :mod:`repro.obs.traces` reads back)."""
    from repro.obs.traces import LATENCY_COLUMNS
    write_csv(path, LATENCY_COLUMNS,
              ([row[column] for column in LATENCY_COLUMNS]
               for row in metrics.latency_rows()))


# ---------------------------------------------------------------------------
# Fig. 15 -- admitted requests by policy and load
# ---------------------------------------------------------------------------

#: Arrival-rate multipliers calibrated to land the reserved policies
#: near the paper's 75% / 90% mean occupancies.
FIG15_LOAD_BOOSTS = {"moderate": 2.2, "high": 4.0}


def _section63_run(policy: str, topo, permutation_x: float, boost: float,
                   horizon: float, seed: int):
    """Run the Fig. 15/16 tenant stream under ``policy`` on ``topo``.

    The stream targets 50% occupancy times ``boost``.  Class-A delay is
    scaled so it binds placement to a rack of *this* topology, as the
    paper's 1 ms bound confined tenants to a sub-tree of its fabric.
    Returns ``(manager, stats)``.
    """
    from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
    manager_cls, sharing = _policy_manager(policy)
    manager = manager_cls(topo)
    config = WorkloadConfig(b_flow_bytes=250 * units.MB,
                            a_flow_bytes=5 * units.MB,
                            mean_compute_time=8.0,
                            a_delay=600 * units.MICROS,
                            permutation_x=permutation_x,
                            mean_vms=10, max_vms=16)
    workload = TenantWorkload.for_occupancy(config, 0.5, topo.n_slots,
                                            seed=seed)
    workload.arrival_rate *= boost
    stats = ClusterSim(manager, sharing=sharing).run(workload,
                                                     until=horizon)
    return manager, stats


@scenario("fig15_policy")
def fig15_cell(policy: str, load: str, horizon: float,
               seed: int) -> Dict[str, float]:
    """One Fig. 15 cell: a policy's admission under one offered load."""
    manager, stats = _section63_run(policy, _two_pod_topology(), 3,
                                    FIG15_LOAD_BOOSTS[load], horizon, seed)
    return {
        "total": manager.admitted_fraction(),
        "class_a": manager.admitted_fraction(TenantClass.CLASS_A),
        "class_b": manager.admitted_fraction(TenantClass.CLASS_B),
        "occupancy": stats.mean_occupancy,
    }


@sweep("fig15")
def fig15_sweep() -> SweepSpec:
    """The full Fig. 15 grid: 2 loads x 3 policies at seed 31."""
    return SweepSpec(
        name="fig15", scenario="fig15_policy",
        grid={"load": ["moderate", "high"],
              "policy": list(POLICY_MANAGERS)},
        seeds=(31,), fixed={"horizon": 150.0})


@sweep("fig15-micro")
def fig15_micro_sweep() -> SweepSpec:
    """A seconds-scale Fig. 15 grid for CI smoke and identity checks."""
    return SweepSpec(
        name="fig15-micro", scenario="fig15_policy",
        grid={"load": ["moderate", "high"],
              "policy": list(POLICY_MANAGERS)},
        seeds=(31,), fixed={"horizon": 25.0})


# ---------------------------------------------------------------------------
# Fig. 16 -- network utilization vs offered load and traffic density
# ---------------------------------------------------------------------------

@scenario("fig16_cell")
def fig16_cell(policy: str, boost: float, permutation_x: float,
               horizon: float, seed: int) -> Dict[str, float]:
    """One Fig. 16 cell: utilization at one load x density point."""
    _manager, stats = _section63_run(policy, _two_pod_topology(),
                                     permutation_x, boost, horizon, seed)
    return {"utilization": stats.network_utilization,
            "occupancy": stats.mean_occupancy}


#: Offered-load multipliers for the Fig. 16a sweep, light to heavy.
FIG16_BOOSTS = (0.8, 1.5, 2.2, 4.0)
#: Class-B traffic densities; 3.0 is the Fig. 16a operating point and
#: the rest sweep Fig. 16b.
FIG16_PERMUTATIONS = (0.5, 1.0, 2.0, 3.0, 4.0)


@sweep("fig16")
def fig16_sweep() -> SweepSpec:
    """The full load x density x policy product (both 16a and 16b live
    as slices of it: 16a fixes ``permutation_x=3.0``, 16b fixes
    ``boost=4.0``)."""
    return SweepSpec(
        name="fig16", scenario="fig16_cell",
        grid={"boost": list(FIG16_BOOSTS),
              "permutation_x": list(FIG16_PERMUTATIONS),
              "policy": list(POLICY_MANAGERS)},
        seeds=(47,), fixed={"horizon": 120.0})


@sweep("fig16-micro")
def fig16_micro_sweep() -> SweepSpec:
    """A reduced Fig. 16 grid for CI smoke and --quick benchmarks."""
    return SweepSpec(
        name="fig16-micro", scenario="fig16_cell",
        grid={"boost": [0.8, 4.0],
              "permutation_x": [0.5, 3.0],
              "policy": list(POLICY_MANAGERS)},
        seeds=(47,), fixed={"horizon": 30.0})


#: Server counts for the paper-scale sweep -> (pods, racks per pod);
#: 10 servers/rack and 4 slots/server throughout, so 32000 servers is
#: the paper's own 32K evaluation scale.
FIG16_SCALE_SHAPES = {2000: (8, 25), 8000: (16, 50), 32000: (32, 100)}


@scenario("fig16_scale_cell")
def fig16_scale_cell(policy: str, servers: int, boost: float,
                     permutation_x: float, horizon: float,
                     seed: int) -> Dict[str, float]:
    """One paper-scale Fig. 16 cell: the 16a operating point on a
    datacenter-sized tree.

    Same workload shape and load multiplier as :func:`fig16_cell`, with
    the arrival rate scaled to the larger slot pool by
    ``TenantWorkload.for_occupancy``.  Tractable at 32K servers because
    the fluid simulator's incremental max-min solver re-waterfills only
    the touched component per event (see ``repro.flowsim.sim``).
    """
    pods, racks = FIG16_SCALE_SHAPES[servers]
    manager, stats = _section63_run(
        policy, _cli_topology(pods, racks, 10, 4), permutation_x, boost,
        horizon, seed)
    durations = stats.job_durations
    return {
        "utilization": stats.network_utilization,
        "occupancy": stats.mean_occupancy,
        "admitted": manager.admitted_fraction(),
        "admitted_class_a": manager.admitted_fraction(TenantClass.CLASS_A),
        "admitted_class_b": manager.admitted_fraction(TenantClass.CLASS_B),
        "finished_jobs": stats.finished_jobs,
        "mean_job_duration": (sum(durations) / len(durations)
                              if durations else 0.0),
        "peak_concurrent_flows": stats.peak_concurrent_flows,
    }


@sweep("fig16-32k")
def fig16_32k_sweep() -> SweepSpec:
    """Fig. 16a's operating point (boost 4.0, x = 3.0) swept from 2K
    servers to the paper's 32K, all three policies."""
    return SweepSpec(
        name="fig16-32k", scenario="fig16_scale_cell",
        grid={"servers": sorted(FIG16_SCALE_SHAPES),
              "policy": list(POLICY_MANAGERS)},
        seeds=(47,),
        fixed={"boost": 4.0, "permutation_x": 3.0, "horizon": 12.0})


# ---------------------------------------------------------------------------
# Table 1 -- late messages vs bandwidth multiple x burst allowance
# ---------------------------------------------------------------------------

TABLE1_MESSAGE = 15 * units.KB
TABLE1_AVG_BANDWIDTH = units.mbps(100)
TABLE1_PEAK = units.gbps(1)
TABLE1_DELAY = units.msec(1)
#: Floating-point slack when scoring a latency (seconds scale ~1e-4)
#: against its bound: far below one ulp of the quantities compared, so
#: equality-after-rounding never counts as late.
_TABLE1_LATE_EPS = 1e-12
#: The paper's grid.
TABLE1_BANDWIDTH_MULTIPLIERS = (1.0, 1.4, 1.8, 2.2, 2.6, 3.0)
TABLE1_BURST_MULTIPLIERS = (1, 3, 5, 7, 9)


@scenario("table1_cell")
def table1_cell(bw_mult: float, burst_mult: float, n_messages: int,
                seed: int) -> Dict[str, float]:
    """One Table 1 cell: fraction of messages later than the guarantee.

    Message latency here is what the token-bucket hierarchy alone
    imposes (transmission through the shaper + the delay guarantee),
    exactly the coupling Table 1 isolates; network queueing is bounded
    separately by placement.
    """
    from repro.pacer.hierarchy import PacerConfig, VMPacer
    rng = random.Random(seed)
    bandwidth = bw_mult * TABLE1_AVG_BANDWIDTH
    burst = burst_mult * TABLE1_MESSAGE
    pacer = VMPacer(PacerConfig(bandwidth=bandwidth, burst=burst,
                                peak_rate=TABLE1_PEAK))
    # Table 1 scores messages against equation 1's guarantee at the
    # *guaranteed* bandwidth: M / B_guaranteed + d.  (The tighter burst-
    # aware bound of section 4.1 equals the uncongested latency exactly,
    # which would count any queueing as late.)
    bound = TABLE1_MESSAGE / bandwidth + TABLE1_DELAY
    mean_gap = TABLE1_MESSAGE / TABLE1_AVG_BANDWIDTH

    now = 0.0
    late = 0
    packets = (int(TABLE1_MESSAGE // units.MTU)
               + (1 if TABLE1_MESSAGE % units.MTU else 0))
    for _ in range(n_messages):
        now += rng.expovariate(1.0 / mean_gap)
        last_release = now
        remaining = TABLE1_MESSAGE
        for _ in range(packets):
            size = min(units.MTU, remaining)
            remaining -= size
            last_release = pacer.stamp("peer", size, now)
        # Latency: last byte released, serialized at Bmax, plus the
        # guaranteed in-network delay.
        latency = ((last_release - now) + units.MTU / TABLE1_PEAK
                   + TABLE1_DELAY)
        if latency > bound + _TABLE1_LATE_EPS:
            late += 1
    return {"late_fraction": late / n_messages}


@sweep("table1")
def table1_sweep() -> SweepSpec:
    """The Table 1 grid; each cell gets its own spec-derived seed."""
    return SweepSpec(
        name="table1", scenario="table1_cell",
        grid={"burst_mult": list(TABLE1_BURST_MULTIPLIERS),
              "bw_mult": list(TABLE1_BANDWIDTH_MULTIPLIERS)},
        seeds=(0,), derive_cell_seeds=True,
        fixed={"n_messages": 4000})


# ---------------------------------------------------------------------------
# Failure-recovery sweep (beyond-paper extension)
# ---------------------------------------------------------------------------

def fill_to_occupancy(manager, occupancy: float, seed: int):
    """Admit workload draws until ``occupancy`` of the slots are used.

    Tenant ids are assigned explicitly (1..n) so identical seeds give
    identical clusters regardless of interpreter history.  Returns
    ``(tenants placed, slots used)``.
    """
    from repro.flowsim import TenantWorkload, WorkloadConfig
    workload = TenantWorkload(WorkloadConfig(), arrival_rate=1.0,
                              seed=seed)
    target = occupancy * manager.topology.n_slots
    placed = used = misses = 0
    next_id = 1
    while used < target and misses < 50:
        draw, _, _ = workload._sample_request()
        request = TenantRequest(n_vms=draw.n_vms, guarantee=draw.guarantee,
                                tenant_class=draw.tenant_class,
                                tenant_id=next_id)
        next_id += 1
        if manager.place(request, now=0.0) is None:
            misses += 1
            continue
        misses = 0
        placed += 1
        used += request.n_vms
    return placed, used


def _fill_and_replay(manager, occupancy: float, seed: int, schedule,
                     horizon: float, tracer=None) -> Dict[str, object]:
    """The control-plane experiment both fault scenarios run: fill
    ``manager`` to ``occupancy``, replay ``schedule`` through a
    self-healing :class:`~repro.placement.ClusterController` and close
    the books at ``horizon``.

    Returns the ``report``, the recovery counters every cell's
    ``result`` starts from, one ``fault_rows`` timeline row per event,
    and what the fill did (``filled_tenants``, ``filled_slots``, and the
    manager's ``fill_audit`` summary when it has an audit -- taken
    before the replay, whose re-placements run through the same manager
    and would otherwise inflate the fill-phase counters).
    """
    from repro.placement import ClusterController
    placed, placed_slots = fill_to_occupancy(manager, occupancy, seed)
    fill_audit = (manager.audit.summary() if manager.audit is not None
                  else None)
    controller = ClusterController(manager, tracer=tracer,
                                   retry_evicted=True)
    fault_rows = []
    for event in schedule:
        outcomes = list(controller.apply(event, event.time).values())
        fault_rows.append((event.time, event.target.spec, event.action,
                           event.factor, len(outcomes),
                           outcomes.count("recovered"),
                           outcomes.count("degraded"),
                           outcomes.count("evicted")))
    controller.finalize(horizon)
    report = controller.report()
    return {
        "report": report,
        "result": {
            **_recovery_counts(report),
            "guarantee_seconds_lost": report.guarantee_seconds_lost},
        "fault_rows": fault_rows,
        "filled_tenants": placed,
        "filled_slots": placed_slots,
        "fill_audit": fill_audit,
    }


@scenario("failure_recovery")
def failure_recovery_cell(policy: str, mtbf_ms: float, occupancy: float,
                          mttr_s: float, horizon_s: float,
                          seed: int) -> Dict[str, object]:
    """One recovery cell: fill, replay a crash schedule, self-heal.

    Returns pooled-friendly counters plus the raw time-to-recover list
    (the sweep merge pools these over seeds with
    :func:`repro.campaign.merge.sum_counters` / ``pool_values``).
    """
    from repro.faults import FaultSchedule
    manager_cls, _sharing = _policy_manager(policy)
    topology = _two_pod_topology(slots_per_server=8)
    schedule = FaultSchedule.poisson(
        topology, mtbf=mtbf_ms * 1e-3, mttr=mttr_s,
        horizon=horizon_s, seed=seed, target_kinds=("server",))
    replay = _fill_and_replay(manager_cls(topology), occupancy, seed,
                              schedule, horizon_s)
    return {
        **replay["result"],
        "recover_times": [row.time_to_recover
                          for row in replay["report"].rows
                          if row.time_to_recover is not None],
    }


#: The deterministic sweep grid (MTBF ms, descending = rising rate).
RECOVERY_MTBF_MS = (50.0, 10.0, 2.5)
RECOVERY_SEEDS = (1, 2, 3)
RECOVERY_OCCUPANCY = 0.85
RECOVERY_MTTR_S = 0.05
RECOVERY_HORIZON_S = 0.2


@sweep("failure-recovery")
def failure_recovery_sweep() -> SweepSpec:
    """Failure-rate sweep pooled over seeds {1, 2, 3} (Silo vs Oktopus)."""
    return SweepSpec(
        name="failure-recovery", scenario="failure_recovery",
        grid={"mtbf_ms": list(RECOVERY_MTBF_MS),
              "policy": ["silo", "oktopus"]},
        seeds=RECOVERY_SEEDS,
        fixed={"occupancy": RECOVERY_OCCUPANCY,
               "mttr_s": RECOVERY_MTTR_S,
               "horizon_s": RECOVERY_HORIZON_S})


# ---------------------------------------------------------------------------
# The section 6.2 packet campaign (Figs. 12-14, Tables 3/4)
# ---------------------------------------------------------------------------

# Scaled-down stand-in for the paper's 10 racks x 40 servers x 8 VMs:
# the same shape (oversubscribed tree, shallow buffers), sized so the
# whole six-scheme campaign runs in a few minutes of wall time.

CLASS_A_GUARANTEE = NetworkGuarantee(
    bandwidth=units.gbps(0.25), burst=15 * units.KB,
    delay=units.msec(1), peak_rate=units.gbps(1))
CLASS_B_GUARANTEE = NetworkGuarantee(
    bandwidth=units.gbps(1.0), burst=1.5 * units.KB)

CLASS_A_MESSAGE = 15 * units.KB
#: Epoch chosen so the all-to-one aggregate stays within the receiver's
#: hose guarantee (5 senders x 15 KB / 3 ms = 25 MB/s < B = 31.25 MB/s):
#: the workload is guarantee-compliant, as the paper's tenants are.
CLASS_A_EPOCH = units.msec(3.0)
CAMPAIGN_DURATION = 0.08
N_CLASS_A = 3
N_CLASS_B = 2
#: Tenant size deliberately indivisible by the 4 VM slots per server, so
#: the locality baseline interleaves tenants across servers and racks --
#: which is what creates cross-tenant contention at the paper's scale.
VMS_PER_TENANT_A = 6
VMS_PER_TENANT_B = 11


def _place_campaign_tenants(policy: Optional[str], topo):
    """Admit the campaign tenants under a mechanism's placement policy.

    ``"silo"`` and ``"oktopus"`` place through their managers.  ``None``
    (the unmanaged TCP/DCTCP/HULL baselines and the host-level
    mechanisms) gets *striped* placement -- tenants interleaved across
    servers -- which recreates, at this scaled-down size, the pervasive
    port sharing that a 90%-occupied 3200-VM fabric exhibits under any
    placement (at 40 slots, strict locality packing would accidentally
    give each tenant private servers, which no real multi-tenant cloud
    provides).
    """
    manager = _policy_manager(policy)[0](topo) if policy else None

    # Interleaved arrival order (a, b, a, b, a): tenants arrive mixed in
    # a real cloud, so greedy managers end up sharing servers across
    # classes -- the situation Figs. 12-14 measure.
    requests = []
    for i in range(N_CLASS_A + N_CLASS_B):
        if i % 2 == 0 and i // 2 < N_CLASS_A:
            requests.append(("a", TenantRequest(
                n_vms=VMS_PER_TENANT_A, guarantee=CLASS_A_GUARANTEE,
                tenant_class=TenantClass.CLASS_A)))
        else:
            requests.append(("b", TenantRequest(
                n_vms=VMS_PER_TENANT_B, guarantee=CLASS_B_GUARANTEE,
                tenant_class=TenantClass.CLASS_B)))

    placements = []
    if manager is not None:
        for kind, request in requests:
            placement = manager.place(request)
            if placement is None:
                raise RuntimeError(f"campaign tenant rejected "
                                   f"under {policy}")
            placements.append((kind, request, placement))
        return placements

    # Striped placement for the unmanaged baselines.
    slot_cursor = 0
    for kind, request in requests:
        servers = []
        for _ in range(request.n_vms):
            servers.append(slot_cursor % topo.n_servers)
            slot_cursor += 1
        placements.append((kind, request,
                           Placement(request=request, vm_servers=servers)))
    return placements


def _wire_campaign_tenants(net, mech, placements, metrics, rng,
                           jitter: float, chunk: float, bulk: bool):
    """Attach the section 6.2 tenants' VMs and applications to ``net``.

    VMs are numbered in placement order and attached through ``mech``,
    whose transport every app runs; class-A tenants start an all-to-one
    epoch-burst app (each draws its phases from ``rng`` as it starts,
    in placement order), class-B tenants an all-to-all bulk app unless
    ``bulk`` is off.  Returns the class-A and class-B tenant ids.
    """
    from repro.phynet.apps import BulkApp, EpochBurstApp
    from repro.workloads import Fixed
    from repro.workloads.patterns import all_to_all_pairs
    transport_class = mech.transport_class()
    vm_counter = 0
    class_a, class_b = [], []
    for kind, request, placement in placements:
        vm_ids = mech.attach(net, request.tenant_id, placement.vm_servers,
                             request.guarantee, vm_counter)
        vm_counter += len(vm_ids)
        if kind == "a":
            class_a.append(request.tenant_id)
            EpochBurstApp(net, metrics, request.tenant_id, vm_ids,
                          Fixed(CLASS_A_MESSAGE), epoch=CLASS_A_EPOCH,
                          rng=rng, jitter=jitter,
                          transport_class=transport_class).start()
        else:
            class_b.append(request.tenant_id)
            if bulk:
                BulkApp(net, metrics, request.tenant_id,
                        all_to_all_pairs(vm_ids), chunk_size=chunk,
                        transport_class=transport_class).start()
    return class_a, class_b


#: The Fig. 12-14 message-latency pressure ladder.  Each workload keeps
#: the section 6.2 tenant mix and topology and varies only the
#: contention class-A messages face: ``fig11`` has no cross traffic at
#: all (every mechanism's easy case), ``fig12`` is the standard mixed
#: workload, ``fig13`` synchronizes the class-A bursts exactly
#: (worst-case incast, the paper's RTO pressure test), and ``fig14``
#: quadruples the bulk chunk size so best-effort queues stay saturated.
MECHANISM_WORKLOADS = {
    "fig11": {"bulk": False, "jitter": 20 * units.MICROS,
              "chunk": 256 * units.KB},
    "fig12": {"bulk": True, "jitter": 20 * units.MICROS,
              "chunk": 256 * units.KB},
    "fig13": {"bulk": True, "jitter": 0.0, "chunk": 256 * units.KB},
    "fig14": {"bulk": True, "jitter": 20 * units.MICROS,
              "chunk": units.MB},
}

#: Mechanisms the three-way campaign sweeps (``none`` is benchmarked
#: separately as the overhead baseline).
COMPARE_MECHANISMS = ("silo", "swp", "eyeq")

#: Downsampled tail-CDF resolution committed per campaign cell.
_CDF_POINTS = 33


def _latency_cdf_us(latencies: List[float]) -> List[List[float]]:
    """(latency_us, cumulative fraction) pairs, downsampled for JSON.

    Keeps at most :data:`_CDF_POINTS` evenly spaced quantiles and
    always the maximum, so the committed artifact stays small while the
    tail remains exact.
    """
    from repro.analysis.stats import cdf_points
    points = cdf_points(latencies)
    if len(points) > _CDF_POINTS:
        step = (len(points) - 1) / (_CDF_POINTS - 1)
        points = [points[round(i * step)] for i in range(_CDF_POINTS)]
    return [[value * 1e6, fraction] for value, fraction in points]


def _run_section62(mechanism: str, workload: str, duration: float,
                   seed: int):
    """The one section 6.2 run every packet campaign cell is made of.

    Builds the entire stack -- network, hypervisor pacing, transports,
    control loops -- through the named
    :class:`~repro.mechanisms.base.Mechanism`, runs the section 6.2
    tenant mix under the selected contention workload, and reports
    class-A message-latency tails against the tenants' contracted
    bound.  Placement follows the mechanism's ``placement`` policy:
    Silo places through its delay-aware admission manager, Oktopus(+)
    through the bandwidth-only one, everything else gets the striped
    placement an unmanaged cloud would.  Returns the result dict plus
    the live ``(metrics, class-A ids, class-B ids)`` for callers that
    summarize further.
    """
    from repro.analysis.stats import percentile
    from repro.mechanisms import get_mechanism
    from repro.phynet import MetricsCollector
    shape = MECHANISM_WORKLOADS[workload]
    mech = get_mechanism(mechanism)
    topo = _cli_topology(1, 2, 5, 4)
    placements = _place_campaign_tenants(mech.placement, topo)
    net = mech.build_network(topo)
    metrics = MetricsCollector()
    class_a, class_b = _wire_campaign_tenants(
        net, mech, placements, metrics, random.Random(seed), **shape)

    mech.start(net)
    net.sim.run(until=duration)

    a_records = [r for r in metrics.records if r.tenant_id in class_a]
    a_done = [r for r in a_records if r.completed]
    late = sum(1 for r in a_records
               if not r.completed
               or r.latency > CLASS_A_GUARANTEE.message_latency_bound(
                   r.size))
    latencies = [r.latency for r in a_done]
    percentiles = ({label: percentile(latencies, q) * 1e6
                    for label, q in (("p50", 50.0), ("p90", 90.0),
                                     ("p99", 99.0), ("p999", 99.9))}
                   if latencies else {})
    b_bytes = sum(r.size for r in metrics.records
                  if r.tenant_id in class_b and r.completed)
    stats = net.port_stats()
    result = {
        "mechanism": mechanism, "workload": workload, "seed": seed,
        "duration": duration,
        "bound_us": CLASS_A_GUARANTEE.message_latency_bound(
            CLASS_A_MESSAGE) * 1e6,
        "messages": len(a_records),
        "incomplete": len(a_records) - len(a_done),
        "late": late,
        "late_fraction": late / len(a_records) if a_records else None,
        "guarantee_met": bool(a_records) and late == 0,
        "latency_us": percentiles,
        "max_latency_us": max(latencies) * 1e6 if latencies else None,
        "cdf_us": _latency_cdf_us(latencies) if latencies else [],
        "class_b_goodput_mbps": b_bytes / duration / units.MB,
        "port": {"drops": stats["drops"],
                 "class_drops": stats["class_drops"],
                 "class_pushouts": stats["class_pushouts"]},
        "counters": mech.counters(net),
    }
    return result, metrics, class_a, class_b


@scenario("mechanism_compare")
def mechanism_compare_cell(mechanism: str, workload: str,
                           duration: float = CAMPAIGN_DURATION,
                           seed: int = 1234) -> Dict:
    """One (mechanism, workload) cell of the three-way tail campaign:
    :func:`_run_section62`'s result, as is."""
    return _run_section62(mechanism, workload, duration, seed)[0]


@scenario("fig12")
def fig12_cell(mechanism: str, duration: float = CAMPAIGN_DURATION,
               seed: int = 1234) -> Dict:
    """One scheme's cell of the Fig. 12-14 / Table 4 campaign.

    The ``fig12`` workload's :func:`mechanism_compare_cell` result plus
    what the per-tenant figures read.  ``class_a`` lists the class-A
    tenants in placement order with their RTO-message share (Fig. 13)
    and Table 4's 99th percentile, which ranks an unfinished message as
    slower than any finished one: when the 99th percentile *is* an
    unfinished message, ``p99_us`` and ``p99_over_estimate`` are null
    (count it as exceeding every multiple).  ``class_b`` pools the bulk
    tenants' message latencies over the hose estimate (Fig. 14).
    """
    from repro.analysis.stats import percentile
    result, metrics, class_a, class_b = _run_section62(
        mechanism, "fig12", duration, seed)
    estimate = CLASS_A_GUARANTEE.message_latency_bound(CLASS_A_MESSAGE)
    result["class_a"] = []
    for tenant in class_a:
        records = [r for r in metrics.records if r.tenant_id == tenant]
        # inf: the p99 never finished; NaN: the tenant sent nothing.
        ratio = metrics.outlier_class(tenant, estimate)
        finished = math.isfinite(ratio)
        result["class_a"].append({
            "messages": len(records),
            "incomplete": sum(1 for r in records if not r.completed),
            "rto_fraction": (metrics.rto_message_fraction(tenant)
                             if records else None),
            "p99_over_estimate": ratio if finished else None,
            "p99_us": ratio * result["bound_us"] if finished else None})
    b_estimate = (MECHANISM_WORKLOADS["fig12"]["chunk"]
                  / (CLASS_B_GUARANTEE.bandwidth / (VMS_PER_TENANT_B - 1)))
    ratios = [r.latency / b_estimate for r in metrics.records
              if r.tenant_id in class_b and r.completed]
    result["class_b"] = {
        "estimate_us": b_estimate * 1e6,
        "messages": len(ratios),
        "latency_over_estimate": (
            {label: percentile(ratios, q)
             for label, q in (("p50", 50.0), ("p95", 95.0),
                              ("p99", 99.0), ("max", 100.0))}
            if ratios else {})}
    return result


@sweep("fig12")
def fig12_sweep() -> SweepSpec:
    """The paper's six section 6.2 schemes (``none`` is the TCP
    baseline), in the order Fig. 12 and Table 4 report them."""
    return SweepSpec(
        name="fig12", scenario="fig12",
        grid={"mechanism": ["silo", "none", "dctcp", "hull", "okto",
                            "okto+"]},
        seeds=(1234,), fixed={"duration": CAMPAIGN_DURATION})


@sweep("mechanism-compare")
def mechanism_compare_sweep() -> SweepSpec:
    """The full three-way campaign: 4 workloads x 3 mechanisms."""
    return SweepSpec(
        name="mechanism-compare", scenario="mechanism_compare",
        grid={"workload": list(MECHANISM_WORKLOADS),
              "mechanism": list(COMPARE_MECHANISMS)},
        seeds=(1234,), fixed={"duration": CAMPAIGN_DURATION})


@sweep("mechanism-compare-micro")
def mechanism_compare_micro_sweep() -> SweepSpec:
    """CI smoke slice: the mixed workload only, at a quarter duration."""
    return SweepSpec(
        name="mechanism-compare-micro", scenario="mechanism_compare",
        grid={"mechanism": list(COMPARE_MECHANISMS)},
        seeds=(1234,), fixed={"workload": "fig12", "duration": 0.02})


# ---------------------------------------------------------------------------
# CLI scenarios: churn / trace / faults as campaign cells
# ---------------------------------------------------------------------------

def _audited_manager(policy: str, topo, artifact_dir: Optional[str]):
    """``policy``'s manager on ``topo`` with an admission audit attached
    and, given an ``artifact_dir``, its events traced to
    ``events.jsonl``.  Returns ``(manager, sharing, sink)``; ``sink`` is
    None when untraced."""
    from repro.placement.audit import AdmissionAudit
    manager_cls, sharing = _policy_manager(policy)
    manager = manager_cls(topo)
    manager.audit = AdmissionAudit()
    sink = None
    if artifact_dir is not None:
        from repro.obs import JsonlSink
        sink = JsonlSink(os.path.join(artifact_dir, "events.jsonl"))
        manager.tracer = sink
    return manager, sharing, sink


def _fault_schedule(faults: Optional[str], topo, horizon: float,
                    seed: int):
    """The ``--faults`` spec's schedule over ``horizon``, or None."""
    if not faults:
        return None
    from repro.faults import FaultSchedule
    return FaultSchedule.from_spec(faults, topo, horizon=horizon, seed=seed)


def _cli_guarantee(bandwidth_mbps: float, burst_kb: float,
                   delay_us: Optional[float],
                   bmax_gbps: Optional[float]) -> NetworkGuarantee:
    """The guarantee the CLI's guarantee flags describe."""
    return NetworkGuarantee(
        bandwidth=units.mbps(bandwidth_mbps), burst=burst_kb * units.KB,
        delay=delay_us * units.MICROS if delay_us is not None else None,
        peak_rate=units.gbps(bmax_gbps) if bmax_gbps is not None else None)


def _class_a_placements(topo, guarantee: NetworkGuarantee, class_a: int,
                        vms: int) -> List[Placement]:
    """Replay a traced run's class-A admissions on a fresh controller
    and return the admitted placements, in admission order."""
    from repro.core.silo import SiloController
    silo = SiloController(topo)
    placements = []
    for _ in range(class_a):
        admitted = silo.admit(TenantRequest(
            n_vms=vms, guarantee=guarantee,
            tenant_class=TenantClass.CLASS_A))
        if admitted is not None:
            placements.append(admitted.placement)
    return placements


@scenario("churn_policy")
def churn_cell(policy: str, occupancy: float, horizon: float, seed: int,
               pods: int, racks_per_pod: int, servers_per_rack: int,
               slots: int, link_gbps: float, oversubscription: float,
               buffer_kb: float, faults: Optional[str] = None,
               artifact_dir: Optional[str] = None) -> Dict[str, object]:
    """One ``repro churn`` cell: a policy's run over the tenant stream.

    With an ``artifact_dir`` the cell writes the policy's event
    JSONL, link-utilization CSV, admission-audit CSV and (under
    faults) recovery CSV; the utilization series additionally rides
    along in the result as bucket rows so the campaign merge can
    aggregate it across seeds.
    """
    from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
    topo = _cli_topology(pods, racks_per_pod, servers_per_rack, slots,
                         link_gbps, oversubscription, buffer_kb)
    manager, sharing, sink = _audited_manager(policy, topo, artifact_dir)
    audit = manager.audit
    traced = sink is not None
    workload = TenantWorkload.for_occupancy(
        WorkloadConfig(), occupancy, topo.n_slots, seed=seed)
    sim = ClusterSim(manager, sharing=sharing, tracer=sink,
                     faults=_fault_schedule(faults, topo, horizon, seed))
    if traced:
        sim.monitor_utilization(interval=horizon / 200.0)
    stats = sim.run(workload, until=horizon)
    result: Dict[str, object] = {
        "policy": policy,
        "admitted": manager.admitted_fraction(),
        "occupancy": stats.mean_occupancy,
        "utilization": stats.network_utilization,
        "jobs": stats.finished_jobs,
        "audit": audit.summary(),
    }
    if sim.controller is not None:
        sim.controller.finalize(horizon)
        report = sim.controller.report()
        result["faults"] = {
            **_recovery_counts(report),
            "killed_jobs": stats.evicted_jobs,
            "rerouted": stats.rerouted_jobs,
        }
        if traced:
            write_recovery_csv(os.path.join(artifact_dir, "recovery.csv"),
                               report)
    if traced:
        from repro.campaign.merge import bucket_rows
        sim.utilization_series.write_csv(
            os.path.join(artifact_dir, "util.csv"))
        audit.write_csv(os.path.join(artifact_dir, "admission.csv"))
        sink.close()
        result["util_series"] = bucket_rows(sim.utilization_series)
    return result


@scenario("trace_run")
def trace_cell(vms: int, bandwidth_mbps: float, burst_kb: float,
               delay_us: float, bmax_gbps: Optional[float],
               class_a: int, class_b: int, message_kb: float,
               epoch_us: float, duration_ms: float,
               queue_interval_us: float, seed: int,
               pods: int, racks_per_pod: int, servers_per_rack: int,
               slots: int, link_gbps: float, oversubscription: float,
               buffer_kb: float, faults: Optional[str] = None,
               mechanism: str = "silo",
               artifact_dir: Optional[str] = None) -> Dict[str, object]:
    """One ``repro trace`` cell: a fully traced packet-level run.

    Class-A tenants run synchronized all-to-one epoch bursts, class-B
    tenants run bulk transfers.  Admission and placement always go
    through the Silo controller (the contract being traced), but the
    data path -- port configuration, hypervisor pacing, transports, control
    loops -- is built through the named
    :class:`~repro.mechanisms.base.Mechanism`, so the same traced
    workload can run under any registered mechanism.
    With an ``artifact_dir`` the cell dumps the complete event stream
    (JSONL) plus per-message latency, per-port queue depth and
    per-request admission CSVs; without one the events go to a ring
    buffer and only their count is reported.
    """
    from repro.core.silo import SiloController
    from repro.mechanisms import get_mechanism
    from repro.obs import JsonlSink, RingBufferSink
    from repro.obs.traces import QUEUE_COLUMNS
    from repro.phynet.apps import BulkApp, EpochBurstApp
    from repro.phynet.metrics import MetricsCollector
    from repro.placement.audit import AdmissionAudit
    from repro.workloads.distributions import Fixed

    topo = _cli_topology(pods, racks_per_pod, servers_per_rack, slots,
                         link_gbps, oversubscription, buffer_kb)
    traced = artifact_dir is not None
    if traced:
        sink = JsonlSink(os.path.join(artifact_dir, "events.jsonl"))
    else:
        sink = RingBufferSink()
    mech = get_mechanism(mechanism)
    silo = SiloController(topo)
    audit = AdmissionAudit()
    silo.placement_manager.audit = audit
    silo.placement_manager.tracer = sink
    net = mech.build_network(topo, tracer=sink)
    queue_series = net.monitor_queues(
        interval=queue_interval_us * units.MICROS)
    metrics = MetricsCollector(tracer=sink)
    rng = random.Random(seed)

    next_vm = 0

    def admit_and_place(guarantee, tenant_class):
        """Admit one tenant and attach its VMs; ``(tenant id, VM ids)``,
        or None when admission rejects it."""
        nonlocal next_vm
        request = TenantRequest(n_vms=vms, guarantee=guarantee,
                                tenant_class=tenant_class)
        admitted = silo.admit(request)
        if admitted is None:
            return None
        vm_ids = mech.attach(net, admitted.tenant_id,
                             admitted.placement.vm_servers, guarantee,
                             next_vm)
        next_vm += len(vm_ids)
        return admitted.tenant_id, vm_ids

    transport_class = mech.transport_class()
    guarantee = _cli_guarantee(bandwidth_mbps, burst_kb, delay_us,
                               bmax_gbps)
    message_bytes = message_kb * units.KB
    bounds = {}
    for _ in range(class_a):
        placed = admit_and_place(guarantee, TenantClass.CLASS_A)
        if placed is None:
            continue
        tenant_id, vm_ids = placed
        bounds[tenant_id] = guarantee.message_latency_bound(message_bytes)
        EpochBurstApp(net, metrics, tenant_id, vm_ids, Fixed(message_bytes),
                      epoch=epoch_us * units.MICROS, rng=rng,
                      transport_class=transport_class).start()
    bulk_guarantee = _cli_guarantee(bandwidth_mbps, burst_kb, None,
                                    bmax_gbps)
    for _ in range(class_b):
        placed = admit_and_place(bulk_guarantee, TenantClass.CLASS_B)
        if placed is None:
            continue
        tenant_id, vm_ids = placed
        BulkApp(net, metrics, tenant_id,
                list(zip(vm_ids[0::2], vm_ids[1::2])),
                transport_class=transport_class).start()

    duration = duration_ms * 1e-3
    injector = None
    schedule = _fault_schedule(faults, topo, duration, seed)
    if schedule is not None:
        from repro.faults import NetworkFaultInjector
        injector = NetworkFaultInjector(net, schedule)
    mech.start(net)
    net.sim.run(until=duration)

    tenants = []
    for tenant_id in metrics.tenants():
        latencies = metrics.latencies(tenant_id)
        p99 = (metrics.latency_percentile(99.0, tenant_id)
               if latencies else float("nan"))
        bound = bounds.get(tenant_id)
        late = (metrics.fraction_late(bound, tenant_id)
                if bound is not None else float("nan"))
        tenants.append({"tenant_id": tenant_id,
                        "messages": len(latencies),
                        "p99_us": None if math.isnan(p99)
                        else units.to_usec(p99),
                        "late": None if math.isnan(late) else late})
    stats = net.port_stats()
    result: Dict[str, object] = {
        "mechanism": mechanism,
        "admission": audit.summary(),
        "tenants": tenants,
        "ports": {"drops": stats["drops"],
                  "pushouts": stats["pushouts"],
                  "max_queue_bytes": stats["max_queue_bytes"]},
        "mechanism_counters": mech.counters(net),
    }
    if injector is not None:
        result["faults"] = {"applied": injector.applied,
                            "fault_drops": stats["fault_drops"]}
        if traced:
            write_csv(os.path.join(artifact_dir, "faults.csv"),
                      ("time", "target", "action", "factor"),
                      ((e.time, e.target.spec, e.action, e.factor)
                       for e in injector.schedule))

    if traced:
        write_latency_csv(os.path.join(artifact_dir, "latency.csv"),
                          metrics)
        write_csv(os.path.join(artifact_dir, "queues.csv"), QUEUE_COLUMNS,
                  ((name, b.start, b.count, b.mean, b.vmin, b.vmax, b.last)
                   for name, series in queue_series.items()
                   for b in series.buckets()))
        audit.write_csv(os.path.join(artifact_dir, "admission.csv"))
        sink.close()
    else:
        result["traced_events"] = sink.emitted
    return result


@scenario("whatif_error")
def whatif_error_cell(message_kb: float, class_a: int, seed: int,
                      vms: int, bandwidth_mbps: float, burst_kb: float,
                      delay_us: float, bmax_gbps: Optional[float],
                      class_b: int, epoch_us: float, duration_ms: float,
                      queue_interval_us: float,
                      pods: int, racks_per_pod: int,
                      servers_per_rack: int, slots: int,
                      link_gbps: float, oversubscription: float,
                      buffer_kb: float,
                      artifact_dir: Optional[str] = None
                      ) -> Dict[str, object]:
    """One estimator-vs-packet-sim what-if validation cell.

    Runs the fig11-style traced scenario twice: once at a seed derived
    with ``derive_seed(seed, "whatif-cal")`` to calibrate the surrogate
    (held out -- the calibration trace never sees the target seed's
    epoch phases) and once at the cell seed as ground truth.  The
    surrogate is fit on the first trace, queried for the same
    placements, and compared against the second trace's observed
    class-A latency quantiles.  Wall-clock speedup is deliberately NOT
    part of the result (it would break byte-identical merges); the
    speed-up floor lives in ``benchmarks/bench_whatif_estimator.py``.
    """
    import contextlib
    import tempfile

    from repro.analysis.stats import percentile
    from repro.analysis.surrogate import (REPORT_QUANTILES,
                                          fit_whatif_model,
                                          quantile_label)
    from repro.campaign.spec import derive_seed
    from repro.core.tenant import reset_tenant_ids
    from repro.obs.traces import find_trace_artifacts

    params = dict(vms=vms, bandwidth_mbps=bandwidth_mbps,
                  burst_kb=burst_kb, delay_us=delay_us,
                  bmax_gbps=bmax_gbps, class_a=class_a, class_b=class_b,
                  message_kb=message_kb, epoch_us=epoch_us,
                  duration_ms=duration_ms,
                  queue_interval_us=queue_interval_us, pods=pods,
                  racks_per_pod=racks_per_pod,
                  servers_per_rack=servers_per_rack, slots=slots,
                  link_gbps=link_gbps, oversubscription=oversubscription,
                  buffer_kb=buffer_kb)
    message_bytes = message_kb * units.KB
    with contextlib.ExitStack() as stack:
        if artifact_dir is None:
            base = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="whatif-error-"))
        else:
            base = artifact_dir
        cal_dir = os.path.join(base, "calibration")
        target_dir = os.path.join(base, "target")
        os.makedirs(cal_dir, exist_ok=True)
        os.makedirs(target_dir, exist_ok=True)
        reset_tenant_ids()
        trace_cell(seed=derive_seed(seed, "whatif-cal"),
                   artifact_dir=cal_dir, **params)
        reset_tenant_ids()
        trace_cell(seed=seed, artifact_dir=target_dir, **params)

        guarantee = _cli_guarantee(bandwidth_mbps, burst_kb, delay_us,
                                   bmax_gbps)
        topo = _cli_topology(pods, racks_per_pod, servers_per_rack,
                             slots, link_gbps, oversubscription,
                             buffer_kb)
        reset_tenant_ids()
        placements = _class_a_placements(topo, guarantee, class_a, vms)
        model = fit_whatif_model(topo, placements, guarantee,
                                 message_bytes,
                                 find_trace_artifacts(cal_dir))
        estimates = [model.estimate(topo, placement, message_bytes)
                     for placement in placements]
        observed = [record.latency
                    for artifact in find_trace_artifacts(target_dir)
                    for record in artifact.latencies()
                    if record.size == message_bytes]

    sim: Dict[str, float] = {}
    est: Dict[str, float] = {}
    for q in REPORT_QUANTILES:
        label = quantile_label(q)
        sim[f"{label}_us"] = units.to_usec(percentile(observed, q))
        est[f"{label}_us"] = units.to_usec(
            sum(e.quantiles[q] for e in estimates) / len(estimates))
    return {
        "message_kb": message_kb,
        "class_a": class_a,
        "messages": len(observed),
        "sim": sim,
        "est": est,
        "rel_error_p99": abs(est["p99_us"] - sim["p99_us"])
        / sim["p99_us"],
        "bound_us": units.to_usec(estimates[0].bound),
    }


@sweep("whatif-error")
def whatif_error_sweep() -> SweepSpec:
    """The committed estimator-error grid rendered into EXPERIMENTS.md.

    Fig11-style scenarios (epoch-burst class-A tenants sharing the
    fabric with a bulk class-B tenant) across message sizes, tenant
    counts and held-out seeds; the acceptance floor is a median
    relative p99 error of at most 15% versus the packet simulator.
    """
    return SweepSpec(
        name="whatif-error", scenario="whatif_error",
        grid={"message_kb": [15.0, 25.0], "class_a": [2, 3]},
        seeds=(1, 2, 3),
        fixed=dict(vms=12, bandwidth_mbps=1000.0, burst_kb=15.0,
                   delay_us=1000.0, bmax_gbps=1.0, class_b=1,
                   epoch_us=2000.0, duration_ms=40.0,
                   queue_interval_us=100.0, pods=2, racks_per_pod=4,
                   servers_per_rack=10, slots=8, link_gbps=10.0,
                   oversubscription=5.0, buffer_kb=312.0))


@scenario("faults_campaign")
def faults_cell(policy: str, occupancy: float, faults: str,
                duration_ms: float, seed: int,
                pods: int, racks_per_pod: int, servers_per_rack: int,
                slots: int, link_gbps: float, oversubscription: float,
                buffer_kb: float,
                artifact_dir: Optional[str] = None) -> Dict[str, object]:
    """One ``repro faults`` cell: fill, break, self-heal, report.

    Fills the cluster to ``occupancy`` with the standard tenant mix,
    replays a seeded fault schedule through the recovery controller,
    and reports each tenant's fate plus SLO-violation totals.  With an
    ``artifact_dir`` the fault timeline and per-tenant report land
    in ``faults.csv`` / ``recovery.csv`` (same-seed byte-identical).
    """
    from repro.faults import FaultSchedule

    topo = _cli_topology(pods, racks_per_pod, servers_per_rack, slots,
                         link_gbps, oversubscription, buffer_kb)
    manager, _sharing, sink = _audited_manager(policy, topo, artifact_dir)
    duration = duration_ms * 1e-3
    schedule = FaultSchedule.from_spec(faults, topo, horizon=duration,
                                       seed=seed)
    replay = _fill_and_replay(manager, occupancy, seed, schedule, duration,
                              tracer=sink)
    report = replay["report"]
    if sink is not None:
        write_csv(os.path.join(artifact_dir, "faults.csv"),
                  ("time", "target", "action", "factor", "affected",
                   "recovered", "degraded", "evicted"),
                  replay["fault_rows"])
        write_recovery_csv(os.path.join(artifact_dir, "recovery.csv"),
                           report)
        sink.close()
    return {
        "policy": policy,
        "filled_tenants": replay["filled_tenants"],
        "filled_slots": replay["filled_slots"],
        "total_slots": topo.n_slots,
        "fill_audit": replay["fill_audit"],
        "n_events": len(schedule),
        **replay["result"],
        "mean_ttr_s": report.mean_time_to_recover,
    }


# ---------------------------------------------------------------------------
# The admission-service soak (chaos) campaign
# ---------------------------------------------------------------------------

@scenario("service_soak")
def service_soak_cell(arrival_rate: float, horizon: float, faults: str,
                      kill_tick: int, seed: int,
                      pods: int = 2, racks_per_pod: int = 2,
                      servers_per_rack: int = 3, slots: int = 4,
                      link_gbps: float = 10.0,
                      oversubscription: float = 5.0,
                      buffer_kb: float = 312.0,
                      queue_capacity: int = 16,
                      artifact_dir: Optional[str] = None
                      ) -> Dict[str, object]:
    """One admission-service soak cell with a mid-run simulated crash.

    Drives the service with the seeded closed-loop load generator and a
    fault schedule, abandons it without any shutdown path at
    ``kill_tick`` (the WAL flushes per record, so this is exactly what
    a ``kill -9`` leaves behind), restarts from the same data
    directory, and reports whether the recovered books are bit-identical
    (``recovery_identical``) before resuming the same event stream to
    completion.
    """
    import shutil
    import tempfile

    from repro.faults import FaultSchedule
    from repro.service import AdmissionService, ClosedLoopLoadGen

    topo = _cli_topology(pods, racks_per_pod, servers_per_rack, slots,
                         link_gbps, oversubscription, buffer_kb)
    schedule = FaultSchedule.from_spec(faults, topo, horizon=horizon,
                                       seed=seed)
    if artifact_dir is not None:
        data_dir = os.path.join(artifact_dir, "service")
        cleanup = None
    else:
        data_dir = tempfile.mkdtemp(prefix="service-soak-")
        cleanup = data_dir
    if os.path.isdir(data_dir):  # a retried cell must not inherit state
        shutil.rmtree(data_dir)

    def build_service() -> AdmissionService:
        return AdmissionService(topo, data_dir,
                                queue_capacity=queue_capacity)

    def build_loadgen(service: AdmissionService) -> ClosedLoopLoadGen:
        return ClosedLoopLoadGen(service, arrival_rate, horizon,
                                 seed=seed,
                                 fault_events=list(schedule.events))

    service = build_service()
    pre_kill: Dict[str, str] = {}

    def chaos(tick_index: int, now: float) -> bool:
        if tick_index >= kill_tick:
            pre_kill["digest"] = service.state_digest()
            return False
        return True

    build_loadgen(service).run(on_tick=chaos)
    if "digest" not in pre_kill:  # run drained before the kill tick
        pre_kill["digest"] = service.state_digest()
    # Simulated kill -9: drop the service without close()/snapshot.
    del service

    service = build_service()
    recovered_digest = service.state_digest()
    replayed = service.metrics.replayed
    summary = build_loadgen(service).run()
    service.close()
    if cleanup is not None:
        shutil.rmtree(cleanup, ignore_errors=True)
    metrics = dict(summary["metrics"])
    return {
        "recovery_identical": recovered_digest == pre_kill["digest"],
        "replayed": replayed,
        "queue_capacity": queue_capacity,
        "final_digest": summary["digest"],
        "gave_up": summary["gave_up"],
        **{key: metrics[key]
           for key in ("admitted", "rejected_admission",
                       "rejected_backpressure", "shed", "expired",
                       "departed", "faults", "max_queue_depth",
                       "max_admit_depth")},
    }


SERVICE_SOAK_FAULTS = "poisson:mtbf_ms=400,mttr_ms=250,targets=server"


@sweep("service-soak")
def service_soak_sweep() -> SweepSpec:
    """Service soak at moderate and 2x-overload arrival rates, with a
    server-fault storm and a mid-run crash/recovery identity check."""
    return SweepSpec(
        name="service-soak", scenario="service_soak",
        grid={"arrival_rate": [15.0, 40.0]},
        seeds=(1, 2),
        fixed={"horizon": 2.0, "faults": SERVICE_SOAK_FAULTS,
               "kill_tick": 23, "queue_capacity": 16})


# ---------------------------------------------------------------------------
# Hybrid fidelity: packet foreground inside a fluid background
# ---------------------------------------------------------------------------

def _hybrid_guarantee(bandwidth_mbps: float) -> NetworkGuarantee:
    """The hybrid foreground's class-A guarantee: Table 3's 15 KB burst
    and 1 ms delay, with Bmax 1 Gbps or the bandwidth if that is more."""
    bandwidth = units.mbps(bandwidth_mbps)
    return NetworkGuarantee(
        bandwidth=bandwidth, burst=15.0 * units.KB,
        delay=1000.0 * units.MICROS,
        peak_rate=max(units.gbps(1.0), bandwidth))


@scenario("hybrid_cell")
def hybrid_cell(policy: str, fg_app: str, fg_vms: int,
                fg_bandwidth_mbps: float, occupancy: float,
                horizon: float, fg_horizon_ms: float, seed: int,
                pods: int, racks_per_pod: int, servers_per_rack: int,
                slots: int, link_gbps: float, oversubscription: float,
                buffer_kb: float,
                fg_offset: Union[float, str, None] = None,
                bg_flow_mb: float = 250.0, bg_compute_s: float = 4.0,
                faults: Optional[str] = None,
                artifact_dir: Optional[str] = None) -> Dict[str, object]:
    """One ``repro hybrid`` cell: a packet-fidelity foreground tenant
    inside a fluid background cluster.

    The foreground tenant (class A, ``fg_vms`` VMs,
    :func:`_hybrid_guarantee` at the given bandwidth) is admitted at
    ``t=0`` through the policy's placement
    manager; the background churns to ``occupancy`` for ``horizon``
    fluid seconds; the packet window replays the residual-capacity
    series from ``fg_offset`` (default: mid-run; ``"peak"`` aligns with
    the recorded background-usage peak) for ``fg_horizon_ms``.
    ``bg_flow_mb`` / ``bg_compute_s`` scale the background job size
    (the section 6.3 defaults churn on a seconds timescale; a
    millisecond-scale packet window wants a churnier background to
    sample).  ``faults`` applies to the background cluster.  With an
    ``artifact_dir`` the cell writes the foreground per-message latency
    CSV.
    """
    from repro.core.tenant import reset_tenant_ids
    from repro.flowsim import TenantWorkload, WorkloadConfig
    from repro.hybrid import ForegroundTenant, HybridSim

    reset_tenant_ids()
    manager_cls, sharing = _policy_manager(policy)
    topo = _cli_topology(pods, racks_per_pod, servers_per_rack, slots,
                         link_gbps, oversubscription, buffer_kb)
    manager = manager_cls(topo)
    guarantee = _hybrid_guarantee(fg_bandwidth_mbps)
    foreground = ForegroundTenant(
        request=TenantRequest(n_vms=fg_vms, guarantee=guarantee,
                              tenant_class=TenantClass.CLASS_A),
        app=fg_app)
    config = WorkloadConfig(b_flow_bytes=bg_flow_mb * units.MB,
                            a_flow_bytes=bg_flow_mb * units.MB / 25.0,
                            mean_compute_time=bg_compute_s)
    workload = TenantWorkload.for_occupancy(config, occupancy,
                                            topo.n_slots, seed=seed)
    sim = HybridSim(manager, [foreground], sharing=sharing,
                    faults=_fault_schedule(faults, topo, horizon, seed))
    outcome = sim.run(workload, until=horizon, fg_offset=fg_offset,
                      fg_horizon=fg_horizon_ms * 1e-3, seed=seed)
    result = outcome.to_dict()
    result["policy"] = policy
    result["bg_admitted"] = manager.admitted_fraction()
    if fg_app == "burst":
        bound = guarantee.message_latency_bound(foreground.message_bytes)
        for tenant in result["foreground"]:
            late = outcome.metrics.fraction_late(bound,
                                                 tenant["tenant_id"])
            tenant["late"] = None if math.isnan(late) else late
    if artifact_dir is not None:
        write_latency_csv(os.path.join(artifact_dir, "latency.csv"),
                          outcome.metrics)
    return result


@sweep("hybrid-smoke")
def hybrid_smoke_sweep() -> SweepSpec:
    """Packet-in-fluid smoke grid for CI and the identity checks.

    Both foreground apps under one reserved-sharing (silo) and one
    maxmin-sharing (locality) background, on a deliberately small-rack
    two-pod topology (2 slots/server, 4 slots/rack) with a
    transfer-dominated background (80 MB flows, 50 ms compute): most
    background tenants must span racks, so the foreground's rack
    uplinks carry real background traffic and the residual replay has
    something to say.  Small enough for CI, but it exercises the whole
    coupling: shared admission, the usage recorder on both sharing
    paths, and the packet window's residual replay.
    """
    return SweepSpec(
        name="hybrid-smoke", scenario="hybrid_cell",
        grid={"fg_app": ["memcached", "burst"],
              "policy": ["silo", "locality"]},
        seeds=(11,),
        fixed={"fg_vms": 6, "fg_bandwidth_mbps": 100.0,
               "occupancy": 0.7, "horizon": 8.0, "fg_horizon_ms": 20.0,
               "fg_offset": "peak",
               "bg_flow_mb": 80.0, "bg_compute_s": 0.05,
               "pods": 2, "racks_per_pod": 4, "servers_per_rack": 2,
               "slots": 2, "link_gbps": 10.0, "oversubscription": 5.0,
               "buffer_kb": 312.0})
