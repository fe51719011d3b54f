"""Hot-path performance harness: admission, fluid simulation, max-min.

Times the three shipped hot paths against the seed implementations kept
as test oracles under ``tests/oracles/`` at several scales, asserts the
results agree (admission decisions bit-identical; simulator stats and
max-min allocations to 1e-6 relative), and writes the measurements to
``BENCH_hotpaths.json``:

* **placement** -- a churning admission campaign over
  :class:`SiloPlacementManager` (closed-form dual-rate bounds,
  binary-search fill, O(1) domain skipping) vs
  ``seed_admission.SeedSiloPlacementManager`` (Curve-per-probe, linear
  scans, as seeded);
* **flowsim** -- :class:`ClusterSim` (heap-driven events, lazy fluids)
  vs ``seed_flowsim.ReferenceClusterSim`` (rescan every flow every event);
* **maxmin** -- :func:`max_min_fair` (water-level with link->flow
  incidence) vs ``seed_maxmin.max_min_fair_reference`` (textbook rounds).

Run::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py           # full
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick   # <60 s

The quick mode runs the same correctness assertions on smaller scales;
``tests/test_perf_smoke.py`` (marker ``perf_smoke``) reuses it from
tier-1 without any timing assertions.  The full mode also enforces the
speedup floors recorded in the JSON (>=5x placement at pod scale,
>=10x flowsim at 1k+ concurrent flows).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
for _dir in (_REPO / "src", _REPO / "tests" / "oracles"):
    if str(_dir) not in sys.path:
        sys.path.insert(0, str(_dir))

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.maxmin import IncrementalMaxMin, max_min_fair
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology

from seed_admission import SeedSiloPlacementManager
from seed_flowsim import ReferenceClusterSim
from seed_maxmin import max_min_fair_reference

#: Relative agreement demanded between optimized and reference results.
TOLERANCE = 1e-6

#: Paper-scale flowsim tiers, run fast-path only (the reference rescan
#: loop is intractable here): name -> (pods, racks/pod, arrival rate,
#: horizon).  10 servers/rack, 4 slots each, "maxmin" sharing so the
#: incremental solver carries the load.
SCALE_TIERS = {
    "8k": ("8k-servers", 16, 50, 300.0, 6.0),
    "32k": ("32k-servers", 32, 100, 1200.0, 4.0),
}

#: Committed throughput floor for the 8k tier (finished jobs per wall
#: second), asserted by ``--tier 8k`` in CI.  Deliberately conservative
#: (~5x below the measured rate on a 1-CPU container) so container noise
#: cannot trip it; the measured value lives in BENCH_hotpaths.json.
FLOOR_8K_JOBS_PER_S = 40.0


def _cpus() -> int:
    """CPUs available to this process (floors are per-container)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Path 1: placement admission campaign
# ---------------------------------------------------------------------------

def _campaign_topology(n_pods: int, racks_per_pod: int) -> TreeTopology:
    return TreeTopology(n_pods=n_pods, racks_per_pod=racks_per_pod,
                        servers_per_rack=10, slots_per_server=4,
                        link_rate=units.gbps(10), oversubscription=5.0)


def _run_campaign(manager: SiloPlacementManager, n_requests: int,
                  seed: int):
    """Drive a churning admission campaign; returns (decisions, layouts)."""
    rng = random.Random(seed)
    decisions = []
    layouts = []
    placed = []
    for _ in range(n_requests):
        n_vms = rng.randint(2, 24)
        if rng.random() < 0.4:
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([25, 50, 100])),
                burst=15e3, delay=1e-3, peak_rate=units.gbps(1))
            klass = TenantClass.CLASS_A
        else:
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([100, 200, 400])),
                burst=rng.choice([15e3, 60e3, 150e3]),
                peak_rate=units.gbps(1))
            klass = TenantClass.CLASS_B
        request = TenantRequest(n_vms=n_vms, guarantee=guarantee,
                                tenant_class=klass)
        placement = manager.place(request)
        decisions.append(placement is not None)
        if placement is not None:
            layouts.append(tuple(placement.vm_servers))
            placed.append(request.tenant_id)
        if placed and rng.random() < 0.15:
            manager.remove(placed.pop(rng.randrange(len(placed))))
    return decisions, layouts


def bench_placement(quick: bool) -> dict:
    scales = [("rack-scale", 1, 4, 150)]
    if not quick:
        scales.append(("pod-scale", 4, 8, 400))
        scales.append(("multi-pod", 8, 8, 600))
    results = []
    for name, pods, racks, n_requests in scales:
        seed = 7
        fast = SiloPlacementManager(_campaign_topology(pods, racks))
        t0 = time.perf_counter()
        fast_decisions, fast_layouts = _run_campaign(fast, n_requests, seed)
        fast_s = time.perf_counter() - t0
        ref = SeedSiloPlacementManager(_campaign_topology(pods, racks))
        t0 = time.perf_counter()
        ref_decisions, ref_layouts = _run_campaign(ref, n_requests, seed)
        ref_s = time.perf_counter() - t0
        assert fast_decisions == ref_decisions, (
            f"{name}: admission decisions diverged")
        assert fast_layouts == ref_layouts, (
            f"{name}: VM layouts diverged")
        results.append({
            "scale": name,
            "servers": pods * racks * 10,
            "requests": n_requests,
            "accepted": sum(fast_decisions),
            "cpus": _cpus(),
            "fast_s": round(fast_s, 4),
            "reference_s": round(ref_s, 4),
            "speedup": round(ref_s / fast_s, 2),
            "decisions_identical": True,
        })
    return {"scales": results}


# ---------------------------------------------------------------------------
# Path 2: fluid cluster simulation
# ---------------------------------------------------------------------------

def _run_sim(sim_cls, n_pods: int, slots: int, arrival_rate: float,
             until: float, seed: int):
    """Run one simulator; returns (stats, wall_seconds, peak_flows)."""
    topology = TreeTopology(n_pods=n_pods, racks_per_pod=8,
                            servers_per_rack=10, slots_per_server=slots,
                            link_rate=units.gbps(10), oversubscription=2.0)
    sim = sim_cls(SiloPlacementManager(topology), sharing="reserved")
    workload = TenantWorkload(WorkloadConfig(mean_compute_time=6.0),
                              arrival_rate=arrival_rate, seed=seed)
    peak = [0]
    admit = sim._admit

    def tracking_admit(arrival, now):
        admitted = admit(arrival, now)
        concurrent = sum(len(job.flows) for job in sim.jobs.values())
        if concurrent > peak[0]:
            peak[0] = concurrent
        return admitted

    sim._admit = tracking_admit
    t0 = time.perf_counter()
    stats = sim.run(workload, until)
    return stats, time.perf_counter() - t0, peak[0]


def _assert_stats_equal(scale: str, new, ref) -> None:
    assert new.finished_jobs == ref.finished_jobs, (
        f"{scale}: finished_jobs {new.finished_jobs} != "
        f"{ref.finished_jobs}")
    assert math.isclose(new.carried_bytes, ref.carried_bytes,
                        rel_tol=TOLERANCE, abs_tol=1e-3), (
        f"{scale}: carried_bytes diverged")
    assert len(new.job_durations) == len(ref.job_durations)
    for a, b in zip(new.job_durations, ref.job_durations):
        assert math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=1e-9), (
            f"{scale}: job duration {a} != {b}")


def bench_flowsim(quick: bool) -> dict:
    scales = [("small", 1, 4, 30.0, 8.0)]
    if not quick:
        scales.append(("1k-flows", 4, 8, 120.0, 12.0))
    results = []
    for name, pods, slots, rate, until in scales:
        seed = 5
        new_stats, new_s, peak = _run_sim(ClusterSim, pods, slots, rate,
                                          until, seed)
        ref_stats, ref_s, _ = _run_sim(ReferenceClusterSim, pods, slots,
                                       rate, until, seed)
        _assert_stats_equal(name, new_stats, ref_stats)
        results.append({
            "scale": name,
            "peak_concurrent_flows": peak,
            "finished_jobs": new_stats.finished_jobs,
            "cpus": _cpus(),
            "fast_s": round(new_s, 4),
            "reference_s": round(ref_s, 4),
            "speedup": round(ref_s / new_s, 2),
            "stats_identical": True,
        })
    return {"scales": results}


def _run_scale_tier(tier: str) -> dict:
    """One paper-scale flowsim tier (fast path only, no reference)."""
    name, pods, racks, rate, until = SCALE_TIERS[tier]
    topology = TreeTopology(n_pods=pods, racks_per_pod=racks,
                            servers_per_rack=10, slots_per_server=4,
                            link_rate=units.gbps(10), oversubscription=2.0)
    sim = ClusterSim(SiloPlacementManager(topology), sharing="maxmin")
    workload = TenantWorkload(WorkloadConfig(mean_compute_time=6.0),
                              arrival_rate=rate, seed=5)
    t0 = time.perf_counter()
    stats = sim.run(workload, until)
    wall = time.perf_counter() - t0
    solver = sim._mm_solver
    assert stats.finished_jobs > 0, f"{name}: no jobs finished"
    return {
        "scale": name,
        "servers": pods * racks * 10,
        "horizon_s": until,
        "arrival_rate": rate,
        "peak_concurrent_flows": stats.peak_concurrent_flows,
        "finished_jobs": stats.finished_jobs,
        "rate_updates": sim.rate_update_count,
        "solver_recomputes": solver.recompute_count,
        "solver_flows_resolved": solver.affected_flow_count,
        "cpus": _cpus(),
        "fast_s": round(wall, 4),
        "jobs_per_s": round(stats.finished_jobs / wall, 2),
    }


def bench_flowsim_scale(tiers=("8k", "32k")) -> dict:
    """The 8K/32K-server tiers proving paper-scale runs complete."""
    return {"scales": [_run_scale_tier(tier) for tier in tiers]}


# ---------------------------------------------------------------------------
# Path 3: max-min fair allocation
# ---------------------------------------------------------------------------

def _random_sharing_instance(n_links: int, n_flows: int, seed: int):
    rng = random.Random(seed)
    links = [f"l{i}" for i in range(n_links)]
    capacities = {link: rng.choice([units.gbps(1), units.gbps(10), 5e8])
                  for link in links}
    flows = {}
    for flow_id in range(n_flows):
        path = tuple(rng.sample(links, rng.randint(2, 4)))
        demand = math.inf if rng.random() < 0.6 else rng.uniform(1e6, 5e8)
        flows[flow_id] = (path, demand)
    return flows, capacities


def _worst_rel_diff(a: dict, b: dict) -> float:
    worst = 0.0
    for flow_id, rate in a.items():
        other = b[flow_id]
        denom = max(abs(rate), abs(other), 1e-12)
        worst = max(worst, abs(rate - other) / denom)
    return worst


def _clustered_sharing_instance(n_links: int, n_flows: int, seed: int,
                                group: int = 8):
    """A component-structured instance: flows pick links within one
    ``group``-sized cluster, the way locality placement keeps tenant
    traffic on a rack's handful of ports (nic + ToR).  This is the
    shape the fluid simulator actually hands the solver -- a dense
    all-links instance is one giant component and has no incremental
    structure to exploit."""
    rng = random.Random(seed)
    links = [f"l{i}" for i in range(n_links)]
    capacities = {link: rng.choice([units.gbps(1), units.gbps(10), 5e8])
                  for link in links}
    clusters = [links[i:i + group] for i in range(0, n_links, group)]
    flows = {}
    for flow_id in range(n_flows):
        cluster = clusters[rng.randrange(len(clusters))]
        path = tuple(rng.sample(cluster, rng.randint(2, min(4, len(cluster)))))
        demand = math.inf if rng.random() < 0.6 else rng.uniform(1e6, 5e8)
        flows[flow_id] = (path, demand)
    return flows, capacities


def _bench_incremental(n_links: int, n_flows: int,
                       n_ops: int, seed: int) -> dict:
    """Churn a live flow set: incremental vs full-solve-per-event.

    Each op removes one random flow and adds a fresh one, re-solving
    after every change -- exactly the arrival/finish pattern the fluid
    simulator generates, on a clustered instance with the simulator's
    component structure.  The from-scratch baseline calls
    :func:`max_min_fair` on the full set per op (what the simulator did
    before the incremental solver); both must land on the same final
    allocation, cross-checked against the textbook reference.
    """
    flows, capacities = _clustered_sharing_instance(n_links, n_flows,
                                                    seed * 17 + 3)
    rng = random.Random(seed * 31 + 1)
    links = [f"l{i}" for i in range(n_links)]
    group = 8
    clusters = [links[i:i + group] for i in range(0, n_links, group)]
    current = dict(flows)
    next_id = len(flows)
    ops = []
    for _ in range(n_ops):
        victim = rng.choice(sorted(current))
        del current[victim]
        cluster = clusters[rng.randrange(len(clusters))]
        path = tuple(rng.sample(cluster, rng.randint(2, min(4, len(cluster)))))
        demand = math.inf if rng.random() < 0.6 else rng.uniform(1e6, 5e8)
        ops.append((victim, (path, demand)))
        current[next_id] = (path, demand)
        next_id += 1

    inc = IncrementalMaxMin(capacities)
    for flow_id, (path, demand) in flows.items():
        inc.add_flow(flow_id, path, demand)
    inc.recompute()
    add_id = len(flows)
    t0 = time.perf_counter()
    for victim, spec in ops:
        inc.remove_flow(victim)
        inc.recompute()
        inc.add_flow(add_id, *spec)
        add_id += 1
        inc.recompute()
    inc_s = time.perf_counter() - t0

    scratch = dict(flows)
    add_id = len(flows)
    t0 = time.perf_counter()
    for victim, spec in ops:
        del scratch[victim]
        max_min_fair(scratch, capacities)
        scratch[add_id] = spec
        add_id += 1
        rates = max_min_fair(scratch, capacities)
    scratch_s = time.perf_counter() - t0

    final = inc.rates()
    worst_fast = _worst_rel_diff(final, rates)
    worst_ref = _worst_rel_diff(
        final, max_min_fair_reference(scratch, capacities))
    assert worst_ref <= TOLERANCE, (
        f"incremental diverged from reference ({worst_ref:g})")
    assert worst_fast <= TOLERANCE, (
        f"incremental diverged from from-scratch ({worst_fast:g})")
    return {
        "churn_ops": n_ops,
        "incremental_s": round(inc_s, 4),
        "scratch_s": round(scratch_s, 4),
        "incremental_speedup": round(scratch_s / inc_s, 2),
        "flows_resolved": inc.affected_flow_count,
        "worst_rel_diff_incremental": worst_ref,
    }


def bench_maxmin(quick: bool) -> dict:
    scales = [("500-flows", 100, 500)]
    if not quick:
        scales.append(("2k-flows", 400, 2000))
        scales.append(("5k-flows", 800, 5000))
    results = []
    for name, n_links, n_flows in scales:
        flows, capacities = _random_sharing_instance(n_links, n_flows, 11)
        t0 = time.perf_counter()
        fast_rates = max_min_fair(flows, capacities)
        fast_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_rates = max_min_fair_reference(flows, capacities)
        ref_s = time.perf_counter() - t0
        worst = _worst_rel_diff(fast_rates, ref_rates)
        assert worst <= TOLERANCE, (
            f"{name}: allocations diverged (worst rel diff {worst:g})")
        row = {
            "scale": name,
            "links": n_links,
            "flows": n_flows,
            "cpus": _cpus(),
            "fast_s": round(fast_s, 4),
            "reference_s": round(ref_s, 4),
            "speedup": round(ref_s / fast_s, 2),
            "worst_rel_diff": worst,
        }
        row.update(_bench_incremental(n_links, n_flows,
                                      n_ops=10 if quick else 30, seed=11))
        results.append(row)
    return {"scales": results}


# ---------------------------------------------------------------------------


def run(quick: bool, out: Path) -> dict:
    report = {
        "quick": quick,
        "tolerance": TOLERANCE,
        "paths": {
            "placement": bench_placement(quick),
            "flowsim": bench_flowsim(quick),
            "maxmin": bench_maxmin(quick),
        },
    }
    if not quick:
        report["paths"]["flowsim_scale"] = bench_flowsim_scale()
    header = f"{'path':14s} {'scale':12s} {'fast':>9s} {'reference':>10s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for path, data in report["paths"].items():
        for row in data["scales"]:
            ref = (f"{row['reference_s']:>9.3f}s"
                   if "reference_s" in row else f"{'-':>10s}")
            speedup = (f"{row['speedup']:>7.1f}x"
                       if "speedup" in row else f"{'-':>8s}")
            print(f"{path:14s} {row['scale']:12s} "
                  f"{row['fast_s']:>8.3f}s {ref} {speedup}")
    if not quick:
        pod = next(r for r in report["paths"]["placement"]["scales"]
                   if r["scale"] == "pod-scale")
        assert pod["speedup"] >= 5.0, (
            f"placement pod-scale speedup {pod['speedup']}x below 5x floor")
        big = next(r for r in report["paths"]["flowsim"]["scales"]
                   if r["scale"] == "1k-flows")
        assert big["peak_concurrent_flows"] >= 1000
        assert big["speedup"] >= 10.0, (
            f"flowsim speedup {big['speedup']}x below 10x floor")
        tier8k = next(r for r in report["paths"]["flowsim_scale"]["scales"]
                      if r["scale"] == "8k-servers")
        assert tier8k["jobs_per_s"] >= FLOOR_8K_JOBS_PER_S, (
            f"8k tier {tier8k['jobs_per_s']} jobs/s below "
            f"{FLOOR_8K_JOBS_PER_S} floor")
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
    return report


def run_tier(tier: str, out: Path) -> dict:
    """Run one paper-scale tier standalone (the CI perf-smoke entry)."""
    row = _run_scale_tier(tier)
    print(json.dumps(row, indent=2))
    if tier == "8k":
        assert row["jobs_per_s"] >= FLOOR_8K_JOBS_PER_S, (
            f"8k tier {row['jobs_per_s']} jobs/s below "
            f"{FLOOR_8K_JOBS_PER_S} floor")
    if out is not None:
        out.write_text(json.dumps(row, indent=2) + "\n")
        print(f"wrote {out}")
    return row


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scales only; finishes well under 60 s")
    parser.add_argument("--tier", choices=sorted(SCALE_TIERS), default=None,
                        help="run a single paper-scale flowsim tier and "
                             "exit (used by CI; asserts the committed "
                             "throughput floor for the 8k tier)")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON report path (default: the committed "
                             "BENCH_hotpaths.json, full mode only -- a "
                             "quick run never overwrites the baseline)")
    args = parser.parse_args(argv)
    if args.tier is not None:
        run_tier(args.tier, args.out)
        return
    out = args.out
    if out is None and not args.quick:
        out = _REPO / "BENCH_hotpaths.json"
    run(args.quick, out)


if __name__ == "__main__":
    main()
