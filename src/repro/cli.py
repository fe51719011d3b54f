"""Command-line entry points: ``python -m repro <command>``.

A thin operational layer over the library for users who want to poke at
the system without writing code:

* ``admit``      -- run admission control for one tenant spec and print
                    the placement and latency bound;
* ``bounds``     -- print the message-latency bound table for a guarantee;
* ``pace``       -- show the void-packet wire schedule for a rate limit
                    and check it against the rate's arrival curve;
* ``churn``      -- run the flow-level cluster simulation and print
                    admission/utilization for the three policies;
* ``hybrid``     -- run one packet-level foreground tenant inside a
                    fluid background cluster (see ``docs/HYBRID.md``);
* ``trace``      -- run a packet-level experiment (class-A epoch bursts
                    sharing the fabric with class-B bulk tenants) with
                    full event tracing, and dump figure-ready JSONL/CSV;
* ``whatif``     -- score a proposed class-A placement with the
                    calibrated per-hop surrogate: estimated
                    p50/p95/p99/p999 message latency in milliseconds of
                    compute instead of minutes of packet simulation;
* ``faults``     -- fill the cluster to an occupancy, replay a seeded
                    fault schedule through the recovery controller, and
                    dump the fault timeline and per-tenant SLO-violation
                    report as CSVs;
* ``campaign``   -- run a registered or file-defined sweep across worker
                    processes with checkpoint/resume (see
                    ``docs/CAMPAIGNS.md``);
* ``serve``      -- run the long-running admission-control service
                    against a seeded closed-loop load generator, with
                    write-ahead logging, crash/restart identity checks
                    and optional fault injection (see
                    ``docs/SERVICE.md``);
* ``report``     -- regenerate EXPERIMENTS.md's measured tables from
                    committed campaign outputs (``--check`` for CI).

Error contract: a malformed ``--faults`` spec, campaign ``--spec``
file or infeasible guarantee (``--bmax-gbps`` below ``--bandwidth-mbps``)
exits with code 2 and a one-line ``error:`` diagnostic naming the
bad field on stderr -- never a traceback.  A campaign cell that outruns
``--cell-timeout`` fails that cell (and the campaign exits 1 listing
it) instead of hanging the run.

``churn``, ``hybrid``, ``trace`` and ``faults`` are *sweep-backed*:
each is a (policy x) seed grid that always runs through the campaign
runner (:func:`_run_sweep`), in memory by default.  ``--seeds A B``
widens the grid, ``--workers N`` / ``--cell-timeout`` apply with or
without ``--out <dir>``, and ``--out`` adds the on-disk layout:
checkpoints under ``<dir>/cells/`` (``--resume``), each cell's event
JSONL and CSVs under ``<dir>/artifacts/<cell>/``, and
``<dir>/manifest.json`` mapping cells to artifacts -- without changing
a byte of stdout before the ``wrote ...`` trailer.  They accept
``--faults <spec>`` to inject failures mid-run (see
:meth:`repro.faults.FaultSchedule.from_spec` for the grammar); same-seed
runs produce byte-identical CSV output.  ``pace`` and ``serve`` take
``--trace-out PATH`` for a single JSONL event stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import units
from repro.campaign import (SweepSpec, get_scenario, get_sweep, list_sweeps,
                            merge_bucket_rows, run_campaign, sum_counters)
from repro.campaign.registry import import_scenario_modules
from repro.campaign.scenarios import (POLICY_MANAGERS, _class_a_placements,
                                      _cli_guarantee, _cli_topology,
                                      _hybrid_guarantee, write_csv)
from repro.core.guarantees import NetworkGuarantee
from repro.core.silo import SiloController
from repro.core.tenant import TenantClass, TenantRequest

#: The topology flags and their defaults, keyed by ``dest`` name = the
#: scenarios' topology parameter name = :func:`_cli_topology`'s argument.
_TOPOLOGY_FLAGS = {"pods": 2, "racks_per_pod": 4, "servers_per_rack": 10,
                   "slots": 8, "link_gbps": 10.0, "oversubscription": 5.0,
                   "buffer_kb": 312.0}


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    for name, default in _TOPOLOGY_FLAGS.items():
        parser.add_argument("--" + name.replace("_", "-"),
                            type=type(default), default=default)


def _add_guarantee_args(parser: argparse.ArgumentParser,
                        bandwidth_mbps: float) -> None:
    """The hose-guarantee flags :func:`_guarantee` reads."""
    parser.add_argument("--bandwidth-mbps", type=float,
                        default=bandwidth_mbps)
    parser.add_argument("--burst-kb", type=float, default=15.0)
    parser.add_argument("--delay-us", type=float, default=1000.0)
    parser.add_argument("--bmax-gbps", type=float, default=1.0)


def _add_faults_arg(parser: argparse.ArgumentParser,
                    default: Optional[str] = None) -> None:
    """The one ``--faults SPEC`` declaration every command shares."""
    parser.add_argument("--faults", metavar="SPEC", default=default,
                        help="inject failures mid-run: 'poisson:mtbf_ms=..,"
                             "mttr_ms=..[,targets=link+server]"
                             "[,degrade=..]' or a JSON scenario file "
                             "('none' disables; default: %(default)s)")


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """The campaign-runner flags of ``campaign`` and of every
    sweep-backed command."""
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="campaign directory: checkpoints under "
                             "DIR/cells/, per-cell artifacts under "
                             "DIR/artifacts/, plus DIR/manifest.json "
                             "(and merged.json for 'campaign')")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial in-process)")
    parser.add_argument("--resume", action="store_true",
                        help="with --out: skip cells already "
                             "checkpointed")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="fail any cell that outruns this "
                             "wall-clock budget instead of hanging "
                             "the campaign")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """The seed axis plus the campaign-runner flags of a sweep-backed
    command (``churn``/``hybrid``/``trace``/``faults``)."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="+", metavar="SEED",
                        default=None,
                        help="sweep several seeds (overrides --seed)")
    _add_campaign_args(parser)


def _topology_params(params: dict) -> dict:
    """The topology entries of ``vars(args)`` (or of a manifest cell's
    parameters) as scenario keyword arguments."""
    return {name: params[name] for name in _TOPOLOGY_FLAGS}


def _topology(args: argparse.Namespace):
    return _cli_topology(**_topology_params(vars(args)))


def _guarantee(args: argparse.Namespace) -> NetworkGuarantee:
    return _cli_guarantee(args.bandwidth_mbps, args.burst_kb,
                          args.delay_us, args.bmax_gbps)


def _fmt_ratio(value: Optional[float]) -> str:
    """Render a fraction for humans; NaN/None (no data) is "n/a", not 0%."""
    if value is None or math.isnan(value):
        return "n/a"
    return f"{value:.2%}"


def _fmt_usec(value: Optional[float]) -> str:
    """Render a microseconds value; NaN/None (no data) is "n/a"."""
    if value is None or math.isnan(value):
        return "n/a"
    return f"{value:.1f}us"


def _progress(message: str) -> None:
    """Campaign progress lines go to stderr, keeping stdout scriptable."""
    print(message, file=sys.stderr)


def _spec_error(flag: str, spec, exc: Exception) -> int:
    """One-line exit-2 diagnostic for a malformed spec (no traceback)."""
    reason = (f"missing key {exc}" if isinstance(exc, KeyError)
              else str(exc))
    print(f"error: bad {flag} {spec!r}: {reason}", file=sys.stderr)
    return 2


def _check_faults_spec(args) -> Optional[int]:
    """Eagerly validate ``--faults`` so a malformed spec is a clean
    exit 2 here, not a traceback from inside a scenario or worker.
    Returns the exit code on error, None when the spec is fine.

    Validation runs the real parser at horizon 0: every field of the
    spec (inline keys, JSON event entries, target names) is checked
    without generating the event stream twice.
    """
    if not getattr(args, "faults", None):
        return None
    from repro.faults import FaultSchedule
    try:
        FaultSchedule.from_spec(args.faults, _topology(args),
                                horizon=0.0, seed=args.seed)
    except (KeyError, OSError, ValueError) as exc:
        return _spec_error("--faults", args.faults, exc)
    return None


def _check_guarantee(args) -> Optional[int]:
    """Build the guarantee the flags describe once, up front, so an
    infeasible one (``Bmax`` below the bandwidth, a negative burst) is
    a clean exit 2 here, not a traceback from inside a command or a
    failed campaign cell.  Returns the exit code on error, None when
    the guarantee is fine or the command takes none."""
    if not hasattr(args, "bandwidth_mbps"):
        return None
    try:
        if args.command == "hybrid":
            _hybrid_guarantee(args.bandwidth_mbps)
        else:
            _guarantee(args)
    except ValueError as exc:
        flags = ("bandwidth_mbps", "burst_kb", "delay_us", "bmax_gbps")
        return _spec_error("guarantee", " ".join(
            f"--{name.replace('_', '-')} {getattr(args, name):g}"
            for name in flags if getattr(args, name, None) is not None),
            exc)
    return None


def _run_spec(args: argparse.Namespace, spec: SweepSpec,
              max_cells: Optional[int] = None):
    """Run ``spec`` under the campaign flags (in memory without
    ``--out``); failed cells are listed on stderr and leave
    ``result.failed`` non-empty for the caller's exit 1."""
    result = run_campaign(spec, out=args.out, workers=args.workers,
                          resume=args.resume, max_cells=max_cells,
                          progress=_progress,
                          cell_timeout=args.cell_timeout)
    for record in result.failed:
        print(f"cell FAILED: {record.cell.describe()}: {record.error}",
              file=sys.stderr)
    if result.failed:
        print(f"error: {len(result.failed)} cell(s) failed; no merged "
              f"outputs written (rerun with --resume to retry them)",
              file=sys.stderr)
    return result


def _run_sweep(args: argparse.Namespace, name: str, scenario: str,
               grid: dict, params: dict, print_cell, wrote: str,
               finish=None) -> int:
    """The one way ``churn``, ``hybrid``, ``trace`` and ``faults`` run.

    The (``grid`` x seeds) cells of ``scenario``, with ``params`` and
    the topology flags fixed, go through the campaign runner -- in
    memory without ``--out``.  Each result is printed in commit order
    by ``print_cell(result, seed)`` (``seed`` is None on a single-seed
    run), ``finish(result)`` does the command's cross-cell reductions,
    and with ``--out`` the trailer says what was ``wrote``.
    """
    bad_spec = _check_faults_spec(args)
    if bad_spec is not None:
        return bad_spec
    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    result = _run_spec(args, SweepSpec(
        name=name, scenario=scenario, grid=grid, seeds=seeds,
        fixed={**params, **_topology_params(vars(args))}))
    if result.failed:
        return 1
    for record in result.records:
        print_cell(record.result,
                   record.cell.seed if len(seeds) > 1 else None)
    if finish is not None:
        finish(result)
    if args.out:
        print(f"wrote {args.out}/manifest.json ({wrote})")
    return 0


def cmd_admit(args: argparse.Namespace) -> int:
    """Admission-control one tenant spec and print its placement."""
    silo = SiloController(_topology(args))
    request = TenantRequest(
        n_vms=args.vms, guarantee=_guarantee(args),
        tenant_class=(TenantClass.CLASS_A if args.delay_us is not None
                      else TenantClass.CLASS_B))
    admitted = silo.admit(request)
    if admitted is None:
        print("REJECTED: the guarantees cannot be met on this topology")
        return 1
    counts = admitted.placement.vms_per_server()
    print(f"ADMITTED {request.n_vms} VMs across "
          f"{len(counts)} servers: "
          + ", ".join(f"server {s}: {c} VM(s)"
                      for s, c in sorted(counts.items())))
    if request.wants_delay:
        for size_kb in (1, 15, 100, 1000):
            bound = silo.message_latency_bound(request.tenant_id,
                                               size_kb * units.KB)
            print(f"  {size_kb:5d} KB message latency bound: "
                  f"{units.to_msec(bound):8.3f} ms")
    print(f"  worst switch queue bound now: "
          f"{units.to_usec(silo.worst_queue_bound()):.1f} us")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print the message-latency bound table for a guarantee."""
    guarantee = _guarantee(args)
    if not guarantee.wants_delay:
        print("bounds need a --delay-us guarantee", file=sys.stderr)
        return 2
    print(f"{'message':>10}  {'bound':>12}")
    for size_kb in (0.1, 1, 4, 15, 50, 100, 500, 1000, 10000):
        bound = guarantee.message_latency_bound(size_kb * units.KB)
        print(f"{size_kb:8.1f}KB  {units.to_msec(bound):10.3f}ms")
    return 0


def cmd_pace(args: argparse.Namespace) -> int:
    """Show the void-packet wire schedule for one rate limit, and check
    the stamps against the ``{rate, 1 MTU}`` arrival curve admission
    assumed (exit 1 on a violation)."""
    from repro.netcalc.arrival import token_bucket
    from repro.netcalc.trace import check_conformance
    from repro.pacer import PacerConfig, VMPacer, VoidScheduler
    link = units.gbps(args.link_gbps)
    rate = units.gbps(args.rate_gbps)
    sink = None
    if args.trace_out:
        from repro.obs import JsonlSink
        sink = JsonlSink(args.trace_out)
    pacer = VMPacer(PacerConfig(bandwidth=rate, burst=units.MTU,
                                peak_rate=rate), tracer=sink)
    stamped = [(pacer.stamp("d", units.MTU, 0.0), units.MTU)
               for _ in range(args.packets)]
    schedule = VoidScheduler(link, tracer=sink).schedule(stamped)
    data_rate, void_rate = schedule.rates()
    print(f"rate limit {args.rate_gbps:g} Gbps on {args.link_gbps:g} GbE: "
          f"{len(schedule.data_slots)} data + "
          f"{len(schedule.void_slots)} void frames")
    print(f"wire: data {units.to_gbps(data_rate):.2f} Gbps + "
          f"void {units.to_gbps(void_rate):.2f} Gbps")
    print(f"worst pacing error: {schedule.max_pacing_error() * 1e9:.1f} ns")
    violation = check_conformance(stamped, token_bucket(rate, units.MTU))
    if violation is None:
        print(f"conformance: {len(stamped)} stamps obey the "
              f"{{{args.rate_gbps:g} Gbps, 1 MTU}} arrival curve")
    else:
        print(f"conformance: VIOLATED over [{violation.start * 1e6:.3f}, "
              f"{violation.end * 1e6:.3f}] us: {violation.sent:.0f} bytes "
              f"sent, {violation.allowed:.0f} allowed")
    if sink is not None:
        sink.close()
        print(f"wrote {args.trace_out}")
    return 0 if violation is None else 1


def _print_churn_result(result: dict, seed: Optional[int]) -> None:
    """One policy's churn summary (tagged with its seed on a multi-seed
    run)."""
    name = result["policy"]
    tag = f"{name:10s} " if seed is None else f"{name:10s} seed={seed} "
    print(f"{tag}admitted={result['admitted']:6.1%} "
          f"occupancy={result['occupancy']:5.1%} "
          f"utilization={result['utilization']:6.2%} "
          f"jobs={result['jobs']} [{result['audit']}]")
    faults = result.get("faults")
    if faults is not None:
        print(f"{'':10s} faults: affected={faults['affected']} "
              f"recovered={faults['recovered']} "
              f"degraded={faults['degraded']} "
              f"evicted={faults['evicted']} "
              f"killed_jobs={faults['killed_jobs']} "
              f"rerouted={faults['rerouted']}")


def _merge_churn_cells(result) -> None:
    """Churn's cross-seed reductions, per policy: the traced (``--out``)
    cells' utilization series merged count-weighted into
    ``merged.util.<policy>.csv``, and on a multi-seed run the pooled job
    counters on stdout."""
    n_seeds = len(result.spec.seeds)
    for name in POLICY_MANAGERS:
        cells = [r.result for r in result.records
                 if dict(r.cell.params)["policy"] == name]
        series_parts = [c["util_series"] for c in cells
                        if c.get("util_series")]
        if series_parts:
            merged = merge_bucket_rows(series_parts)
            write_csv(result.out / f"merged.util.{name}.csv",
                      ("time", "count", "mean", "min", "max", "last"),
                      ((b["start"], b["count"], b["mean"], b["min"],
                        b["max"], b["last"]) for b in merged))
        if n_seeds > 1:
            pooled = sum_counters([{"jobs": c["jobs"],
                                    "admitted": c["admitted"]}
                                   for c in cells])
            print(f"{name:10s} pooled over {n_seeds} seeds: "
                  f"jobs={pooled['jobs']} "
                  f"mean_admitted={pooled['admitted'] / len(cells):6.1%}")


def cmd_churn(args: argparse.Namespace) -> int:
    """Flow-level churn for the three policies.

    The (policy x seed) grid runs as a campaign; with ``--out DIR``
    each cell's event JSONL, utilization, admission-audit and (under
    ``--faults``) recovery CSVs land under ``<dir>/artifacts/<cell>/``
    and the per-seed utilization series are merged count-weighted into
    ``<dir>/merged.util.<policy>.csv``.  With several ``--seeds`` the
    job counters are pooled per policy.
    """
    return _run_sweep(
        args, "churn", "churn_policy", {"policy": list(POLICY_MANAGERS)},
        dict(occupancy=args.occupancy, horizon=args.horizon,
             faults=args.faults),
        _print_churn_result,
        "+ merged.util.<policy>.csv, cells/, artifacts/",
        finish=_merge_churn_cells)


def _fg_offset(value: str):
    """``--fg-offset`` parser: a float, or the literal ``peak``."""
    if value == "peak":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds or 'peak', got {value!r}")


def _print_hybrid_result(result: dict, seed: Optional[int]) -> None:
    """One hybrid cell's summary on stdout."""
    tag = f"[seed {seed}] " if seed is not None else ""
    bg = result["background"]
    print(f"{tag}{result['policy']:10s} "
          f"bg: admitted={result['bg_admitted']:6.1%} "
          f"occupancy={bg['mean_occupancy']:6.1%} "
          f"jobs={bg['finished_jobs']}")
    print(f"{'':10s} window: offset={result['fg_offset']:.3f}s "
          f"length={1e3 * result['fg_horizon']:g}ms "
          f"watched_ports={result['watched_ports']} "
          f"residual_events={result['residual_events']}")
    for tenant in result["foreground"]:
        line = (f"{'':10s} fg tenant {tenant['tenant_id']} "
                f"({tenant['app']}, {tenant['vms']} VMs): "
                f"messages={tenant['messages']} "
                f"p50={_fmt_usec(tenant['p50_us'])} "
                f"p99={_fmt_usec(tenant['p99_us'])}")
        if tenant.get("rps") is not None:
            line += f" rps={tenant['rps']:.0f}"
        if tenant.get("late") is not None:
            line += f" late={_fmt_ratio(tenant['late'])}"
        print(line)
    if result["rejected_foreground"]:
        print(f"{'':10s} rejected foreground tenants: "
              f"{result['rejected_foreground']}")


def cmd_hybrid(args: argparse.Namespace) -> int:
    """Hybrid-fidelity run: packet foreground, fluid background.

    Places one foreground tenant through the policy's admission path,
    churns a fluid background cluster around its reservation, then
    replays the background's residual port capacity into a packet-level
    window running the foreground application.  The seed grid runs
    as a campaign; with ``--out DIR`` each cell keeps its foreground
    ``latency.csv``.
    """
    return _run_sweep(
        args, "hybrid", "hybrid_cell", {},
        dict(policy=args.policy, fg_app=args.app, fg_vms=args.fg_vms,
             fg_bandwidth_mbps=args.bandwidth_mbps,
             occupancy=args.occupancy, horizon=args.horizon,
             fg_horizon_ms=args.fg_horizon_ms, fg_offset=args.fg_offset,
             bg_flow_mb=args.bg_flow_mb, bg_compute_s=args.bg_compute_s,
             faults=args.faults),
        _print_hybrid_result, "+ cells/, artifacts/")


def _print_trace_result(result: dict, seed: Optional[int]) -> None:
    """One trace cell's summary (under a seed header on a multi-seed
    run)."""
    if seed is not None:
        print(f"--- seed {seed} ---")
    print(f"admission: {result['admission']}")
    for tenant in result["tenants"]:
        print(f"tenant {tenant['tenant_id']}: "
              f"messages={tenant['messages']} "
              f"p99={_fmt_usec(tenant['p99_us'])} "
              f"late={_fmt_ratio(tenant['late'])}")
    ports = result["ports"]
    print(f"ports: drops={ports['drops']} pushouts={ports['pushouts']} "
          f"max_queue={ports['max_queue_bytes'] / units.KB:.1f}KB")
    counters = result.get("mechanism_counters")
    if counters:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"mechanism[{result.get('mechanism', '?')}]: {rendered}")
    faults = result.get("faults")
    if faults is not None:
        print(f"faults: applied={faults['applied']} "
              f"fault_drops={faults['fault_drops']}")
    if "traced_events" in result:
        print(f"traced {result['traced_events']} events "
              f"(ring buffer; use --out to keep them)")


def cmd_trace(args: argparse.Namespace) -> int:
    """Packet-level Fig. 9-style run with full event tracing.

    Class-A tenants run synchronized all-to-one epoch bursts, class-B
    tenants run bulk transfers, all behind Silo admission control and
    hypervisor pacers.  The seed grid runs as a campaign; with
    ``--out DIR`` each seed's complete event stream (JSONL) plus
    per-message latency, per-port queue depth and per-request admission
    CSVs land under ``<dir>/artifacts/<cell>/`` with a
    ``manifest.json`` mapping cells to files -- enough to plot
    per-tenant latency distributions and queue-depth time series
    offline.  Without it the events go to a ring buffer and only
    their count is printed.
    """
    return _run_sweep(
        args, "trace", "trace_run", {},
        dict(vms=args.vms, bandwidth_mbps=args.bandwidth_mbps,
             burst_kb=args.burst_kb, delay_us=args.delay_us,
             bmax_gbps=args.bmax_gbps, class_a=args.class_a,
             class_b=args.class_b, message_kb=args.message_kb,
             epoch_us=args.epoch_us, duration_ms=args.duration_ms,
             queue_interval_us=args.queue_interval_us,
             faults=args.faults, mechanism=args.mechanism),
        _print_trace_result,
        "events.jsonl / latency.csv / queues.csv / admission.csv per cell "
        "under artifacts/")


def _calibrate_whatif(args: argparse.Namespace):
    """Fit a what-if surrogate from a traced campaign directory.

    When ``--calibrate`` points at a ``repro trace --out`` campaign,
    the calibration scenario's parameters (topology, guarantee,
    workload) are taken from its ``manifest.json`` so the fit replays
    exactly the admission decisions that produced the trace; a plain
    artifact directory falls back to the command-line flags.
    """
    from repro.analysis.surrogate import fit_whatif_model
    from repro.obs.traces import find_trace_artifacts
    artifacts = find_trace_artifacts(args.calibrate)
    params = None
    manifest = Path(args.calibrate) / "manifest.json"
    if manifest.is_file():
        cells = json.loads(
            manifest.read_text(encoding="utf-8")).get("cells") or []
        if cells:
            params = cells[0].get("params")
    if params is None:
        params = vars(args)
    topology = _cli_topology(**_topology_params(params))
    guarantee = _cli_guarantee(params["bandwidth_mbps"], params["burst_kb"],
                               params["delay_us"], params["bmax_gbps"])
    placements = _class_a_placements(topology, guarantee,
                                     params["class_a"], params["vms"])
    meta = {"source": str(args.calibrate), "traces": len(artifacts),
            "class_a": params["class_a"], "vms": params["vms"],
            "message_kb": params["message_kb"]}
    return fit_whatif_model(topology, placements, guarantee,
                            params["message_kb"] * units.KB, artifacts,
                            meta=meta)


def cmd_whatif(args: argparse.Namespace) -> int:
    """Score a proposed class-A placement with the calibrated surrogate.

    Loads a committed surrogate model (``--model``) or fits one from a
    traced campaign (``--calibrate``, optionally persisted with
    ``--save-model``), then runs real admission control for the what-if
    tenants and prints each admitted placement's estimated
    p50/p95/p99/p999 message latency together with its worst-case
    network-calculus bound.  The estimate itself takes microseconds --
    the point is to explore placements and burst allowances without
    re-running the packet simulator.
    """
    from repro.analysis.surrogate import (REPORT_QUANTILES, WhatIfModel,
                                          quantile_label)
    if bool(args.model) == bool(args.calibrate):
        print("whatif needs exactly one of --model or --calibrate",
              file=sys.stderr)
        return 2
    if args.model:
        try:
            model = WhatIfModel.load(args.model)
        except (KeyError, OSError, TypeError, ValueError) as exc:
            return _spec_error("--model", args.model, exc)
        print(f"loaded surrogate model from {args.model}")
    else:
        try:
            model = _calibrate_whatif(args)
        except (KeyError, OSError, ValueError) as exc:
            return _spec_error("--calibrate", args.calibrate, exc)
        print(f"calibrated on {model.meta.get('traces', '?')} trace(s), "
              f"{model.meta.get('calibration_messages', 0)} messages: "
              f"offset={units.to_usec(model.offset):+.1f}us "
              f"scale={model.scale:.3f}")
    if args.save_model:
        model.save(args.save_model)
        print(f"wrote {args.save_model}")

    topology = _topology(args)
    guarantee = _guarantee(args)
    silo = SiloController(topology)
    message_bytes = args.message_kb * units.KB
    scored = []
    start = time.perf_counter()
    for _ in range(args.class_a):
        request = TenantRequest(n_vms=args.vms, guarantee=guarantee,
                                tenant_class=TenantClass.CLASS_A)
        admitted = silo.admit(request)
        if admitted is None:
            print(f"tenant {request.tenant_id}: REJECTED (guarantees "
                  f"cannot be met on this topology)")
            continue
        estimate = model.estimate(topology, admitted.placement,
                                  message_bytes)
        scored.append((request, admitted, estimate))
    elapsed = time.perf_counter() - start
    for request, admitted, estimate in scored:
        servers = len(admitted.placement.vms_per_server())
        quantiles = " ".join(
            f"{quantile_label(q)}="
            f"{units.to_usec(estimate.quantiles[q]):.1f}us"
            for q in REPORT_QUANTILES)
        print(f"tenant {request.tenant_id}: {request.n_vms} VMs on "
              f"{servers} server(s), {args.message_kb:g}KB messages: "
              f"{quantiles}")
        print(f"  worst-case bound {units.to_usec(estimate.bound):.1f}us, "
              f"contention-free base "
              f"{units.to_usec(estimate.base):.1f}us")
    print(f"estimated {len(scored)} placement(s) in "
          f"{elapsed * 1e3:.2f} ms")
    return 0 if scored else 1


def _print_faults_result(result: dict, seed: Optional[int],
                         duration_ms: float) -> None:
    """One faults cell's summary (under a seed header on a multi-seed
    run)."""
    if seed is not None:
        print(f"--- seed {seed} ---")
    print(f"filled: {result['filled_tenants']} tenants on "
          f"{result['filled_slots']}/{result['total_slots']} "
          f"slots [{result['fill_audit']}]")
    print(f"replayed {result['n_events']} fault events over "
          f"{duration_ms:g} ms")
    print(f"tenants affected: {result['affected']} "
          f"(recovered={result['recovered']} "
          f"degraded={result['degraded']} "
          f"evicted={result['evicted']})")
    mttr = result["mean_ttr_s"]
    print(f"guarantee-seconds lost: "
          f"{result['guarantee_seconds_lost']:.6f}  "
          f"mean time-to-recover: "
          + (f"{units.to_msec(mttr):.3f} ms" if mttr is not None
             else "n/a"))


def cmd_faults(args: argparse.Namespace) -> int:
    """Control-plane fault campaign: fill, break, self-heal, report.

    Fills the cluster to ``--occupancy`` with the standard tenant mix,
    replays a seeded fault schedule through the
    :class:`~repro.placement.ClusterController`, and reports each
    tenant's fate (recovered / degraded / evicted) plus the
    SLO-violation totals (guarantee-seconds lost, time-to-recover).
    The seed grid runs as a campaign; with ``--out DIR`` each seed's
    fault timeline, per-tenant report and placement event stream
    land under ``<dir>/artifacts/<cell>/`` as ``faults.csv`` /
    ``recovery.csv`` / ``events.jsonl``; same-seed runs are
    byte-identical.
    """
    return _run_sweep(
        args, "faults", "faults_campaign", {},
        dict(policy=args.policy, occupancy=args.occupancy,
             faults=args.faults, duration_ms=args.duration_ms),
        lambda result, seed: _print_faults_result(result, seed,
                                                  args.duration_ms),
        "faults.csv / recovery.csv / events.jsonl per cell under "
        "artifacts/")


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a registered or file-defined sweep through the campaign runner.

    ``--list`` prints the registered sweep names.  Otherwise the spec
    comes from ``--name`` (registry) or ``--spec`` (JSON file), fans out
    over ``--workers`` processes, checkpoints each cell under
    ``<out>/cells/``, and writes ``manifest.json`` + ``merged.json``.
    ``--resume`` re-runs only the missing cells of an interrupted run;
    the merged output is byte-identical for any worker count.
    """
    if args.list:
        for name in list_sweeps():
            spec = get_sweep(name)
            print(f"{name:20s} {len(spec):4d} cells "
                  f"(scenario {spec.scenario})")
        return 0
    if bool(args.name) == bool(args.spec):
        print("campaign needs exactly one of --name or --spec "
              "(or --list)", file=sys.stderr)
        return 2
    if not args.out:
        print("campaign needs --out DIR for its checkpoints and "
              "manifest", file=sys.stderr)
        return 2
    try:
        spec = (get_sweep(args.name) if args.name
                else SweepSpec.from_file(args.spec))
        # Resolve the scenario here: inside the run an unregistered
        # name is a traceback, not a bad spec.
        import_scenario_modules(spec.modules, spec.module_paths)
        get_scenario(spec.scenario)
    except (ImportError, KeyError, OSError, ValueError) as exc:
        return _spec_error("--name" if args.name else "--spec",
                           args.name or args.spec, exc)
    result = _run_spec(args, spec, args.max_cells)
    if result.failed:
        return 1
    done = len(result.records)
    if args.max_cells is not None and done < len(spec):
        print(f"stopped after {done}/{len(spec)} cells (--max-cells); "
              f"rerun with --resume to finish")
    else:
        print(f"{spec.name}: {done} cells -> {args.out}/manifest.json")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the admission-control service under closed-loop load.

    Starts (or, when ``--data-dir`` already holds a write-ahead log and
    snapshot, *recovers*) the long-running admission service and drives
    it with the seeded closed-loop load generator: tenant arrivals,
    departures when jobs complete, optional ``--faults`` injection, and
    budget-aware retry against the service's backpressure hints.  The
    summary (counters, latency percentiles, final state digest) prints
    as JSON on stdout.

    Chaos handles: ``--kill-after N`` records the state digest after
    tick N and ``SIGKILL``s the process -- mid-run, no shutdown path;
    rerunning with the same ``--data-dir`` and ``--check-digest`` then
    proves recovery rebuilt bit-identical books before resuming the
    same seeded event stream.  ``docs/SERVICE.md`` walks through the
    full session.
    """
    from repro.faults import FaultSchedule
    from repro.service import (AdmissionService, ClosedLoopLoadGen,
                               SnapshotError, WalError)
    bad_spec = _check_faults_spec(args)
    if bad_spec is not None:
        return bad_spec
    topology = _topology(args)
    fault_events: list = []
    if args.faults:
        schedule = FaultSchedule.from_spec(args.faults, topology,
                                           horizon=args.horizon,
                                           seed=args.seed)
        fault_events = list(schedule.events)
    sink = None
    if args.trace_out:
        from repro.obs import JsonlSink
        sink = JsonlSink(args.trace_out)
    data_dir = Path(args.data_dir)
    try:
        service = AdmissionService(
            topology, data_dir, queue_capacity=args.queue_capacity,
            batch_size=args.batch_size, admission_timeout=args.timeout,
            snapshot_every=args.snapshot_every, tracer=sink)
    except (SnapshotError, WalError) as exc:
        return _spec_error("--data-dir", args.data_dir, exc)
    digest_path = data_dir / "digest.txt"
    if args.check_digest:
        if not digest_path.is_file():
            print(f"error: no pre-kill digest at {digest_path} "
                  f"(run with --kill-after first)", file=sys.stderr)
            return 2
        expected = digest_path.read_text(encoding="utf-8").strip()
        actual = service.state_digest()
        if actual != expected:
            print(f"error: recovered digest {actual} != pre-kill "
                  f"digest {expected}", file=sys.stderr)
            return 1
        print(f"recovery OK: digest {actual} matches pre-kill state "
              f"({service.metrics.replayed} WAL records replayed)",
              file=sys.stderr)
    loadgen = ClosedLoopLoadGen(
        service, arrival_rate=args.arrival_rate, horizon=args.horizon,
        seed=args.seed, fault_events=fault_events,
        tick_interval=args.tick_interval,
        retry_budget=args.retry_budget)
    on_tick = None
    if args.kill_after is not None:
        def on_tick(tick_index: int, now: float) -> bool:
            if tick_index >= args.kill_after:
                digest_path.write_text(service.state_digest() + "\n",
                                       encoding="utf-8")
                os.kill(os.getpid(), signal.SIGKILL)
            return True
    summary = loadgen.run(on_tick=on_tick)
    service.close()
    if sink is not None:
        sink.close()
    print(json.dumps(summary, sort_keys=True, indent=1))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate EXPERIMENTS.md's measured tables from campaign data.

    Re-renders every marker block (``<!-- begin:ID -->`` ..
    ``<!-- end:ID -->``) whose campaign has a committed
    ``merged.json`` and splices it into the document.  ``--check``
    verifies without writing and exits 1 on drift or on a block whose
    campaign data is missing (the CI gate); a missing ``--doc`` is
    exit 2.
    """
    from repro.campaign.report import update_document
    doc = Path(args.doc)
    campaigns = Path(args.campaigns)
    if not doc.is_file():
        print(f"error: bad --doc {args.doc!r}: no such file",
              file=sys.stderr)
        return 2
    try:
        changed = update_document(doc, campaigns, check=args.check)
    except ValueError as exc:
        print(f"error: {doc}: {exc}", file=sys.stderr)
        return 1
    if args.check:
        if changed:
            print(f"{doc} is stale; run 'python -m repro report' and "
                  f"commit", file=sys.stderr)
            return 1
        print(f"{doc} is up to date with {campaigns}/")
        return 0
    print(f"{doc}: {'updated' if changed else 'already up to date'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Silo (SIGCOMM 2015) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admit", help="admission-control one tenant")
    _add_topology_args(p)
    p.add_argument("--vms", type=int, default=8)
    _add_guarantee_args(p, 250.0)
    p.set_defaults(func=cmd_admit)

    p = sub.add_parser("bounds", help="message latency bound table")
    _add_guarantee_args(p, 250.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pace", help="void-packet wire schedule")
    p.add_argument("--rate-gbps", type=float, default=2.0)
    p.add_argument("--link-gbps", type=float, default=10.0)
    p.add_argument("--packets", type=int, default=1000)
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write pacer stamp/void events as JSONL")
    p.set_defaults(func=cmd_pace)

    p = sub.add_parser("churn", help="flow-level cluster simulation")
    _add_topology_args(p)
    p.add_argument("--occupancy", type=float, default=0.75)
    p.add_argument("--horizon", type=float, default=60.0)
    _add_faults_arg(p)
    _add_sweep_args(p)
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser("hybrid",
                       help="packet foreground inside a fluid background")
    _add_topology_args(p)
    p.add_argument("--policy", choices=["silo", "oktopus", "locality"],
                   default="silo",
                   help="admission/placement policy shared by foreground "
                        "and background")
    p.add_argument("--app", choices=["memcached", "burst"],
                   default="memcached",
                   help="foreground packet application")
    p.add_argument("--fg-vms", type=int, default=6)
    p.add_argument("--bandwidth-mbps", type=float, default=100.0,
                   help="foreground hose guarantee")
    p.add_argument("--occupancy", type=float, default=0.7,
                   help="target background slot occupancy")
    p.add_argument("--horizon", type=float, default=8.0,
                   help="fluid background run length (seconds)")
    p.add_argument("--fg-horizon-ms", type=float, default=20.0,
                   help="packet window length (milliseconds)")
    p.add_argument("--fg-offset", type=_fg_offset, default=None,
                   metavar="SECONDS|peak",
                   help="background time the packet window starts at "
                        "(default: mid-run; 'peak' aligns with the "
                        "recorded background-usage peak)")
    p.add_argument("--bg-flow-mb", type=float, default=250.0,
                   help="background class-B flow size (MB; class-A "
                        "scales with it)")
    p.add_argument("--bg-compute-s", type=float, default=4.0,
                   help="background mean compute time (seconds)")
    _add_faults_arg(p)
    _add_sweep_args(p)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("trace",
                       help="packet-level run with full event tracing")
    _add_topology_args(p)
    # 12 VMs on 8-slot servers forces a rack-scope placement, so the
    # traced traffic actually crosses switch ports (an 8-VM tenant fits
    # on one server and would only exercise its vswitch).
    p.add_argument("--vms", type=int, default=12)
    _add_guarantee_args(p, 1000.0)
    p.add_argument("--class-a", type=int, default=2,
                   help="epoch-burst (OLDI) tenants")
    p.add_argument("--class-b", type=int, default=1,
                   help="bulk-transfer tenants")
    p.add_argument("--message-kb", type=float, default=15.0)
    p.add_argument("--epoch-us", type=float, default=2000.0)
    p.add_argument("--duration-ms", type=float, default=20.0)
    p.add_argument("--queue-interval-us", type=float, default=50.0,
                   help="queue-depth time-series bucket width")
    _add_faults_arg(p)
    from repro.mechanisms import mechanism_names
    p.add_argument("--mechanism", choices=mechanism_names(),
                   default="silo",
                   help="SLO mechanism running the data path "
                        "(placement still goes through Silo admission)")
    _add_sweep_args(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("whatif",
                       help="estimate a placement's tail latency "
                            "without packet simulation")
    _add_topology_args(p)
    p.add_argument("--model", metavar="JSON", default=None,
                   help="committed surrogate model (written by "
                        "--save-model)")
    p.add_argument("--calibrate", metavar="DIR", default=None,
                   help="fit the surrogate from a traced campaign "
                        "directory ('repro trace --out DIR') before "
                        "estimating")
    p.add_argument("--save-model", metavar="JSON", default=None,
                   help="persist the fitted model (with --calibrate)")
    p.add_argument("--vms", type=int, default=12)
    _add_guarantee_args(p, 1000.0)
    p.add_argument("--class-a", type=int, default=1,
                   help="class-A tenants to place and score")
    p.add_argument("--message-kb", type=float, default=15.0)
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("faults",
                       help="control-plane fault campaign with recovery "
                            "report")
    _add_topology_args(p)
    p.add_argument("--policy", choices=("silo", "oktopus", "locality"),
                   default="silo")
    p.add_argument("--occupancy", type=float, default=0.75)
    _add_faults_arg(p, "poisson:mtbf_ms=5,mttr_ms=2")
    p.add_argument("--duration-ms", type=float, default=50.0)
    _add_sweep_args(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("campaign",
                       help="run a sweep across worker processes with "
                            "checkpoint/resume")
    p.add_argument("--list", action="store_true",
                   help="print the registered sweep names and exit")
    p.add_argument("--name", metavar="SWEEP", default=None,
                   help="a registered sweep (see --list)")
    p.add_argument("--spec", metavar="JSON", default=None,
                   help="a SweepSpec JSON file (see docs/CAMPAIGNS.md)")
    _add_campaign_args(p)
    p.add_argument("--max-cells", type=int, default=None,
                   help="stop after N newly executed cells (simulates "
                        "a crash; finish later with --resume)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("serve",
                       help="long-running admission service with "
                            "crash-consistent recovery")
    _add_topology_args(p)
    p.add_argument("--data-dir", metavar="DIR", required=True,
                   help="durable state directory (write-ahead log + "
                        "snapshots); rerun with the same DIR to "
                        "recover a killed service")
    p.add_argument("--arrival-rate", type=float, default=20.0,
                   help="tenant arrivals per virtual second")
    p.add_argument("--horizon", type=float, default=5.0,
                   help="stop generating arrivals after this virtual "
                        "time, then drain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="ingress queue bound (admissions bounce with "
                        "a retry-after hint beyond it)")
    p.add_argument("--batch-size", type=int, default=16,
                   help="admissions processed per service tick")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="admission deadline budget (virtual seconds)")
    p.add_argument("--tick-interval", type=float, default=0.05,
                   help="virtual seconds between service ticks")
    p.add_argument("--retry-budget", type=int, default=2,
                   help="client retries per bounced/shed admission")
    p.add_argument("--snapshot-every", type=int, default=200,
                   help="snapshot the books after this many completed "
                        "items (0 = WAL only)")
    _add_faults_arg(p)
    p.add_argument("--kill-after", type=int, metavar="TICK",
                   default=None,
                   help="record the state digest after this tick and "
                        "SIGKILL the process (chaos test; verify with "
                        "--check-digest on restart)")
    p.add_argument("--check-digest", action="store_true",
                   help="assert the recovered state digest matches "
                        "the one --kill-after recorded, then resume")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write service ingress/decision/snapshot "
                        "events as JSONL")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report",
                       help="regenerate EXPERIMENTS.md tables from "
                            "campaign outputs")
    p.add_argument("--campaigns", metavar="DIR", default="campaigns",
                   help="committed campaign outputs "
                        "(default: campaigns/)")
    p.add_argument("--doc", metavar="PATH", default="EXPERIMENTS.md",
                   help="document to splice tables into")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if the document would change "
                        "(CI drift gate)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse arguments and dispatch."""
    args = build_parser().parse_args(argv)
    bad_guarantee = _check_guarantee(args)
    if bad_guarantee is not None:
        return bad_guarantee
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
