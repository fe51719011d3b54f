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

Error contract: every command's flags are declared :class:`Param` s
(a sweep-backed command's scenario parameters, every other command's
own table in :data:`_COMMANDS`), and every value passes the one
declared check, :func:`~repro.campaign.params.check_values`.  A
malformed campaign ``--spec`` file, ``--model``, ``--calibrate``
directory or ``--data-dir``, or a flag or spec value its declaration
rejects (out of range, wrong JSON type, not finite, unknown or missing,
an infeasible guarantee, a topology the tree refuses, a ``--faults``
spec that does not parse) exits with code 2 and one ``error:`` line
naming the flag, parameter or field, before any ``--out`` or
``--data-dir`` directory is made -- never a traceback.  A value is named
by its flag wherever it came from: ``churn --occupancy 1.5`` and a
spec's ``"occupancy": 1.5`` both print ``error: bad --occupancy 1.5:
must be < 1``.  A campaign cell that outruns
``--cell-timeout`` fails that cell (and the campaign exits 1 listing
it) instead of hanging the run.

``churn``, ``hybrid``, ``trace`` and ``faults`` are *sweep-backed*:
each is a (policy x) seed grid of one scenario that always runs through
the campaign runner (:func:`_run_sweep`), in memory by default; its
flags are built from the scenario's parameter declaration
(:mod:`repro.campaign.params`).  ``--seeds A B``
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
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.campaign import (ParamError, SweepSpec, declaration, get_scenario,
                            get_sweep, list_sweeps, merge_bucket_rows,
                            run_campaign, sum_counters)
from repro.campaign.params import (REQUIRED, Group, Param, check_values,
                                   flag_type)
from repro.campaign.registry import import_scenario_modules
from repro.campaign.scenarios import (FAULTS, GUARANTEE, POLICY_MANAGERS,
                                      TOPOLOGY, _class_a_placements,
                                      write_csv)
from repro.core.tenant import TenantClass, TenantRequest, reset_tenant_ids
from repro.placement import SiloPlacementManager

#: The sweep-backed commands: the scenario each runs, and the grid it
#: sweeps beside the seeds.  Their flags are the scenario's parameters.
_SWEEPS = {"churn": ("churn_policy", {"policy": list(POLICY_MANAGERS)}),
           "hybrid": ("hybrid_cell", {}),
           "trace": ("trace_run", {}),
           "faults": ("faults_campaign", {})}

#: The campaign-runner flags of ``campaign`` and of every sweep-backed
#: command.
_RUNNER = {
    "out": Param(Optional[str], None, metavar="DIR",
                 help="campaign directory: checkpoints under DIR/cells/, "
                      "per-cell artifacts under DIR/artifacts/, plus "
                      "DIR/manifest.json (and merged.json for 'campaign')"),
    "workers": Param(int, 0, bounds=((">=", 0),),
                     help="worker processes (0 = serial in-process)"),
    "resume": Param(bool, False,
                    help="with --out: skip cells already checkpointed"),
    "cell_timeout": Param(Optional[float], None, bounds=((">", 0),),
                          metavar="SECONDS",
                          help="fail any cell that outruns this wall-clock "
                               "budget instead of hanging the campaign"),
}

#: Each command's own flags, in ``--help`` order, and the groups built
#: from them; ``main`` checks both before the command runs.  A
#: sweep-backed command's own flags are the runner's: its scenario's
#: parameters come first on its command line, and ``run_campaign``
#: checks them with each cell.  A bound that names another flag is that
#: flag's value: a pacer cannot send faster than its link.
_COMMANDS: Dict[str, Tuple[Dict[str, Param], Tuple[Group, ...]]] = {
    "admit": ({**TOPOLOGY.params, "vms": Param(int, 8, bounds=((">=", 1),)),
               **GUARANTEE.params}, (TOPOLOGY, GUARANTEE)),
    "bounds": (GUARANTEE.params, (GUARANTEE,)),
    "pace": ({
        "rate_gbps": Param(float, 2.0,
                           bounds=((">", 0), ("<=", "link_gbps"))),
        "link_gbps": Param(float, 10.0, bounds=((">", 0),)),
        "packets": Param(int, 1000, bounds=((">=", 1),)),
        "trace_out": Param(Optional[str], None, metavar="PATH",
                           help="write pacer stamp/void events as JSONL"),
    }, ()),
    "whatif": ({
        **TOPOLOGY.params,
        "model": Param(Optional[str], None, metavar="JSON",
                       help="committed surrogate model (written by "
                            "--save-model)"),
        "calibrate": Param(Optional[str], None, metavar="DIR",
                           help="fit the surrogate from a traced campaign "
                                "directory ('repro trace --out DIR') "
                                "before estimating"),
        "save_model": Param(Optional[str], None, metavar="JSON",
                            help="persist the fitted model (with "
                                 "--calibrate)"),
        "vms": Param(int, 12, bounds=((">=", 2),)),
        **GUARANTEE.params,
        "bandwidth_mbps": replace(GUARANTEE.params["bandwidth_mbps"],
                                  default=1000.0),
        "class_a": Param(int, 1, bounds=((">=", 1),),
                         help="class-A tenants to place and score"),
        "message_kb": Param(float, 15.0, bounds=((">", 0),)),
    }, (TOPOLOGY, GUARANTEE)),
    "campaign": ({
        "list": Param(bool, False,
                      help="print the registered sweep names and exit"),
        "name": Param(Optional[str], None, metavar="SWEEP",
                      help="a registered sweep (see --list)"),
        "spec": Param(Optional[str], None, metavar="JSON",
                      help="a SweepSpec JSON file (see docs/CAMPAIGNS.md)"),
        **_RUNNER,
        "max_cells": Param(Optional[int], None, bounds=((">=", 0),),
                           help="stop after N newly executed cells "
                                "(simulates a crash; finish later with "
                                "--resume)"),
    }, ()),
    "serve": ({
        **TOPOLOGY.params,
        "data_dir": Param(str, metavar="DIR",
                          help="durable state directory (write-ahead log "
                               "+ snapshots); rerun with the same DIR to "
                               "recover a killed service"),
        "arrival_rate": Param(float, 20.0, bounds=((">", 0),),
                              help="tenant arrivals per virtual second"),
        "horizon": Param(float, 5.0, bounds=((">", 0),),
                         help="stop generating arrivals after this virtual "
                              "time, then drain"),
        "seed": Param(int, 0),
        "queue_capacity": Param(int, 64, bounds=((">=", 1),),
                                help="ingress queue bound (admissions "
                                     "bounce with a retry-after hint "
                                     "beyond it)"),
        "batch_size": Param(int, 16, bounds=((">=", 1),),
                            help="admissions processed per service tick"),
        "timeout": Param(float, 5.0, bounds=((">", 0),),
                         help="admission deadline budget (virtual "
                              "seconds)"),
        "tick_interval": Param(float, 0.05, bounds=((">", 0),),
                               help="virtual seconds between service "
                                    "ticks"),
        "retry_budget": Param(int, 2, bounds=((">=", 0),),
                              help="client retries per bounced/shed "
                                   "admission"),
        "snapshot_every": Param(int, 200, bounds=((">=", 0),),
                                help="snapshot the books after this many "
                                     "completed items (0 = WAL only)"),
        "faults": FAULTS,
        "kill_after": Param(Optional[int], None, bounds=((">=", 0),),
                            metavar="TICK",
                            help="record the state digest after this tick "
                                 "and SIGKILL the process (chaos test; "
                                 "verify with --check-digest on restart)"),
        "check_digest": Param(bool, False,
                              help="assert the recovered state digest "
                                   "matches the one --kill-after "
                                   "recorded, then resume"),
        "trace_out": Param(Optional[str], None, metavar="PATH",
                           help="write service ingress/decision/snapshot "
                                "events as JSONL"),
    }, (TOPOLOGY,)),
    "report": ({
        "campaigns": Param(str, "campaigns", metavar="DIR",
                           help="committed campaign outputs (default: "
                                "campaigns/)"),
        "doc": Param(str, "EXPERIMENTS.md", metavar="PATH",
                     help="document to splice tables into"),
        "check": Param(bool, False,
                       help="exit 1 if the document would change (CI "
                            "drift gate)"),
    }, ()),
    **{command: (_RUNNER, ()) for command in _SWEEPS},
}


def _add_params(parser: argparse.ArgumentParser,
                params: Dict[str, Param]) -> None:
    """One flag per declared parameter: its type, default, choices,
    metavar and help, all from the declaration.  A ``bool`` is a switch;
    a parameter with no default is a required flag."""
    for name, param in params.items():
        flag = param.flag or name.replace("_", "-")
        if param.kind is bool:
            parser.add_argument("--" + flag, dest=name, action="store_true",
                                help=param.help)
            continue
        choices = param.options()
        default = ({"required": True} if param.default is REQUIRED
                   else {"default": param.default})
        parser.add_argument(
            "--" + flag, dest=name, type=flag_type(param.kind),
            choices=choices,
            metavar=param.metavar or (None if choices else
                                      flag.upper().replace("-", "_")),
            help=param.help, **default)


def _add_command(sub, command: str, help: str, func) -> None:
    """One subcommand.  A sweep-backed command first takes the topology
    flags, its scenario's other parameters in signature order (the grid
    axes aside) and the seed axis; then every command takes its own
    declared flags."""
    parser = sub.add_parser(command, help=help)
    if command in _SWEEPS:
        scenario, grid = _SWEEPS[command]
        _add_params(parser, {**TOPOLOGY.params, **{
            name: param
            for name, param in declaration(scenario).params.items()
            if name not in TOPOLOGY.params and name not in grid}})
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seeds", type=int, nargs="+", metavar="SEED",
                            default=None,
                            help="sweep several seeds (overrides --seed)")
    _add_params(parser, _COMMANDS[command][0])
    parser.set_defaults(func=func)


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


def _run_spec(args: argparse.Namespace, spec: SweepSpec,
              max_cells: Optional[int] = None):
    """Run ``spec`` under the campaign flags (in memory without
    ``--out``); failed cells are listed on stderr and leave
    ``result.failed`` non-empty for the caller's exit 1.  A cell whose
    parameters fail their declaration raises
    :class:`~repro.campaign.ParamError` before anything is written."""
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


def _run_sweep(args: argparse.Namespace, print_cell, wrote: str,
               finish=None) -> int:
    """The one way ``churn``, ``hybrid``, ``trace`` and ``faults`` run.

    The (grid x seeds) cells of the command's scenario, every other
    declared parameter fixed at its flag's value, go through the
    campaign runner -- in memory without ``--out``.  Each result is
    printed in commit order by ``print_cell(result, seed)`` (``seed``
    is None on a single-seed run), ``finish(result)`` does the
    command's cross-cell reductions, and with ``--out`` the trailer
    says what was ``wrote``.
    """
    scenario, grid = _SWEEPS[args.command]
    declared = declaration(scenario).params
    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    result = _run_spec(args, SweepSpec(
        name=args.command, scenario=scenario, grid=grid, seeds=seeds,
        fixed={name: value for name, value in vars(args).items()
               if name in declared}))
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
    manager = SiloPlacementManager(TOPOLOGY.build(vars(args)))
    request = TenantRequest(n_vms=args.vms,
                            guarantee=GUARANTEE.build(vars(args)),
                            tenant_class=TenantClass.CLASS_A)
    placement = manager.place(request)
    if placement is None:
        print("REJECTED: the guarantees cannot be met on this topology")
        return 1
    counts = placement.vms_per_server()
    print(f"ADMITTED {request.n_vms} VMs across "
          f"{len(counts)} servers: "
          + ", ".join(f"server {s}: {c} VM(s)"
                      for s, c in sorted(counts.items())))
    for size_kb in (1, 15, 100, 1000):
        bound = request.guarantee.message_latency_bound(size_kb * units.KB)
        print(f"  {size_kb:5d} KB message latency bound: "
              f"{units.to_msec(bound):8.3f} ms")
    worst = max((state.queue_bound() for state in manager.states.values()),
                default=0.0)
    print(f"  worst switch queue bound now: {units.to_usec(worst):.1f} us")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print the message-latency bound table for a guarantee."""
    guarantee = GUARANTEE.build(vars(args))
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
    return _run_sweep(args, _print_churn_result,
                      "+ merged.util.<policy>.csv, cells/, artifacts/",
                      finish=_merge_churn_cells)


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
    """Hybrid-fidelity run: packet foreground, fluid background
    (:func:`~repro.campaign.scenarios.hybrid_cell` per seed).  With
    ``--out DIR`` each cell keeps its foreground ``latency.csv``."""
    return _run_sweep(args, _print_hybrid_result, "+ cells/, artifacts/")


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
    """Packet-level Fig. 9-style run with full event tracing
    (:func:`~repro.campaign.scenarios.trace_cell` per seed).  With
    ``--out DIR`` each seed's event JSONL and latency, queue-depth and
    admission CSVs land under ``<dir>/artifacts/<cell>/``, enough to
    plot per-tenant latency and queue depth offline; without it only
    the event count is printed."""
    return _run_sweep(
        args, _print_trace_result,
        "events.jsonl / latency.csv / queues.csv / admission.csv per cell "
        "under artifacts/")


def _calibrate_whatif(args: argparse.Namespace):
    """Fit a what-if surrogate from a traced campaign directory.

    When ``--calibrate`` points at a ``repro trace --out`` campaign,
    the calibration scenario's parameters (topology, guarantee,
    workload) are taken from its ``manifest.json``, checked against the
    scenario's declaration, so the fit replays exactly the admission
    decisions that produced the trace; a plain artifact directory falls
    back to the command-line flags.
    """
    from repro.analysis.surrogate import fit_whatif_model
    from repro.obs.traces import find_trace_artifacts
    artifacts = find_trace_artifacts(args.calibrate)
    params = vars(args)
    manifest = Path(args.calibrate) / "manifest.json"
    if manifest.is_file():
        document = json.loads(manifest.read_text(encoding="utf-8"))
        cells = document.get("cells") or []
        if cells:
            params = cells[0]["params"]
            if not isinstance(params, dict):
                raise ValueError(f"{manifest}: cells[0].params must be an "
                                 f"object, not {type(params).__name__}")
            declaration(document["scenario"]).check(params,
                                                    cells[0]["seed"])
    topology = TOPOLOGY.build(params)
    guarantee = GUARANTEE.build(params)
    placements = _class_a_placements(topology, guarantee,
                                     params["class_a"], params["vms"])
    meta = {"source": str(args.calibrate), "traces": len(artifacts),
            "class_a": params["class_a"], "vms": params["vms"],
            "message_kb": params["message_kb"]}
    return fit_whatif_model(topology, placements,
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
            raise ParamError.from_exception("--model", args.model,
                                            exc) from None
        print(f"loaded surrogate model from {args.model}")
    else:
        try:
            model = _calibrate_whatif(args)
        except (KeyError, OSError, ValueError) as exc:
            raise ParamError.from_exception("--calibrate", args.calibrate,
                                            exc) from None
        print(f"calibrated on {model.meta.get('traces', '?')} trace(s)")
    if args.save_model:
        model.save(args.save_model)
        print(f"wrote {args.save_model}")

    # The calibration's placements drew ids from the global counter; the
    # what-if tenants are numbered from 1 on either path.
    reset_tenant_ids()
    topology = TOPOLOGY.build(vars(args))
    guarantee = GUARANTEE.build(vars(args))
    manager = SiloPlacementManager(topology)
    message_bytes = args.message_kb * units.KB
    scored = []
    start = time.perf_counter()
    for _ in range(args.class_a):
        request = TenantRequest(n_vms=args.vms, guarantee=guarantee,
                                tenant_class=TenantClass.CLASS_A)
        placement = manager.place(request)
        if placement is None:
            print(f"tenant {request.tenant_id}: REJECTED (guarantees "
                  f"cannot be met on this topology)")
            continue
        estimate = model.estimate(topology, placement, message_bytes)
        scored.append((request, placement, estimate))
    elapsed = time.perf_counter() - start
    for request, placement, estimate in scored:
        servers = len(placement.vms_per_server())
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
    """Control-plane fault campaign: fill, break, self-heal, report
    (:func:`~repro.campaign.scenarios.faults_cell` per seed).  With
    ``--out DIR`` each seed's ``faults.csv`` / ``recovery.csv`` /
    ``events.jsonl`` land under ``<dir>/artifacts/<cell>/``; same-seed
    runs are byte-identical."""
    return _run_sweep(
        args, lambda result, seed: _print_faults_result(
            result, seed, args.duration_ms),
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
        raise ParamError.from_exception("--name" if args.name else "--spec",
                                        args.name or args.spec,
                                        exc) from None
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
    topology = TOPOLOGY.build(vars(args))
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
        raise ParamError.from_exception("--data-dir", args.data_dir,
                                        exc) from None
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
        raise ParamError("--doc", args.doc, "no such file")
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

    _add_command(sub, "admit", "admission-control one tenant", cmd_admit)
    _add_command(sub, "bounds", "message latency bound table", cmd_bounds)
    _add_command(sub, "pace", "void-packet wire schedule", cmd_pace)
    _add_command(sub, "churn", "flow-level cluster simulation", cmd_churn)
    _add_command(sub, "hybrid",
                 "packet foreground inside a fluid background", cmd_hybrid)
    _add_command(sub, "trace", "packet-level run with full event tracing",
                 cmd_trace)
    _add_command(sub, "whatif", "estimate a placement's tail latency "
                 "without packet simulation", cmd_whatif)
    _add_command(sub, "faults",
                 "control-plane fault campaign with recovery report",
                 cmd_faults)
    _add_command(sub, "campaign", "run a sweep across worker processes "
                 "with checkpoint/resume", cmd_campaign)
    _add_command(sub, "serve", "long-running admission service with "
                 "crash-consistent recovery", cmd_serve)
    _add_command(sub, "report", "regenerate EXPERIMENTS.md tables from "
                 "campaign outputs", cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse arguments and dispatch."""
    args = build_parser().parse_args(argv)
    try:
        # One check of every flag the command declares; a sweep-backed
        # command's scenario parameters are checked per campaign cell.
        check_values(*_COMMANDS[args.command], vars(args))
        return args.func(args)
    except ParamError as exc:
        # A value its declaration rejects, from a flag or a spec file.
        print(f"error: bad {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
