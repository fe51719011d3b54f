"""Runner of the repo benchmark (``BENCHMARK.json`` is its contract).

One workload, one pass -- what the pipeline calls::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing patched: the
set-up time over several fresh interpreters (median), then as many
instances of the workload as fill ``S`` seconds, each with its own seed
derived from ``--seed`` (mean).  Host times are converted to the
reference container's speed, sampled while they pass
(:mod:`perf.speed`).  ``--trace 1`` runs one instance untraced and the
same instance under :mod:`perf.trace`, requires both to produce
byte-equal results, and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.

Without ``--workload`` every workload runs both passes, each in a fresh
subprocess, every metric is printed by name with its unit, and ``--out``
receives one JSON document with the numbers and their provenance.
``--selfcheck`` runs the untraced pass twice and compares the pair
against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    # Run as a script: ``perf/`` is sys.path[0], where ``trace.py`` would
    # shadow the standard library's module; import through the package.
    sys.path[0] = str(ROOT)

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5
#: Seconds between speed samples inside a set-up probe, which lasts a
#: few tenths of a second.
PROBE_INTERVAL_S = 0.03
#: Open-loop pass of ``service-soak`` (traced run only), seconds.
OPEN_LOOP_S, OPEN_LOOP_QUICK_S = 8.0, 2.0


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def canonical_digest(result) -> str:
    """SHA-256 over the canonical JSON form of a scenario result."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"),
                         default=lambda value: value.item())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def instance_count(workload, seconds: float, quick: bool) -> int:
    """How many instances make up ``seconds`` of measurement."""
    from perf.workloads import REFERENCE_SECONDS
    if quick:
        return 1
    return max(1, round(workload.instances * seconds / REFERENCE_SECONDS))


def timed_instance(workload, seed: int, quick: bool):
    """Prepare and run one instance under the speed sampler; returns
    (wall seconds, the same at the reference speed, result)."""
    from perf.speed import SpeedSampler
    with workload.prepare(seed, quick) as run:
        gc.collect()
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            result = run()
            wall = time.perf_counter() - start
        return wall, sampler.reference_seconds(wall), result


def traced_instance(workload, seed: int, quick: bool, tracer, root_key):
    """Prepare and run one instance as ``tracer``'s root frame; returns
    (wall seconds, result).  No speed sampler: see :mod:`perf.speed`."""
    with workload.prepare(seed, quick) as run:
        tracer.trace_id += 1
        run = tracer.wrap(run, root_key, span=True)
        gc.collect()
        start = time.perf_counter()
        result = run()
        return time.perf_counter() - start, result


def own_command(*extra: str) -> List[str]:
    """This script under this interpreter, plus ``extra`` arguments."""
    return [sys.executable, str(Path(__file__).resolve()), *extra]


def measure_setup(args) -> List[float]:
    """Reference-speed seconds of fresh interpreters that import the
    program and build the first instance's inputs, then exit without
    running it (:func:`setup_probe`).  The probe samples the machine's
    speed itself, on its own core, and prints the samples."""
    from perf.speed import reference_seconds
    command = own_command("--workload", args.workload, "--seed",
                          str(args.seed), "--setup-probe")
    if args.quick:
        command.append("--quick")
    walls = []
    for _ in range(1 if args.quick else SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                              text=True)
        wall = time.perf_counter() - start
        walls.append(reference_seconds(wall, json.loads(done.stdout)))
    return walls


def setup_probe(args) -> int:
    """What ``setup_s`` times: import the program and build the first
    instance's inputs, under the speed sampler from the first import on;
    prints the sampled kernel durations."""
    from perf.speed import SpeedSampler
    with SpeedSampler(PROBE_INTERVAL_S) as sampler:
        from perf.workloads import WORKLOADS
        from repro.campaign.spec import derive_seed
        workload = WORKLOADS[args.workload]
        with workload.prepare(derive_seed(args.seed, workload.name, 0),
                              args.quick):
            pass
    print(json.dumps(sampler.samples))
    return 0


def untraced_pass(args, workload, seeds: List[int]) -> dict:
    """End-to-end metrics: set-up probes, then the timed instances."""
    setup_walls = measure_setup(args)
    raw_walls, walls, summaries = [], [], []
    for seed in seeds:
        raw, wall, result = timed_instance(workload, seed, args.quick)
        raw_walls.append(raw)
        walls.append(wall)
        summaries.append(workload.summarize(result))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = sum(s["ops"] for s in summaries)
    return {
        "attempted": ops,
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.mean(walls),
            "ops_per_s": ops / sum(walls),
            "peak_rss_mb": rss_mb,
            "sim_admitted_fraction": statistics.mean(
                s["admitted_fraction"] for s in summaries),
        },
        "detail": {"instances": len(walls), "instance_wall_s": walls,
                   "instance_raw_wall_s": raw_walls,
                   "setup_probe_s": setup_walls},
    }


def traced_pass(args, workload, seed: int) -> dict:
    """Per-layer metrics: one instance untraced, then the same instance
    traced; both must produce the same bytes."""
    from perf import layers
    from perf.trace import Tracer
    from perf.workloads import require, service_open_loop

    plain_wall, _ref, plain = timed_instance(workload, seed, args.quick)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced_wall, traced = traced_instance(
            workload, seed, args.quick, tracer, layers.ROOT_KEY)
    finally:
        tracer.restore()
    digest = canonical_digest(traced)
    require(canonical_digest(plain) == digest,
            "traced and untraced results differ: the wrappers "
            "perturbed the simulation")
    summary = workload.summarize(traced)
    metrics = layers.layer_metrics(tracer, traced_wall)
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    metrics.update(summary["per_layer"])
    attempted, failed = summary["ops"], summary["failed"]
    if workload.name == "service-soak":
        # Untraced on purpose: every open-loop number is taken by the
        # driver at the submit/tick boundary on the host clock.
        open_loop = service_open_loop(
            seed, OPEN_LOOP_QUICK_S if args.quick else OPEN_LOOP_S,
            args.quick)
        metrics.update(open_loop["metrics"])
        attempted += open_loop["offered"]
        failed += open_loop["failed"]
    if args.trace_out:
        tracer.write_spans(args.trace_out)
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": {"untraced_wall_s": plain_wall,
                   "traced_wall_s": traced_wall,
                   "spans": len(tracer.spans),
                   "result_digest": digest},
    }


def run_workload(args) -> int:
    """Driver mode: one workload, one pass, JSON result on the last line."""
    from perf.workloads import WORKLOADS, BenchError
    from repro.campaign.spec import derive_seed

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    count = instance_count(workload, args.seconds, args.quick)
    seeds = [derive_seed(args.seed, workload.name, i) for i in range(count)]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    try:
        if args.trace:
            outcome = traced_pass(args, workload, seeds[0])
        else:
            outcome = untraced_pass(args, workload, seeds)
    except BenchError as error:
        print(f"{workload.name}: check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    measured = outcome["metrics"]
    # Layers a workload never enters report 0 for their metrics.
    values = {name: measured.pop(name, 0) or 0 for name in units}
    if measured:
        raise SystemExit(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(measured)}")
    for name, value in values.items():
        print(f"{workload.name:15s} {name:40s} {value:>16.6g} "
              f"{units[name]}")
    detail = dict(outcome["detail"], workload=workload.name,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  quick=args.quick, instance_seeds=seeds)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": True,
        "attempted": max(1, int(outcome["attempted"])),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Full mode: every workload, both passes, one result document
# ---------------------------------------------------------------------------

def provenance(args, spec: dict) -> dict:
    """Where, when and on what the numbers were taken."""
    import numpy
    from perf.workloads import WORK_DIR
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without .git
    return {
        "git_sha": sha,
        "date": time.strftime("%Y-%m-%d"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "data_dir": str(WORK_DIR),
        "data_dir_filesystem": filesystem_of(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_probes": SETUP_PROBES,
        "metrics": {m["name"]: {k: v for k, v in m.items() if k != "name"}
                    for m in spec["end_to_end"] + spec["per_layer"]},
    }


def filesystem_of(path: Path) -> Optional[str]:
    """Filesystem type of the mount holding ``path`` (Linux)."""
    best, fstype = "", None
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") \
                        and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        return None
    return fstype


def run_child(args, name: str, trace: int, echo: bool = True) -> dict:
    """One driver-mode subprocess; returns its parsed result + detail
    and, with ``echo``, repeats its metric table."""
    command = own_command("--workload", name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace",
                          str(trace))
    if args.quick:
        command.append("--quick")
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{name}.jsonl"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(line for line in lines
                        if not line.startswith(("{", "detail:"))),
              flush=True)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{name} (trace {trace}) failed with exit code "
                         f"{done.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail: "):])
    return result


def run_all(args) -> int:
    """Every selected workload and pass; optionally write ``--out``."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    passes = [args.trace] if args.trace is not None else [0, 1]
    results: Dict[str, dict] = {}
    for name in names:
        for trace in passes:
            section = "per_layer" if trace else "end_to_end"
            results.setdefault(name, {})[section] = run_child(
                args, name, trace)
    if args.out:
        document = {"provenance": provenance(args, spec),
                    "workloads": results}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def selfcheck(args) -> int:
    """Two untraced passes back to back, compared against the bounds."""
    spec = load_spec()
    failures = 0
    print(f"{'workload':15s} {'metric':22s} {'first':>12s} "
          f"{'second':>12s} {'rel diff':>9s} {'bound':>6s}")
    for workload in spec["workloads"]:
        name = workload["name"]
        first, second = (run_child(args, name, 0, echo=False)["metrics"]
                         for _ in range(2))
        for metric in spec["end_to_end"]:
            a = first[metric["name"]]["value"]
            b = second[metric["name"]]["value"]
            diff = abs(b - a) / abs(a)
            verdict = "" if diff <= metric["bound"] else "  EXCEEDED"
            failures += bool(verdict)
            print(f"{name:15s} {metric['name']:22s} {a:12.5g} {b:12.5g} "
                  f"{diff:9.4f} {metric['bound']:6.2f}{verdict}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only, in "
                        "this process, and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end pass, 1: traced per-layer "
                        "pass (default with --workload: 0; without: both)")
    parser.add_argument("--quick", action="store_true",
                        help="shrunk workloads for the harness tests; "
                        "never writes numbers")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="result JSON (all-workloads mode)")
    parser.add_argument("--trace-out", help="raw spans as JSONL")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              f"runs the program from source", file=sys.stderr)
        return 2
    if args.quick and args.out:
        parser.error("--quick never writes numbers; drop --out")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    args.trace = args.trace or 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
