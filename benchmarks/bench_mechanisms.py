"""Mechanism-overhead benchmark: what each SLO mechanism costs and buys.

Runs the registered ``mechanism_compare`` scenario cell (the fig12-shape
contended workload: class-A incast epochs over class-B bulk) once per
mechanism -- ``none`` (no isolation), ``silo``, ``swp`` and ``eyeq`` --
and reports, per mechanism:

* simulator wall-clock and its overhead relative to the ``none``
  baseline (the price of the mechanism's extra machinery: pacer events,
  duplicate packets, control-loop ticks);
* the class-A latency tail (p50/p99/p99.9) against the tenant's
  contractual bound, plus late-message counts;
* the mechanism's own cost counters (speculative bytes for SWP, rate
  feedback messages for EyeQ).

The full run asserts the paper's headline ordering -- Silo's p99 at or
below EyeQ's p99 (reactive control cannot beat admission-time pacing at
the tail) and Silo alone meeting the contractual bound -- and writes
the committed ``BENCH_mechanisms.json`` baseline.

Run::

    PYTHONPATH=src python benchmarks/bench_mechanisms.py          # full
    PYTHONPATH=src python benchmarks/bench_mechanisms.py --quick

Quick mode shortens the simulated duration and never overwrites the
committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.campaign.scenarios import CAMPAIGN_DURATION, mechanism_compare_cell

#: Benchmark order: the no-isolation baseline first so every later
#: mechanism's wall-clock overhead is measured against it.
MECHANISMS = ("none", "silo", "swp", "eyeq")

#: The contended workload shape (class-A incast over class-B bulk) --
#: the cell where mechanisms actually differ at the tail.
WORKLOAD = "fig12"


def run_cell(mechanism: str, duration: float, seed: int) -> dict:
    """One timed scenario cell; returns the result plus wall-clock."""
    t0 = time.perf_counter()
    result = mechanism_compare_cell(mechanism=mechanism,
                                    workload=WORKLOAD,
                                    duration=duration, seed=seed)
    result["wall_s"] = round(time.perf_counter() - t0, 4)
    return result


def bench(duration: float, seed: int) -> dict:
    results = {m: run_cell(m, duration, seed) for m in MECHANISMS}
    base_wall = results["none"]["wall_s"]
    for mechanism, cell in results.items():
        cell["overhead_vs_none"] = (round(cell["wall_s"] / base_wall, 3)
                                    if base_wall > 0 else None)
    return {
        "workload": WORKLOAD,
        "duration": duration,
        "seed": seed,
        "cpus": len(os.sched_getaffinity(0)),
        "bound_us": results["silo"]["bound_us"],
        "mechanisms": results,
    }


def check(report: dict) -> None:
    """The orderings the paper predicts, as hard assertions."""
    cells = report["mechanisms"]
    for mechanism, cell in cells.items():
        assert cell["messages"] > 0, (mechanism, cell)
    # Silo keeps its admission-time promise on the contended workload.
    assert cells["silo"]["guarantee_met"], cells["silo"]
    # Reactive control cannot beat admission-time pacing at the tail:
    # EyeQ's p99 is a floor for nothing, Silo's p99 must sit at or
    # below it.
    silo_p99 = cells["silo"]["latency_us"]["p99"]
    eyeq_p99 = cells["eyeq"]["latency_us"]["p99"]
    assert silo_p99 <= eyeq_p99, (silo_p99, eyeq_p99)
    # The mechanisms actually ran their machinery.
    assert cells["swp"]["counters"]["spec_packets_sent"] > 0
    assert cells["eyeq"]["counters"]["feedback_messages"] > 0


def report_rows(report: dict) -> None:
    print(f"workload {report['workload']}  duration "
          f"{report['duration'] * 1e3:.0f} ms  class-A bound "
          f"{report['bound_us']:.0f} us")
    for mechanism, cell in report["mechanisms"].items():
        tail = cell["latency_us"]
        verdict = "met" if cell["guarantee_met"] else "violated"
        print(f"{mechanism:6s} wall {cell['wall_s']:>7.2f}s "
              f"({cell['overhead_vs_none']:>5.2f}x none)  "
              f"p50 {tail['p50']:>8.1f}  p99 {tail['p99']:>9.1f}  "
              f"late {cell['late']:>4d}/{cell['messages']:<4d} "
              f"{verdict}")


def main(argv=None) -> None:
    """CLI entry point: full run writes the committed baseline."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short simulated duration; never "
                             "overwrites the committed baseline")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON report path (default: the committed "
                             "BENCH_mechanisms.json for a full run)")
    args = parser.parse_args(argv)
    duration = 0.02 if args.quick else CAMPAIGN_DURATION
    report = bench(duration, args.seed)
    check(report)
    report_rows(report)
    out = args.out
    if out is None and not args.quick:
        out = _REPO / "BENCH_mechanisms.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True)
                       + "\n")
        print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
