"""What-if estimator vs the packet simulator on a held-out seed.

The extension claim behind ``repro whatif`` (EXPERIMENTS.md "What-if
tail-latency estimator"): the committed surrogate
(``campaigns/whatif-error/model.json``: hop samples harvested from the
committed calibration trace beside it, no fitted correction) lands
within 15% of the simulated p99 of the scenario it was calibrated on --
at a seed no calibration or sweep cell ever used -- and answers at
least 100x faster than simulating it.  The speed-up is thousands-fold
in practice, so the floor is a claim about the method, not a timing of
this machine; wall-clock numbers proper are ``perf/``'s.

Expected shape: relative p99 error of a few percent, speed-up in the
thousands.
"""

import json
import time
from pathlib import Path

from repro import units
from repro.analysis import percentile
from repro.analysis.surrogate import WhatIfModel
from repro.campaign.scenarios import (GUARANTEE, TOPOLOGY,
                                      _class_a_placements, trace_cell)
from repro.core.tenant import reset_tenant_ids
from repro.obs.traces import find_trace_artifacts

from conftest import print_table

WHATIF = Path(__file__).resolve().parents[1] / "campaigns" / "whatif-error"

P99_ERROR_FLOOR = 0.15
SPEEDUP_FLOOR = 100.0

#: Disjoint from the calibration trace's seed (0), the whatif-error
#: sweep's seeds and every ``derive_seed(seed, "whatif-cal")`` of them.
HELD_OUT_SEED = 5


def test_whatif_estimator_error_and_speedup(tmp_path):
    manifest = json.loads(
        (WHATIF / "calibration" / "manifest.json").read_text())
    scenario = manifest["cells"][0]["params"]
    message_bytes = scenario["message_kb"] * units.KB
    model = WhatIfModel.load(WHATIF / "model.json")

    # Ground truth: the calibrated scenario, simulated at a new seed.
    reset_tenant_ids()
    t0 = time.perf_counter()
    trace_cell(seed=HELD_OUT_SEED, artifact_dir=str(tmp_path), **scenario)
    sim_wall = time.perf_counter() - t0
    observed = [record.latency
                for artifact in find_trace_artifacts(tmp_path)
                for record in artifact.latencies()
                if record.size == message_bytes]
    sim_p99 = percentile(observed, 99.0)

    # The same what-if through the surrogate, built the way the
    # whatif-error cells build it.  Admission replay stays outside the
    # timer: the query being priced is the estimate.
    reset_tenant_ids()
    topology = TOPOLOGY.build(scenario)
    guarantee = GUARANTEE.build(scenario)
    placements = _class_a_placements(topology, guarantee,
                                     scenario["class_a"], scenario["vms"])
    t0 = time.perf_counter()
    estimates = [model.estimate(topology, placement, message_bytes)
                 for placement in placements]
    est_wall = time.perf_counter() - t0
    est_p99 = sum(e.quantiles[99.0] for e in estimates) / len(estimates)

    rel_error = abs(est_p99 - sim_p99) / sim_p99
    speedup = sim_wall / est_wall
    print_table(
        f"What-if estimator, held-out seed {HELD_OUT_SEED} "
        f"({len(observed)} messages)",
        ["", "p99 (us)", "wall (s)"],
        [["packet sim", f"{units.to_usec(sim_p99):.1f}", f"{sim_wall:.2f}"],
         ["surrogate", f"{units.to_usec(est_p99):.1f}", f"{est_wall:.5f}"],
         ["rel. error / speed-up", f"{rel_error:.1%}", f"{speedup:.0f}x"]])

    assert len(observed) > 100 and len(placements) == scenario["class_a"]
    assert rel_error <= P99_ERROR_FLOOR
    assert speedup >= SPEEDUP_FLOOR
