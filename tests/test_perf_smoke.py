"""Tier-1 smoke checks for the optimized hot paths (marker: perf_smoke).

Reuses the quick scales of ``benchmarks/bench_hotpaths.py`` but asserts
only correctness -- every shipped path must reproduce its seed oracle
under ``tests/oracles/`` -- never wall-clock time, so tier-1 catches perf-path
breakage without timing flakiness.  The timed variant is::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_hotpaths  # noqa: E402  (needs the benchmarks/ dir on sys.path)

pytestmark = pytest.mark.perf_smoke


def test_placement_fast_path_matches_reference():
    result = bench_hotpaths.bench_placement(quick=True)
    assert all(row["decisions_identical"] for row in result["scales"])


def test_flowsim_heap_matches_reference():
    result = bench_hotpaths.bench_flowsim(quick=True)
    assert all(row["stats_identical"] for row in result["scales"])


def test_maxmin_water_level_matches_reference():
    result = bench_hotpaths.bench_maxmin(quick=True)
    assert all(row["worst_rel_diff"] <= bench_hotpaths.TOLERANCE
               for row in result["scales"])


def test_shaper_probes_per_stamp_floor(monkeypatch):
    """The pacer's wasted-work ratio on the headline cell, as a count.

    ``would_stamp`` probes per ``stamp`` debit on a 5 ms fig12 Silo cell:
    the rescanning shaper needed ~36, the incremental one ~6 (the repo
    benchmark reports it as ``pacer.token_bucket.probes_per_stamp``).
    Counts repeat exactly for a seed, so this guards the gain on any
    machine without a timing assertion.
    """
    from repro.campaign.scenarios import mechanism_compare_cell
    from repro.pacer.token_bucket import TokenBucket

    calls = {"would_stamp": 0, "stamp": 0}

    def counted(name):
        method = getattr(TokenBucket, name)

        def wrapper(self, size, now):
            calls[name] += 1
            return method(self, size, now)
        return wrapper

    for name in calls:
        monkeypatch.setattr(TokenBucket, name, counted(name))
    mechanism_compare_cell(mechanism="silo", workload="fig12",
                           duration=0.005)
    assert calls["stamp"] > 10_000
    assert calls["would_stamp"] <= 8 * calls["stamp"]
