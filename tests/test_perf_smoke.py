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


def test_place_reads_free_slots_independent_of_cluster_size():
    """A ``place`` that fails server scope must not walk the cluster.

    8 000 servers at ~0.6 occupancy (slots-only placeholders, adopted
    without a search), then one 5-VM tenant: no 4-slot server can hold
    it, so the server scope fails and the first rack with room takes it.
    The scanning search read ``free_slots`` once per server of every rack
    with 5 free slots on the way (thousands); the indexed one reads only
    inside the rack it fills.  A count, so it holds on any machine.
    """
    import random

    from repro import units
    from repro.core.guarantees import NetworkGuarantee
    from repro.core.tenant import TenantClass, TenantRequest
    from repro.placement import SiloPlacementManager
    from repro.topology import TreeTopology

    class CountingList(list):
        reads = 0

        def __getitem__(self, item):
            self.reads += 1  # a slice is one C-level read of the range
            return super().__getitem__(item)

        def __iter__(self):
            self.reads += len(self)
            return super().__iter__()

    topology = TreeTopology(n_pods=16, racks_per_pod=50, servers_per_rack=10,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
    manager = SiloPlacementManager(topology)
    rng = random.Random(16)
    for server in range(topology.n_servers):
        used = rng.choice([0, 2, 3, 3, 4])  # mean 2.4 of 4 slots
        if used:
            manager.adopt(TenantRequest(n_vms=used, guarantee=None,
                                        tenant_class=TenantClass.BEST_EFFORT),
                          {server: used})
    assert 0.55 < manager.occupancy < 0.65
    manager.free_slots = CountingList(manager.free_slots)
    request = TenantRequest(
        n_vms=topology.slots_per_server + 1,
        guarantee=NetworkGuarantee(bandwidth=units.mbps(50),
                                   burst=1.5 * units.KB),
        tenant_class=TenantClass.CLASS_B)
    placement = manager.place(request)
    assert placement is not None and len(set(placement.vm_servers)) > 1
    assert manager.free_slots.reads <= 4 * topology.servers_per_rack
