"""The heap-driven ClusterSim must reproduce the seed simulator.

:class:`~repro.flowsim.sim.ClusterSim` replaces the seed's rescan-every-
flow-every-event loop with an indexed min-heap of predicted finish times
and lazily-advanced fluids.  ``tests/oracles/seed_flowsim.py``
(``ReferenceClusterSim``) preserves the seed loop verbatim; running both over
identical workloads must yield the same :class:`ClusterStats` --
``finished_jobs`` exactly, ``carried_bytes``/``job_durations``/
``occupancy_integral`` to 1e-6 relative.
"""

import math

import pytest

from repro import units
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.placement import SiloPlacementManager
from repro.topology import TreeTopology

from seed_flowsim import ReferenceClusterSim


def _run(sim_cls, sharing, seed, arrival_rate=25.0, until=6.0):
    topology = TreeTopology(n_pods=1, racks_per_pod=4, servers_per_rack=10,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=2.0)
    sim = sim_cls(SiloPlacementManager(topology), sharing=sharing)
    workload = TenantWorkload(WorkloadConfig(mean_compute_time=4.0),
                              arrival_rate=arrival_rate, seed=seed)
    return sim.run(workload, until)


def _assert_equal(new, ref):
    assert new.finished_jobs == ref.finished_jobs
    assert new.carried_bytes == pytest.approx(ref.carried_bytes,
                                              rel=1e-6, abs=1e-3)
    assert new.occupancy_integral == pytest.approx(ref.occupancy_integral,
                                                   rel=1e-6, abs=1e-9)
    assert new.elapsed == pytest.approx(ref.elapsed, rel=1e-9, abs=1e-9)
    assert len(new.job_durations) == len(ref.job_durations)
    for a, b in zip(new.job_durations, ref.job_durations):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)
    # Tenant ids auto-increment globally, so the two runs' keys differ;
    # the per-tenant duration multisets must still match.
    for a, b in zip(sorted(new.durations_by_tenant.values()),
                    sorted(ref.durations_by_tenant.values())):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reserved_sharing_matches_reference(seed):
    _assert_equal(_run(ClusterSim, "reserved", seed),
                  _run(ReferenceClusterSim, "reserved", seed))


@pytest.mark.parametrize("seed", [1, 2])
def test_maxmin_sharing_matches_reference(seed, monkeypatch):
    # Count the rate changes each recompute applies, so the comparison
    # provably covers bulk re-rates and not only few-flow ones.
    applied = []
    apply_rates = ClusterSim._apply_rates

    def counting(self, changed, now):
        before = self.rate_update_count
        apply_rates(self, changed, now)
        applied.append(self.rate_update_count - before)

    monkeypatch.setattr(ClusterSim, "_apply_rates", counting)
    new = _run(ClusterSim, "maxmin", seed)
    assert max(applied) >= 16
    _assert_equal(new, _run(ReferenceClusterSim, "maxmin", seed))


def test_reference_finishes_work():
    """Guard the oracle itself: the workload actually exercises it."""
    stats = _run(ReferenceClusterSim, "reserved", seed=1)
    assert stats.finished_jobs > 0
    assert stats.carried_bytes > 0
    assert not math.isnan(stats.occupancy_integral)
