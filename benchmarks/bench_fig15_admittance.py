"""Fig. 15: admitted requests at moderate and high offered load.

A Poisson tenant stream (half class-A all-to-one, half class-B
permutation) offered identically to three placement policies at two load
levels (calibrated so the reserved policies sit near ~75% and ~90% mean
occupancy, the paper's operating points).

Reproduced claims:

* at moderate load every policy admits the large majority of tenants,
  and Silo's full (bandwidth + delay + burst) admission control costs
  only a few percent versus bandwidth-only Oktopus (the paper's "4%
  fewer accepted tenants");
* Silo rejects class-A at least as hard as class-B (delay is the scarce
  constraint);
* at high load everyone's admittance drops, and Silo stays within a few
  percent of Oktopus.

Documented deviation (see EXPERIMENTS.md): the paper additionally finds
locality-based placement admitting *less* than Silo at 90% occupancy,
an emergent effect of outlier tenants at 32K-server scale; at this
reproduction's 320-server scale, locality's work-conserving jobs finish
faster than reserved-rate jobs, so its measured occupancy -- and hence
rejection rate -- stays lower.  We report locality for comparison but do
not assert the paper's direction.
"""

from repro.campaign import get_sweep, run_campaign
from repro.campaign.scenarios import POLICY_MANAGERS

from conftest import print_table

#: The grid (loads, policies, horizon, seed) is the registered ``fig15``
#: sweep -- one definition shared with ``python -m repro campaign``.
LOADS = ("moderate", "high")
POLICIES = tuple(POLICY_MANAGERS)


def compute():
    campaign = run_campaign(get_sweep("fig15"))
    return {(load, name): campaign.get(load=load, policy=name)
            for load in LOADS for name in POLICIES}


def test_fig15_admittance():
    results = compute()

    rows = []
    for load_label in LOADS:
        for name in POLICIES:
            r = results[(load_label, name)]
            rows.append([
                load_label, name,
                f"{r['total']:.1%}", f"{r['class_a']:.1%}",
                f"{r['class_b']:.1%}", f"{r['occupancy']:.1%}",
            ])
    print_table("Fig. 15: admitted requests by policy and load",
                ["load", "policy", "total", "class-A", "class-B",
                 "mean occupancy"], rows)

    low = {name: results[("moderate", name)] for name in POLICIES}
    high = {name: results[("high", name)] for name in POLICIES}
    # Moderate load: the large majority is admitted by every policy.
    assert low["locality"]["total"] > 0.95
    assert low["oktopus"]["total"] > 0.8
    assert low["silo"]["total"] > 0.8
    # Silo's extra constraints cost at most a few percent vs Oktopus
    # (the paper's "4% fewer accepted tenants" figure).
    assert low["silo"]["total"] >= low["oktopus"]["total"] - 0.06
    assert high["silo"]["total"] >= high["oktopus"]["total"] - 0.06
    # Silo rejects class-A at least as hard as class-B: delay is the
    # scarce resource (its placements are confined in the hierarchy).
    assert low["silo"]["class_a"] <= low["silo"]["class_b"] + 0.03
    # High load bites everyone.
    for name in POLICIES:
        assert high[name]["total"] < low[name]["total"]
