"""Fig. 16: network utilization vs offered load and traffic density.

(a) Average network utilization as the offered load sweeps from light to
    heavy: utilization tracks load for every policy, and Silo's full
    admission control costs at most a modest utilization discount versus
    bandwidth-only Oktopus (the paper's 9-11%).

(b) Utilization at high load as class-B traffic density sweeps
    Permutation-x: denser matrices raise reserved-policy utilization
    several-fold, and Silo's discount versus Oktopus stays modest at
    every density.

Documented deviation (see EXPERIMENTS.md): absolute utilization of the
work-conserving locality/TCP baseline exceeds the reserved policies at
this 320-server scale, whereas the paper's 32K-server runs show Silo
matching or beating it; the *trends* asserted below are the paper's.
"""

from repro.campaign import get_sweep, run_campaign
from repro.campaign.scenarios import (FIG16_BOOSTS, FIG16_PERMUTATIONS,
                                      POLICY_MANAGERS)

from conftest import print_table

#: The grid (loads, densities, policies, horizon, seed) is the
#: registered ``fig16`` sweep; (a) and (b) are slices of its product.
POLICIES = tuple(POLICY_MANAGERS)
BOOSTS = tuple(FIG16_BOOSTS)
PERMUTATIONS = tuple(x for x in FIG16_PERMUTATIONS if x != 3.0)


def compute():
    campaign = run_campaign(get_sweep("fig16"))

    def cell(boost, permutation_x, name):
        r = campaign.get(boost=boost, permutation_x=permutation_x,
                         policy=name)
        return r["utilization"], r["occupancy"]

    sweep_a = {(boost, name): cell(boost, 3.0, name)
               for boost in BOOSTS for name in POLICIES}
    sweep_b = {(x, name): cell(4.0, x, name)
               for x in PERMUTATIONS for name in POLICIES}
    return sweep_a, sweep_b


def test_fig16_utilization():
    sweep_a, sweep_b = compute()

    rows = [[f"{boost:g}x"]
            + [f"{sweep_a[(boost, name)][0]:.2%}"
               for name in POLICIES]
            + [f"{sweep_a[(boost, 'silo')][1]:.0%}"]
            for boost in BOOSTS]
    print_table("Fig. 16a: network utilization vs offered load",
                ["load"] + [name for name in POLICIES]
                + ["silo occupancy"], rows)

    rows = [[f"{x:g}"]
            + [f"{sweep_b[(x, name)][0]:.2%}" for name in POLICIES]
            for x in PERMUTATIONS]
    print_table("Fig. 16b: utilization vs Permutation-x (high load)",
                ["x"] + [name for name in POLICIES], rows)

    # (a) Utilization grows with offered load for every policy.
    for name in POLICIES:
        series = [sweep_a[(boost, name)][0] for boost in BOOSTS]
        assert series[-1] > series[0]
    # Silo's utilization price versus Oktopus stays modest at high load
    # (the paper: 9-11% lower at high occupancy).
    silo_hi = sweep_a[(BOOSTS[-1], "silo")][0]
    okto_hi = sweep_a[(BOOSTS[-1], "oktopus")][0]
    assert silo_hi >= 0.7 * okto_hi
    # (b) Denser matrices raise every policy's utilization strongly
    # (Silo ~5x from Permutation-0.5 to Permutation-4)...
    for name in POLICIES:
        series = [sweep_b[(x, name)][0] for x in PERMUTATIONS]
        assert series[-1] > 3 * series[0], name
    # ...and Silo's discount versus Oktopus stays modest at every
    # density -- for sparse patterns the two are indistinguishable (the
    # paper's ~4% sparse-pattern cost is against the TCP baseline, whose
    # absolute utilization our fluid model overstates; see
    # EXPERIMENTS.md deviations).
    for x in PERMUTATIONS:
        assert sweep_b[(x, "silo")][0] >= 0.75 * sweep_b[(x,
                                                          "oktopus")][0]
