"""Fig. 13: fraction of class-A tenants whose messages suffer RTOs.

The paper plots, per scheme, a CDF over class-A tenants of the share of
their messages that hit at least one retransmission timeout.  With TCP
~21% of tenants have more than 1% of messages timing out; HULL ~14%;
Silo none at all (admitted bursts fit every buffer, so nothing is ever
dropped).
"""

from conftest import print_table


def collect(campaign):
    return {scheme: [tenant["rto_fraction"] for tenant in result["class_a"]]
            for scheme, result in campaign.items()}


def test_fig13_rto_cdf(fig12_campaign):
    table = collect(fig12_campaign)

    rows = []
    for scheme, fractions in table.items():
        worst = max(fractions)
        over_1pct = sum(1 for f in fractions if f > 0.01)
        rows.append([
            scheme,
            f"{100 * worst:.2f}%",
            f"{over_1pct}/{len(fractions)}",
        ])
    print_table(
        "Fig. 13: class-A tenants with messages hitting RTOs",
        ["scheme", "worst tenant's RTO msg share",
         "tenants with >1% RTO msgs"], rows)

    # Silo: zero RTOs for every tenant.
    assert all(f == 0.0 for f in table["silo"])
    # The unmanaged baselines each leave some tenant suffering timeouts.
    assert any(f > 0.0 for f in table["none"])
