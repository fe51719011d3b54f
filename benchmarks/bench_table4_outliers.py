"""Table 4: outlier tenants -- 99th-percentile latency vs the estimate.

A class-A tenant is an outlier when its 99th-percentile message latency
exceeds the latency estimate it computed from its guarantees; the paper
buckets outliers at 1x, 2x and 8x the estimate.  Silo must produce no
outliers at all; DCTCP/HULL leave a sizeable share of tenants even 8x
over.
"""

from conftest import print_table


def collect(campaign):
    """Per scheme, each class-A tenant's p99 / estimate; ``None`` when
    the 99th percentile is a message that never finished."""
    return {scheme: [tenant["p99_over_estimate"]
                     for tenant in result["class_a"]]
            for scheme, result in campaign.items()}


def test_table4_outlier_tenants(fig12_campaign):
    table = collect(fig12_campaign)

    rows = []
    shares = {}
    for scheme, ratios in table.items():
        n = len(ratios)
        # An unfinished p99 exceeds every multiple of the estimate.
        over = {k: 100 * sum(1 for r in ratios if r is None or r > k) / n
                for k in (1, 2, 8)}
        shares[scheme] = over
        rows.append([scheme] + [f"{over[k]:.0f}%" for k in (1, 2, 8)])
    print_table(
        "Table 4: % class-A tenants whose p99 latency exceeds the "
        "estimate by 1x / 2x / 8x",
        ["scheme", ">1x", ">2x", ">8x"], rows)

    # Silo: no outliers whatsoever (the paper's row of zeros).
    assert shares["silo"][1] == 0.0
    # The contended baselines all have 1x outliers.
    for scheme in ("none", "dctcp", "hull", "okto"):
        assert shares[scheme][1] > 0.0, scheme
