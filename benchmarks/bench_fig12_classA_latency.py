"""Fig. 12: class-A message latency under the paper's six schemes.

The section 6.2 workload: class-A tenants (all-to-one 15 KB messages,
bandwidth + delay + burst guarantees) sharing an oversubscribed tree with
class-B tenants (all-to-all bulk).  Schemes: Silo, TCP, DCTCP, HULL,
Oktopus (bandwidth-only placement + rate limits, no bursting) and Okto+
(Oktopus placement with burst allowance).  ``none`` is the TCP baseline.
SWP and EyeQ ran the same cell and are printed beside them.

Expected shape: Silo's 99th percentile is an order of magnitude below
DCTCP/HULL/TCP; Oktopus is worst at the median (no bursting); Okto+
fixes the median but keeps a bad tail (bursts its placement did not
budget for).
"""

from conftest import print_table


def collect(campaign):
    table = {}
    for scheme, result in campaign.items():
        table[scheme] = {
            "median": result["latency_us"]["p50"],
            "p90": result["latency_us"]["p90"],
            "p99": result["latency_us"]["p99"],
            "n": result["messages"] - result["incomplete"],
            "drops": result["port"]["drops"],
        }
    return table


def test_fig12_class_a_latency(fig12_campaign):
    table = collect(fig12_campaign)

    rows = []
    for scheme, stats in table.items():
        rows.append([
            scheme, f"{stats['n']}",
            f"{stats['median'] / 1e3:.3f}",
            f"{stats['p90'] / 1e3:.3f}",
            f"{stats['p99'] / 1e3:.3f}",
            f"{stats['drops']}",
        ])
    print_table("Fig. 12: class-A message latency (ms)",
                ["scheme", "msgs", "median", "p90", "p99", "drops"],
                rows)

    silo = table["silo"]
    # Silo's tail beats every contended baseline by a wide margin.
    for scheme in ("none", "dctcp", "hull"):
        assert table[scheme]["p99"] >= 3 * silo["p99"], scheme
    # Oktopus (no bursting) is the worst of the paper's six schemes at
    # the median.
    assert table["okto"]["median"] >= 2 * silo["median"]
    assert table["okto"]["median"] == max(
        table[s]["median"]
        for s in ("silo", "none", "dctcp", "hull", "okto", "okto+"))
    # Okto+ recovers the median but not the tail.
    assert table["okto+"]["median"] <= 0.5 * table["okto"]["median"]
    # Silo suffers no switch loss at all.
    assert silo["drops"] == 0
