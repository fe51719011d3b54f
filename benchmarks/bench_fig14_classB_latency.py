"""Fig. 14: class-B message latency, normalized to the estimate.

Class-B tenants only need bandwidth; their (large) message latency is
transfer time at the achieved rate.  The paper plots the CDF of message
latency divided by the estimate from the hose guarantee: with Silo and
Oktopus every message lands at or under 1.0 (the reservation is exact);
with TCP/HULL many tenants beat the estimate (work conservation) but a
long tail does far worse -- predictability traded for peak throughput.
"""

from repro.analysis import percentile

from conftest import CAMPAIGN_SCHEMES, print_table


def collect(campaign):
    table = {}
    for scheme in CAMPAIGN_SCHEMES:
        result = campaign[scheme]
        ratios = []
        for tenant in result.class_b_tenants:
            estimate = result.class_b_estimates[tenant]
            ratios.extend(lat / estimate
                          for lat in result.metrics.latencies(tenant))
        table[scheme] = sorted(ratios)
    return table


def test_fig14_class_b_latency(fig12_campaign):
    table = collect(fig12_campaign)

    rows = []
    for scheme in CAMPAIGN_SCHEMES:
        ratios = table[scheme]
        rows.append([
            scheme, f"{len(ratios)}",
            f"{percentile(ratios, 50):.2f}",
            f"{percentile(ratios, 95):.2f}",
            f"{percentile(ratios, 99):.2f}",
            f"{max(ratios):.2f}",
        ])
    print_table(
        "Fig. 14: class-B message latency / estimated latency",
        ["scheme", "msgs", "median", "p95", "p99", "max"], rows)

    # Reservations make large-message latency predictable: every Silo
    # message finishes by (about) the estimate.
    assert percentile(table["silo"], 99) <= 1.1
    # Work-conserving TCP beats the estimate for many messages (median
    # below Silo's)...
    assert percentile(table["tcp"], 50) <= percentile(table["silo"], 50)
    # ...but its tail is worse than its own median by a larger factor
    # than Silo's (the predictability trade of Fig. 14).
    tcp_spread = percentile(table["tcp"], 99) / percentile(table["tcp"], 50)
    silo_spread = (percentile(table["silo"], 99)
                   / percentile(table["silo"], 50))
    assert tcp_spread > silo_spread
