"""Fig. 14: class-B message latency, normalized to the estimate.

Class-B tenants only need bandwidth; their (large) message latency is
transfer time at the achieved rate.  The paper plots the CDF of message
latency divided by the estimate from the hose guarantee: with Silo and
Oktopus every message lands at or under 1.0 (the reservation is exact);
with TCP/HULL many tenants beat the estimate (work conservation) but a
long tail does far worse -- predictability traded for peak throughput.
"""

from conftest import print_table


def collect(campaign):
    return {scheme: dict(result["class_b"]["latency_over_estimate"],
                         n=result["class_b"]["messages"])
            for scheme, result in campaign.items()}


def test_fig14_class_b_latency(fig12_campaign):
    table = collect(fig12_campaign)

    rows = []
    for scheme, ratios in table.items():
        rows.append([
            scheme, f"{ratios['n']}",
            f"{ratios['p50']:.2f}",
            f"{ratios['p95']:.2f}",
            f"{ratios['p99']:.2f}",
            f"{ratios['max']:.2f}",
        ])
    print_table(
        "Fig. 14: class-B message latency / estimated latency",
        ["scheme", "msgs", "median", "p95", "p99", "max"], rows)

    # Reservations make large-message latency predictable: every Silo
    # message finishes by (about) the estimate.
    assert table["silo"]["p99"] <= 1.1
    # Work-conserving TCP beats the estimate for many messages (median
    # below Silo's)...
    assert table["none"]["p50"] <= table["silo"]["p50"]
    # ...but its tail is worse than its own median by a larger factor
    # than Silo's (the predictability trade of Fig. 14).
    tcp_spread = table["none"]["p99"] / table["none"]["p50"]
    silo_spread = table["silo"]["p99"] / table["silo"]["p50"]
    assert tcp_spread > silo_spread
