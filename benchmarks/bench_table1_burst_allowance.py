"""Table 1: % messages later than their guarantee vs bandwidth and burst.

A synthetic application sends Poisson-arriving messages of size ``M``
between two VMs with average bandwidth requirement ``B``.  The guarantee
columns scale the *guaranteed* bandwidth from ``B`` to ``3B``; the rows
scale the burst allowance from ``M`` to ``9M``.  A message is late when
its latency exceeds the tenant-visible bound of section 4.1.

Message latency here is what the token-bucket hierarchy alone imposes
(transmission through the shaper + the delay guarantee), exactly the
coupling Table 1 isolates; network queueing is bounded separately by
placement.

Expected shape: ~99% late with (M, B); sharply decreasing along both
axes; ~0.1% late around burst 7M / bandwidth 1.8B (the paper's headline
cell); ~0 in the bottom-right corner.
"""

from repro.campaign import get_sweep, run_campaign
from repro.campaign.scenarios import (TABLE1_BANDWIDTH_MULTIPLIERS,
                                      TABLE1_BURST_MULTIPLIERS)

from conftest import print_table

#: The paper's grid, defined once in the registered ``table1`` sweep.
#: Per-cell seeds are spec-derived (``derive_cell_seeds=True``) -- the
#: spec replaces the ad-hoc ``hash(...)`` seeding this bench once used,
#: which depended on the interpreter's integer hashing.
BANDWIDTH_MULTIPLIERS = tuple(TABLE1_BANDWIDTH_MULTIPLIERS)
BURST_MULTIPLIERS = tuple(TABLE1_BURST_MULTIPLIERS)


def compute_table():
    campaign = run_campaign(get_sweep("table1"))
    rows = []
    for burst_mult in BURST_MULTIPLIERS:
        row = [f"{burst_mult}M"]
        for bw_mult in BANDWIDTH_MULTIPLIERS:
            fraction = campaign.get(burst_mult=burst_mult,
                                    bw_mult=bw_mult)["late_fraction"]
            row.append(f"{100 * fraction:.2f}")
        rows.append(row)
    return rows


def test_table1_burst_allowance():
    rows = compute_table()
    header = ["burst\\bw"] + [f"{m:g}B" for m in BANDWIDTH_MULTIPLIERS]
    print_table("Table 1: % messages later than their guarantee", header,
                rows)

    values = {(r, c): float(rows[r][c + 1])
              for r in range(len(BURST_MULTIPLIERS))
              for c in range(len(BANDWIDTH_MULTIPLIERS))}
    # Shape assertions, in the paper's terms:
    # (M, B) leaves almost every message late, and the whole first
    # column stays bad: bandwidth equal to the average demand cannot
    # absorb Poisson bursts no matter the allowance (paper: 98-99%).
    assert values[(0, 0)] > 80.0
    for r in range(len(BURST_MULTIPLIERS)):
        assert values[(r, 0)] > 50.0
    # With any bandwidth headroom, more burst monotonically helps.
    for c in range(1, len(BANDWIDTH_MULTIPLIERS)):
        for r in range(len(BURST_MULTIPLIERS) - 1):
            assert values[(r + 1, c)] <= values[(r, c)] + 2.0
    # More guaranteed bandwidth helps along every row.
    for r in range(len(BURST_MULTIPLIERS)):
        assert values[(r, 1)] <= values[(r, 0)] + 2.0
        assert values[(r, 5)] <= values[(r, 1)] + 2.0
    # Generous burst + headroom makes lateness rare (paper: 0.09% at
    # 7M / 1.8B).
    assert values[(3, 2)] < 2.0     # 7M, 1.8B
    assert values[(4, 5)] < 0.5     # 9M, 3B
