"""Fig. 5: why bandwidth-aware placement is insufficient.

The paper's example: three servers behind a 10 Gbps switch with 300 KB
per-port buffers; a tenant wants nine VMs with 1 Gbps bandwidth, 100 KB
burst allowance, 1 ms delay and a 10 Gbps burst rate.  A bandwidth-aware
placement (4 + 4 + 1) lets eight VMs converge 800 KB on the ninth's port
-- 400 KB of queuing, overflowing the buffer -- while the balanced
3 + 3 + 3 placement needs only 300 KB.

This bench reproduces the paper's own burst arithmetic for both
placements and checks the overflow verdicts.
"""

import pytest

from repro import units
from repro.analysis.burst import burst_convergence, worst_port_backlog
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import OktopusPlacementManager
from repro.topology import TreeTopology

from conftest import print_table

BUFFER = 300 * units.KB


def fig5_topology():
    return TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=3,
                        slots_per_server=4, link_rate=units.gbps(10),
                        buffer_bytes=BUFFER)


FIG5_GUARANTEE = NetworkGuarantee(bandwidth=units.gbps(1),
                                  burst=100 * units.KB,
                                  delay=units.msec(1),
                                  peak_rate=units.gbps(10))


def compute():
    topo = fig5_topology()
    # (a) What a bandwidth-aware manager actually produces.
    okto = OktopusPlacementManager(fig5_topology())
    request = TenantRequest(n_vms=9, guarantee=FIG5_GUARANTEE,
                            tenant_class=TenantClass.CLASS_A)
    placement = okto.place(request)
    bandwidth_aware = placement.vms_per_server()
    # (b) The balanced placement Silo's example shows.
    balanced = {0: 3, 1: 3, 2: 3}

    rows = []
    verdicts = {}
    for label, assignment in [("bandwidth-aware", bandwidth_aware),
                              ("silo (balanced)", balanced)]:
        backlog, worst = worst_port_backlog(topo, assignment,
                                            FIG5_GUARANTEE)
        overflow = backlog > BUFFER
        verdicts[label] = (backlog, overflow)
        split = "+".join(str(c) for c in sorted(assignment.values(),
                                                reverse=True))
        rows.append([label, split,
                     f"{worst.burst_bytes / 1e3:.0f}KB",
                     f"{units.to_gbps(worst.arrival_rate):.0f}Gbps",
                     f"{backlog / 1e3:.0f}KB",
                     "OVERFLOW" if overflow else "fits"])
    return rows, verdicts


def test_fig05_placement_example():
    rows, verdicts = compute()
    print_table(
        "Fig. 5: worst-case burst convergence (300 KB port buffers)",
        ["placement", "split", "burst", "arrives at", "queued",
         "verdict"], rows)

    ba_backlog, ba_overflow = verdicts["bandwidth-aware"]
    silo_backlog, silo_overflow = verdicts["silo (balanced)"]
    # The paper's numbers: 400 KB vs 300 KB.
    assert ba_backlog == pytest.approx(400 * units.KB, rel=0.01)
    assert silo_backlog == pytest.approx(300 * units.KB, rel=0.01)
    assert ba_overflow
    assert not silo_overflow
