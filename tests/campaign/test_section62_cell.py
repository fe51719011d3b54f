"""Every section 6.2 cell carries the per-tenant block Figs. 13/14 and
Table 4 read, whatever its workload."""

import json

import pytest

from repro.campaign.scenarios import (CLASS_B_GUARANTEE, MECHANISM_WORKLOADS,
                                      VMS_PER_TENANT_B,
                                      mechanism_compare_cell)
from repro.core.tenant import reset_tenant_ids

DURATION = 0.002


@pytest.mark.parametrize("mechanism", ["silo", "none"])
@pytest.mark.parametrize("workload", list(MECHANISM_WORKLOADS))
def test_per_tenant_block_adds_up(workload, mechanism):
    reset_tenant_ids()
    cell = mechanism_compare_cell(mechanism, workload, DURATION, seed=1234)
    # Strict JSON: an unfinished p99 is a null, never an infinity.
    json.dumps(cell, allow_nan=False)
    assert (sum(tenant["messages"] for tenant in cell["class_a"])
            == cell["messages"])
    assert (sum(tenant["incomplete"] for tenant in cell["class_a"])
            == cell["incomplete"])
    for tenant in cell["class_a"]:
        if tenant["p99_over_estimate"] is not None:
            assert tenant["p99_over_estimate"] == pytest.approx(
                tenant["p99_us"] / cell["bound_us"])
    # The hose estimate of the workload's own chunk: one of the N_B - 1
    # peers' equal shares of the class-B hose.
    shape = MECHANISM_WORKLOADS[workload]
    assert cell["class_b"]["estimate_us"] == pytest.approx(
        shape["chunk"] / (CLASS_B_GUARANTEE.bandwidth
                          / (VMS_PER_TENANT_B - 1)) * 1e6)
    if not shape["bulk"]:
        assert cell["class_b"] == {
            "estimate_us": cell["class_b"]["estimate_us"],
            "messages": 0, "latency_over_estimate": {}}
        assert cell["class_b_goodput_mbps"] == 0.0
