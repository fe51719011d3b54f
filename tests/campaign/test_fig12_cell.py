"""The ``fig12`` cell is the section 6.2 run plus a per-tenant block."""

import json

import pytest

from repro.campaign.scenarios import fig12_cell, mechanism_compare_cell
from repro.core.tenant import reset_tenant_ids

DURATION = 0.002


@pytest.mark.parametrize("mechanism", ["silo", "none"])
def test_fig12_cell_extends_the_mechanism_compare_cell(mechanism):
    reset_tenant_ids()
    shared = mechanism_compare_cell(mechanism, "fig12", DURATION, seed=1234)
    reset_tenant_ids()
    cell = fig12_cell(mechanism, DURATION, seed=1234)
    assert set(cell) - set(shared) == {"class_a", "class_b"}
    for key, value in shared.items():
        assert cell[key] == value, key
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
