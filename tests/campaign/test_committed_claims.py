"""The extension claims EXPERIMENTS.md makes, checked on the committed data.

``campaigns/<name>/merged.json`` is the only committed result data and
CI regenerates it ``cmp``-identical (``campaigns/fig12`` in full, in the
``mechanism-smoke`` job; the larger campaigns as micro slices of the
same cells), so an ordering asserted here is an ordering of the code:
pure JSON reads, no simulation.  Each claim is a function of the cell
list so the last test can show it failing on a doctored copy.
"""

import json
from collections import defaultdict
from pathlib import Path
from statistics import median

import pytest

CAMPAIGNS = Path(__file__).resolve().parents[2] / "campaigns"

#: mechanism-compare workloads with class-B cross traffic; ``fig11`` has
#: none, so nothing there for pacing to win against (Silo 120 us vs
#: EyeQ 62 us: Silo's pacer delays an uncontended burst, EyeQ's does not).
CONTENDED = ("fig12", "fig13", "fig14")


def load_cells(name):
    return json.loads((CAMPAIGNS / name / "merged.json").read_text())["cells"]


def check_failure_recovery(cells):
    """Silo's recovered fraction, pooled over seeds, never rises with the
    failure rate, and Silo recovers at least as many tenants as Oktopus
    (same fill, same fault schedule) at every rate."""
    pooled = defaultdict(lambda: defaultdict(int))
    for cell in cells:
        point = pooled[cell["params"]["mtbf_ms"], cell["params"]["policy"]]
        point["affected"] += cell["result"]["affected"]
        point["recovered"] += cell["result"]["recovered"]
    by_rate = sorted({mtbf for mtbf, _ in pooled}, reverse=True)
    assert len(by_rate) >= 3
    fractions = [pooled[mtbf, "silo"]["recovered"]
                 / pooled[mtbf, "silo"]["affected"] for mtbf in by_rate]
    assert fractions == sorted(fractions, reverse=True), fractions
    for mtbf in by_rate:
        assert pooled[mtbf, "silo"]["affected"] > 0
        assert (pooled[mtbf, "silo"]["recovered"]
                >= pooled[mtbf, "oktopus"]["recovered"]), mtbf


def check_mechanism_ordering(cells):
    """Silo meets its bound on every workload and, wherever there is
    cross traffic, its p99 sits at or below reactive EyeQ's; SWP and
    EyeQ demonstrably ran their machinery."""
    result = {(cell["params"]["workload"], cell["params"]["mechanism"]):
              cell["result"] for cell in cells}
    workloads = {workload for workload, _ in result}
    assert workloads == {"fig11", *CONTENDED}
    for workload in workloads:
        assert result[workload, "silo"]["guarantee_met"], workload
        assert all(result[workload, mechanism]["messages"] > 0
                   for mechanism in ("silo", "swp", "eyeq")), workload
        assert result[workload, "swp"]["counters"].get(
            "spec_packets_sent", 0) > 0, workload
        assert result[workload, "eyeq"]["counters"].get(
            "feedback_messages", 0) > 0, workload
    for workload in CONTENDED:
        assert (result[workload, "silo"]["latency_us"]["p99"]
                <= result[workload, "eyeq"]["latency_us"]["p99"]), workload


def check_whatif_error(cells):
    """Median relative p99 error of the surrogate over the held-out grid
    is within the 15% acceptance floor (the maximum is not: the 25 KB
    cells are the documented limitation)."""
    errors = [cell["result"]["rel_error_p99"] for cell in cells]
    assert len(errors) == 12
    assert median(errors) <= 0.15, sorted(errors)


def check_fig12_is_the_section62_cell(cells):
    """The six paper schemes ran the one section 6.2 cell: the ``silo``
    cell equals the ``mechanism-compare`` (``fig12``, ``silo``) cell on
    every key that one has, and Silo's tail beats the TCP family's."""
    result = {cell["params"]["mechanism"]: cell["result"] for cell in cells}
    assert list(result) == ["silo", "none", "dctcp", "hull", "okto", "okto+"]
    shared = next(cell["result"] for cell in load_cells("mechanism-compare")
                  if cell["params"] == {"workload": "fig12",
                                        "mechanism": "silo",
                                        "duration": 0.08})
    assert {key: result["silo"][key] for key in shared} == shared
    assert result["silo"]["guarantee_met"]
    for baseline in ("none", "dctcp", "hull"):
        assert (result[baseline]["latency_us"]["p99"]
                >= 3 * result["silo"]["latency_us"]["p99"]), baseline


CLAIMS = {
    "fig12": check_fig12_is_the_section62_cell,
    "failure-recovery": check_failure_recovery,
    "mechanism-compare": check_mechanism_ordering,
    "whatif-error": check_whatif_error,
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_claim_holds_on_the_committed_campaign(name):
    CLAIMS[name](load_cells(name))


def swap(axis, a, b):
    """A doctoring that relabels the ``a`` cells as ``b`` and vice versa."""
    def doctor(cells):
        for cell in cells:
            value = cell["params"][axis]
            cell["params"][axis] = {a: b, b: a}.get(value, value)
    return doctor


def worsen_the_good_cells(cells):
    for cell in cells:
        if cell["result"]["rel_error_p99"] < 0.15:
            cell["result"]["rel_error_p99"] += 0.2


@pytest.mark.parametrize("name, doctor", [
    ("failure-recovery", swap("policy", "silo", "oktopus")),
    ("mechanism-compare", swap("mechanism", "silo", "eyeq")),
    ("whatif-error", worsen_the_good_cells),
    ("fig12", swap("mechanism", "silo", "hull")),
])
def test_claim_fails_on_doctored_data(name, doctor):
    cells = load_cells(name)
    doctor(cells)
    with pytest.raises(AssertionError):
        CLAIMS[name](cells)


def test_committed_campaigns_are_strict_json():
    """No committed file carries the ``NaN`` / ``Infinity`` tokens that
    only Python's parser accepts."""
    def refuse(token):
        raise ValueError(token)
    for path in sorted(CAMPAIGNS.rglob("*.json")):
        json.loads(path.read_text(), parse_constant=refuse)
