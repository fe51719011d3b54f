"""The extension claims EXPERIMENTS.md makes, checked on the committed data.

``campaigns/<name>/merged.json`` is the only committed result data and
CI regenerates it ``cmp``-identical (every campaign read here in full,
in the ``mechanism-smoke`` and ``campaign-smoke`` jobs), so an ordering
asserted here is an ordering of the code: pure JSON reads, no
simulation.  Each claim is a function of the cell
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


#: The section 6.2 grid's mechanism axis: the paper's six schemes
#: (``none`` is the TCP baseline), then SWP and EyeQ.
MECHANISMS = ("silo", "none", "dctcp", "hull", "okto", "okto+", "swp",
              "eyeq")


def check_mechanism_ordering(cells):
    """The section 6.2 campaign is the full 4 workloads x 8 mechanisms
    grid.  Silo meets its bound on every workload and, wherever there
    is cross traffic, its p99 sits at or below reactive EyeQ's and at
    most a third of the TCP family's (TCP, DCTCP, HULL); SWP and EyeQ
    demonstrably ran their machinery."""
    result = {(cell["params"]["workload"], cell["params"]["mechanism"]):
              cell["result"] for cell in cells}
    assert len(cells) == len(result) == 4 * len(MECHANISMS)
    workloads = {workload for workload, _ in result}
    assert workloads == {"fig11", *CONTENDED}
    assert set(result) == {(workload, mechanism) for workload in workloads
                           for mechanism in MECHANISMS}
    for workload in workloads:
        assert result[workload, "silo"]["guarantee_met"], workload
        assert all(result[workload, mechanism]["messages"] > 0
                   for mechanism in MECHANISMS), workload
        assert result[workload, "swp"]["counters"].get(
            "spec_packets_sent", 0) > 0, workload
        assert result[workload, "eyeq"]["counters"].get(
            "feedback_messages", 0) > 0, workload
    for workload in CONTENDED:
        silo = result[workload, "silo"]["latency_us"]["p99"]
        assert silo <= result[workload, "eyeq"]["latency_us"]["p99"], workload
        for baseline in ("none", "dctcp", "hull"):
            assert (result[workload, baseline]["latency_us"]["p99"]
                    >= 3 * silo), (workload, baseline)


def check_whatif_error(cells):
    """The surrogate's relative p99 error over the held-out grid: every
    15 KB cell (660 Mbps offered into a 1 Gbps receiver hose) is within
    the 15% acceptance floor, and so are the median and at least 10 of
    the 12 cells.  The 25 KB cells offer 1.1 Gbps, over the hose, where
    Silo promises nothing; two of them are the documented miss."""
    errors = [cell["result"]["rel_error_p99"] for cell in cells]
    assert len(errors) == 12
    assert median(errors) <= 0.15, sorted(errors)
    within_hose = [cell["result"]["rel_error_p99"] for cell in cells
                   if cell["params"]["message_kb"] == 15.0]
    assert len(within_hose) == 6
    assert max(within_hose) <= 0.15, sorted(within_hose)
    assert sum(error <= 0.15 for error in errors) >= 10, sorted(errors)


CLAIMS = {
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
