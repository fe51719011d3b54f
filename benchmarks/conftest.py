"""Shared infrastructure of the paper-claims suite.

Every file here regenerates one table or figure of the paper (or one
extension claim) and asserts its *shape*; they are ordinary, slow pytest
tests (``pytest benchmarks``) with no timing harness -- wall-clock
numbers are ``perf/``'s job.  Figs. 12-14 and Table 4 are four views of
the ``fig12`` workload of the section 6.2 packet campaign, which they do
not re-simulate: the ``fig12_campaign`` fixture reads those cells from
the committed ``campaigns/mechanism-compare/merged.json`` (CI's
``mechanism-smoke`` job regenerates it ``cmp``-identical from the
registered ``mechanism-compare`` sweep).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

SECTION62 = (Path(__file__).resolve().parents[1] / "campaigns"
             / "mechanism-compare")


def print_table(title: str, header: List[str],
                rows: List[List[str]]) -> None:
    """Print one figure/table in the aligned format the benches share."""
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    print(f"\n=== {title} ===")
    line = "  ".join(str(h).rjust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def fig12_campaign():
    """The committed ``fig12``-workload cells' results by mechanism name:
    the paper's six schemes in its order (``none`` is the TCP baseline),
    then SWP and EyeQ."""
    cells = json.loads((SECTION62 / "merged.json").read_text())["cells"]
    return {cell["params"]["mechanism"]: cell["result"] for cell in cells
            if cell["params"]["workload"] == "fig12"}
