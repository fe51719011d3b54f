"""Shared infrastructure of the paper-claims suite.

Every file here regenerates one table or figure of the paper (or one
extension claim) and asserts its *shape*; they are ordinary, slow pytest
tests (``pytest benchmarks``) with no timing harness -- wall-clock
numbers are ``perf/``'s job.  The heavyweight packet-level campaign
behind Figs. 12-14 and Table 4 runs once per session and is shared
through the ``fig12_campaign`` fixture.

The campaign itself -- workload constants, per-scheme cell function and
the seed -- lives in :mod:`repro.campaign.scenarios` as the registered
``fig12`` sweep, so the fixture, ``python -m repro campaign`` and any
future sweep all run the exact same definition.  The fixture runs it
in-process (``workers=0``): cells return live ``MetricsCollector``
objects, which are not JSON-checkpointable.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.campaign import get_sweep, run_campaign
# Re-exported for the Fig. 12-14 and Table 4 files.
from repro.campaign.scenarios import CAMPAIGN_SCHEMES  # noqa: F401


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
    """All six schemes' results by scheme name, computed once per session.

    The grid and seed come from the registered ``fig12`` sweep spec --
    there is no benchmark-private seeding.
    """
    result = run_campaign(get_sweep("fig12"))
    return {dict(record.cell.params)["scheme"]: record.result
            for record in result.records}
