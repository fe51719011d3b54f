"""Parallel, resumable sweep campaigns.

This package turns the repo's reproduction sweeps into declarative
campaigns: a :class:`SweepSpec` describes a grid of parameters and
seeds for a registered scenario function, :func:`run_campaign` fans it
across worker processes with per-cell checkpoints, and the commit-order
merge makes an N-worker run byte-identical to the serial one.  See
``docs/CAMPAIGNS.md`` for the tutorial.
"""

from repro.campaign.merge import (bucket_rows, merge_bucket_rows,
                                  pool_values, pooled_stats, sum_counters)
from repro.campaign.params import ParamError
from repro.campaign.registry import (check_cell, declaration, get_scenario,
                                     get_sweep, list_sweeps, scenario, sweep)
from repro.campaign.runner import (CampaignResult, CellRecord, CellTimeout,
                                   run_campaign)
from repro.campaign.spec import Cell, SweepSpec, derive_seed

__all__ = [
    "Cell", "SweepSpec", "derive_seed",
    "scenario", "sweep", "get_scenario", "get_sweep", "list_sweeps",
    "declaration", "check_cell", "ParamError",
    "run_campaign", "CampaignResult", "CellRecord", "CellTimeout",
    "sum_counters", "pool_values", "pooled_stats",
    "bucket_rows", "merge_bucket_rows",
]
