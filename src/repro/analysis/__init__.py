"""Statistics and report helpers shared by tests and benchmarks."""

from repro.analysis.stats import (
    percentile,
    cdf_points,
    mean,
    summarize,
)
from repro.analysis.surrogate import (
    REPORT_QUANTILES,
    HopSamples,
    WhatIfEstimate,
    WhatIfModel,
    fit_whatif_model,
    quantile_label,
)

__all__ = [
    "percentile",
    "cdf_points",
    "mean",
    "summarize",
    "REPORT_QUANTILES",
    "HopSamples",
    "WhatIfEstimate",
    "WhatIfModel",
    "fit_whatif_model",
    "quantile_label",
]
