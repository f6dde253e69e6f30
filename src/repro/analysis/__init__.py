"""Measurement-study analyses (§2–3): the reductions behind every figure.

- :mod:`repro.analysis.stats` — Table 1 buckets, CV (Fig 2b), Pearson
  (Fig 3b), stage location;
- :mod:`repro.analysis.locality` — Figure 4's x/y locality ratio;
- :mod:`repro.analysis.asymmetry` — Figure 5's bidirectional shares;
- :mod:`repro.analysis.comparison` — Figure 1's normalized loss volumes.
"""

from repro.analysis.asymmetry import (
    bidirectional_pairs,
    bidirectional_share,
    direction_similarity,
)
from repro.analysis.comparison import (
    Figure1Row,
    aggregate_loss_parity,
    figure1_rows,
    total_loss_ratio,
)
from repro.analysis.locality import locality_curve, locality_ratio, worst_links
from repro.analysis.stats import (
    corruption_to_congestion_link_ratio,
    cv_distribution,
    loss_bucket_table,
    lossy_link_counts,
    mean_pearson,
    mean_rates,
    pearson_distribution,
    pearson_log_loss_vs_utilization,
    stage_link_shares,
    stage_loss_shares,
)

__all__ = [
    "Figure1Row",
    "aggregate_loss_parity",
    "bidirectional_pairs",
    "bidirectional_share",
    "corruption_to_congestion_link_ratio",
    "cv_distribution",
    "direction_similarity",
    "figure1_rows",
    "locality_curve",
    "locality_ratio",
    "loss_bucket_table",
    "lossy_link_counts",
    "mean_pearson",
    "mean_rates",
    "pearson_distribution",
    "pearson_log_loss_vs_utilization",
    "stage_link_shares",
    "stage_loss_shares",
    "total_loss_ratio",
    "worst_links",
]
