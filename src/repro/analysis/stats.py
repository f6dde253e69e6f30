"""Core measurement-study statistics (§2–3).

Functions here reduce a :class:`~repro.workloads.study.StudyDataset` to the
quantities the paper's tables and figures report: loss-bucket shares
(Table 1), coefficient-of-variation distributions (Figure 2b), Pearson
correlation distributions (Figure 3b), and the per-stage corruption
probability (§3's "corruption is uncorrelated with link location").
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.workloads.rates import BUCKET_EDGES, LOSSY_THRESHOLD, bucket_shares
from repro.workloads.study import LinkStudyRecord, StudyDataset


def mean_rates(records: Sequence[LinkStudyRecord]) -> List[float]:
    """Mean loss rate of each record's primary direction."""
    return [record.mean_loss() for record in records]


def loss_bucket_table(
    dataset: StudyDataset,
) -> Dict[str, List[float]]:
    """Table 1: normalized loss-bucket shares per loss type.

    Returns:
        ``{"corruption": [...4 shares...], "congestion": [...]}`` over
        the buckets [1e-8,1e-5), [1e-5,1e-4), [1e-4,1e-3), [1e-3,+).
    """
    return {
        kind: bucket_shares(
            mean_rates(dataset.all_records(kind)), BUCKET_EDGES
        )
        for kind in ("corruption", "congestion")
    }


def lossy_link_counts(dataset: StudyDataset) -> Dict[str, int]:
    """Number of lossy links per loss type (for the §3 2–4% claim)."""
    return {
        kind: sum(
            1
            for record in dataset.all_records(kind)
            if record.mean_loss() >= LOSSY_THRESHOLD
        )
        for kind in ("corruption", "congestion")
    }


def corruption_to_congestion_link_ratio(dataset: StudyDataset) -> float:
    """|corrupting links| / |congested links| (§3: "less than 2–4%")."""
    counts = lossy_link_counts(dataset)
    if counts["congestion"] == 0:
        return float("inf")
    return counts["corruption"] / counts["congestion"]


def _cv(values: np.ndarray) -> float:
    mean = float(np.mean(values))
    if mean == 0.0:
        return 0.0
    return float(np.std(values)) / mean


def cv_distribution(dataset: StudyDataset, kind: str) -> List[float]:
    """Coefficient of variation of each lossy link's loss series (Fig 2b)."""
    return [
        _cv(record.loss)
        for record in dataset.all_records(kind)
        if record.mean_loss() >= LOSSY_THRESHOLD
    ]


def pearson_log_loss_vs_utilization(record: LinkStudyRecord) -> float:
    """Pearson correlation between utilization and log10(loss) (Fig 3).

    Zeros in the loss series are floored at 1e-10 before the logarithm;
    constant series yield correlation 0.
    """
    loss = np.log10(np.maximum(record.loss, 1e-10))
    util = record.utilization
    if np.std(loss) == 0.0 or np.std(util) == 0.0:
        return 0.0
    return float(np.corrcoef(util, loss)[0, 1])


def pearson_distribution(dataset: StudyDataset, kind: str) -> List[float]:
    """Per-link Pearson correlations for one loss type (Figure 3b)."""
    return [
        pearson_log_loss_vs_utilization(record)
        for record in dataset.all_records(kind)
        if record.mean_loss() >= LOSSY_THRESHOLD
    ]


def mean_pearson(dataset: StudyDataset, kind: str) -> float:
    """Mean Pearson correlation (paper: 0.19 corruption, 0.62 congestion)."""
    values = pearson_distribution(dataset, kind)
    return float(np.mean(values)) if values else 0.0


def stage_loss_shares(
    dataset: StudyDataset, kind: str
) -> Dict[int, float]:
    """Share of lossy links per topology stage (§3 location analysis).

    Stage 0 is the ToR–aggregation tier, stage 1 the aggregation–spine
    tier.  Corruption should show no stage bias; congestion avoids stages
    whose egress switches have deep buffers.
    """
    counts: Dict[int, int] = {}
    total = 0
    for record in dataset.all_records(kind):
        if record.mean_loss() < LOSSY_THRESHOLD:
            continue
        counts[record.stage] = counts.get(record.stage, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {stage: count / total for stage, count in counts.items()}


def stage_link_shares(dataset: StudyDataset) -> Dict[int, float]:
    """Share of *all* links per stage (the unbiased reference)."""
    counts: Dict[int, int] = {}
    total = 0
    for dcn in dataset.dcns:
        for lower, _upper in dcn.link_endpoints.values():
            stage = dcn.stage_of_switch.get(lower, 0)
            counts[stage] = counts.get(stage, 0) + 1
            total += 1
    if total == 0:
        return {}
    return {stage: count / total for stage, count in counts.items()}
