"""Corruption vs. congestion loss volumes (§2, Figure 1).

Figure 1 plots, per DCN (sorted by size), the mean and standard deviation
of packets lost per day to corruption, normalized by the DCN's mean daily
congestion losses.  "In aggregate, the number of corruption losses is on
par with congestion losses."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.penalty import ordered_sum
from repro.workloads.study import DcnStudy, StudyDataset


@dataclass
class Figure1Row:
    """One DCN's bar in Figure 1.

    Attributes:
        dcn: DCN name.
        num_links: DCN size (the sort key).
        mean_ratio: Mean daily corruption losses / mean daily congestion
            losses.
        std_ratio: Std-dev of the daily corruption losses, same
            normalization (the error bar).
    """

    dcn: str
    num_links: int
    mean_ratio: float
    std_ratio: float


def _daily_losses(dcn: DcnStudy, kind: str, samples_per_day: int) -> np.ndarray:
    """Absolute packets lost per day for one loss type."""
    records = dcn.records_of_kind(kind)
    if not records:
        return np.zeros(1)
    num_samples = len(records[0].loss)
    total = np.zeros(num_samples)
    for record in records:
        packets = record.utilization * dcn.capacity_pkts_per_interval
        total += record.loss * packets
    num_days = max(1, num_samples // samples_per_day)
    return np.array(
        [
            float(
                np.sum(total[d * samples_per_day : (d + 1) * samples_per_day])
            )
            for d in range(num_days)
        ]
    )


def figure1_rows(
    dataset: StudyDataset, samples_per_day: int = 96
) -> List[Figure1Row]:
    """Compute Figure 1's per-DCN normalized loss ratios, sorted by size."""
    rows = []
    for dcn in dataset.dcns:
        corruption = _daily_losses(dcn, "corruption", samples_per_day)
        congestion = _daily_losses(dcn, "congestion", samples_per_day)
        mean_congestion = float(np.mean(congestion))
        if mean_congestion <= 0:
            mean_ratio, std_ratio = float("inf"), 0.0
        else:
            mean_ratio = float(np.mean(corruption)) / mean_congestion
            std_ratio = float(np.std(corruption)) / mean_congestion
        rows.append(
            Figure1Row(
                dcn=dcn.name,
                num_links=dcn.num_links,
                mean_ratio=mean_ratio,
                std_ratio=std_ratio,
            )
        )
    rows.sort(key=lambda row: row.num_links)
    return rows


def total_loss_ratio(dataset: StudyDataset, samples_per_day: int = 96) -> float:
    """Aggregate corruption losses / aggregate congestion losses.

    §2's headline is aggregate parity ("in aggregate, the number of
    corruption losses is on par with congestion losses"); summing across
    DCNs is far less sensitive to per-DCN heavy-tail sampling noise than
    the per-DCN ratios of Figure 1.
    """
    corruption = ordered_sum(
        float(np.sum(_daily_losses(dcn, "corruption", samples_per_day)))
        for dcn in dataset.dcns
    )
    congestion = ordered_sum(
        float(np.sum(_daily_losses(dcn, "congestion", samples_per_day)))
        for dcn in dataset.dcns
    )
    if congestion <= 0:
        return float("inf")
    return corruption / congestion


def aggregate_loss_parity(rows: List[Figure1Row]) -> float:
    """Geometric-mean corruption/congestion ratio across DCNs.

    The paper's headline claim is parity ("for every congestion loss ...
    they will experience a corruption loss"); a geometric mean near 1 is
    the corresponding summary.
    """
    finite = [row.mean_ratio for row in rows if np.isfinite(row.mean_ratio)]
    positive = [r for r in finite if r > 0]
    if not positive:
        return 0.0
    return float(np.exp(np.mean(np.log(positive))))
