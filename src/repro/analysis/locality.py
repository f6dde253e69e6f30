"""Spatial locality of lossy links (§3, Figure 4).

The paper's metric: take the worst ``w`` fraction of lossy links, compute
the fraction ``x`` of switches containing at least one of them, then
simulate the same number of links spread uniformly at random and compute
the fraction ``y`` of switches they would touch.  The ratio ``x / y`` is 1
for a random spread and smaller the more the links co-locate.  Congestion
lands near 0.2 (strong locality); corruption near 0.8 (weak locality).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core.penalty import ordered_sum
from repro.workloads.rates import LOSSY_THRESHOLD
from repro.workloads.study import DcnStudy, StudyDataset


def _switches_of_links(
    dcn: DcnStudy, link_ids: Sequence
) -> set:
    switches = set()
    for lid in link_ids:
        lower, upper = dcn.link_endpoints[lid]
        switches.add(lower)
        switches.add(upper)
    return switches


def worst_links(
    dcn: DcnStudy, kind: str, worst_fraction: float
) -> List:
    """The worst ``worst_fraction`` of lossy links of one type, by rate."""
    if not 0.0 < worst_fraction <= 1.0:
        raise ValueError("worst_fraction must be in (0, 1]")
    lossy = [
        record
        for record in dcn.records_of_kind(kind)
        if record.mean_loss() >= LOSSY_THRESHOLD
    ]
    lossy.sort(key=lambda r: r.mean_loss(), reverse=True)
    count = max(1, int(round(len(lossy) * worst_fraction)))
    # A link may appear once per direction; dedupe by link id.
    seen, links = set(), []
    for record in lossy:
        if record.link_id not in seen:
            seen.add(record.link_id)
            links.append(record.link_id)
        if len(links) >= count:
            break
    return links


def locality_ratio(
    dcn: DcnStudy,
    kind: str,
    worst_fraction: float = 0.1,
    trials: int = 20,
    seed: int = 0,
) -> float:
    """The x/y switch-fraction ratio for one DCN.

    Args:
        dcn: The DCN's study data.
        kind: "corruption" or "congestion".
        worst_fraction: Which tail of the loss distribution to examine.
        trials: Monte-Carlo repetitions for the random baseline ``y``.
        seed: Baseline RNG seed.

    Returns:
        ``x / y``; 1.0 when the DCN has no lossy links of this kind.
    """
    links = worst_links(dcn, kind, worst_fraction)
    if not links:
        return 1.0
    x = len(_switches_of_links(dcn, links)) / dcn.num_switches

    rng = random.Random(seed)
    all_links = sorted(dcn.link_endpoints)
    y_total = 0.0
    for _ in range(trials):
        sample = rng.sample(all_links, min(len(links), len(all_links)))
        y_total += len(_switches_of_links(dcn, sample)) / dcn.num_switches
    y = y_total / trials
    if y == 0.0:
        return 1.0
    return x / y


def locality_curve(
    dataset: StudyDataset,
    kind: str,
    fractions: Sequence[float] = None,
    trials: int = 20,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Figure 4: mean locality ratio across DCNs per worst-fraction value.

    The paper sweeps 100 fraction values in (0, 1]; the default here uses a
    coarser grid that captures the same curve shape.
    """
    if fractions is None:
        fractions = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0]
    curve = []
    for fraction in fractions:
        ratios = [
            locality_ratio(dcn, kind, fraction, trials=trials, seed=seed)
            for dcn in dataset.dcns
            if dcn.records_of_kind(kind)
        ]
        mean_ratio = ordered_sum(ratios) / len(ratios) if ratios else 1.0
        curve.append((fraction, mean_ratio))
    return curve
