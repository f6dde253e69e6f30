"""Loss-rate distributions calibrated to Table 1.

Table 1 gives the distribution of per-link loss rates over four buckets,
normalized within links that experience each loss type:

===============  ============  ============
bucket           corruption    congestion
===============  ============  ============
[1e-8, 1e-5)     47.23%        92.44%
[1e-5, 1e-4)     18.43%         6.35%
[1e-4, 1e-3)     21.66%         0.99%
[1e-3, +)        12.67%         0.22%
===============  ============  ============

Corruption rates are drawn bucket-first, then log-uniform within the
bucket, giving synthetic traces the paper's heavy tail ("corruption
impacts fewer links but imposes heavier loss rates").
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.core.penalty import ordered_sum

#: Bucket edges shared by Table 1 and our analyses.  The top bucket is
#: capped at 10% loss: beyond that a link is effectively dead.
BUCKET_EDGES: List[Tuple[float, float]] = [
    (1e-8, 1e-5),
    (1e-5, 1e-4),
    (1e-4, 1e-3),
    (1e-3, 1e-1),
]

#: Paper's Table 1, corruption column.
TABLE1_CORRUPTION_SHARES: List[float] = [0.4723, 0.1843, 0.2166, 0.1267]

#: Paper's Table 1, congestion column.
TABLE1_CONGESTION_SHARES: List[float] = [0.9244, 0.0635, 0.0099, 0.0022]

#: §3 footnote 2: links with loss below 1e-8 are deemed non-lossy.
LOSSY_THRESHOLD = 1e-8


def sample_from_buckets(
    rng: random.Random,
    shares: Sequence[float],
    edges: Sequence[Tuple[float, float]] = None,
) -> float:
    """Draw a rate: bucket by ``shares``, then log-uniform inside it."""
    edges = edges or BUCKET_EDGES
    if len(shares) != len(edges):
        raise ValueError("one share per bucket required")
    roll = rng.random() * ordered_sum(shares)
    cumulative = 0.0
    chosen = edges[-1]
    for share, edge in zip(shares, edges):
        cumulative += share
        if roll < cumulative:
            chosen = edge
            break
    low, high = chosen
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def sample_corruption_rate(rng: random.Random) -> float:
    """A corruption loss rate following Table 1's corruption column."""
    return sample_from_buckets(rng, TABLE1_CORRUPTION_SHARES)


def bucket_shares(
    rates: Sequence[float],
    edges: Sequence[Tuple[float, float]] = None,
) -> List[float]:
    """Fraction of ``rates`` in each bucket (Table-1 style, lossy links only).

    Rates below the first bucket's lower edge are excluded from the
    normalization, mirroring the paper's restriction to links "with
    corruption" / "with congestion".  Rates above the last bucket's upper
    edge count into the last bucket (its paper label is open-ended:
    ``[1e-3+)``).
    """
    edges = edges or BUCKET_EDGES
    counts = [0] * len(edges)
    total = 0
    for rate in rates:
        if rate < edges[0][0]:
            continue
        total += 1
        placed = False
        for i, (low, high) in enumerate(edges):
            if low <= rate < high:
                counts[i] += 1
                placed = True
                break
        if not placed:
            counts[-1] += 1
    if total == 0:
        return [0.0] * len(edges)
    return [c / total for c in counts]
