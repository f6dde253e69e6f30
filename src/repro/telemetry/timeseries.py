"""The distribution helpers the paper's figures use: empirical CDFs and
percentiles."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def cdf_points(values: Sequence[float]) -> List[tuple]:
    """Empirical CDF as sorted (value, fraction<=value) pairs.

    Used by every "CDF of ..." figure (2b, 3b, 18b).
    """
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) of ``values``."""
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    if len(values) == 0:
        raise ValueError("no values")
    return float(np.percentile(np.asarray(values, dtype=float), q))
