"""Congestion substrate: traffic, queue losses, and their spatial locality.

Congestion is the paper's foil for corruption (§3): it varies with
utilization, clusters on hotspot switches, and is usually bidirectional.
This package generates congestion behaviour with exactly those properties
so the §2–3 contrast analyses have both sides of the comparison.
"""

from repro.congestion.losses import CongestionModel
from repro.congestion.presets import CONGESTION_PRESETS, congestion_model
from repro.congestion.queueing import (
    DEEP_BUFFER_K,
    SHALLOW_BUFFER_K,
    congestion_loss_rate,
    mm1k_loss,
)
from repro.congestion.traffic import DAY_S

__all__ = [
    "CONGESTION_PRESETS",
    "CongestionModel",
    "DAY_S",
    "DEEP_BUFFER_K",
    "SHALLOW_BUFFER_K",
    "congestion_loss_rate",
    "congestion_model",
    "mm1k_loss",
]
