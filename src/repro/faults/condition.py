"""The observable condition a fault imposes on a link.

A :class:`LinkCondition` is what the optical monitor would report about one
link while a fault is active: the four power levels, the per-direction
corruption rates, and whether co-located links share the fault.  The
recommendation engine's :class:`~repro.core.recommendation.LinkObservation`
is derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.recommendation import LinkObservation
from repro.optics.power import TransceiverTech
from repro.topology.elements import LinkId


@dataclass
class LinkCondition:
    """Observable state of one faulty link.

    Orientation follows Algorithm 1: side 1 receives the (primary)
    corrupting direction; side 2 transmits it.

    Attributes:
        tx1_dbm: TxPower of side 1 (transmits the reverse direction).
        rx1_dbm: RxPower at side 1 — the receiver of the corruption.
        tx2_dbm: TxPower of side 2 — feeds the corrupting direction.
        rx2_dbm: RxPower at side 2.
        fwd_rate: Corruption loss rate of the primary direction.
        rev_rate: Corruption loss rate of the reverse direction.
        co_located: Whether sibling links on the same switch / breakout
            cable corrupt simultaneously (root cause 5 signature).
    """

    tx1_dbm: float
    rx1_dbm: float
    tx2_dbm: float
    rx2_dbm: float
    fwd_rate: float
    rev_rate: float = 0.0
    co_located: bool = False

    def is_bidirectional(self, threshold: float = 1e-8) -> bool:
        """Whether both directions corrupt above ``threshold`` (§3)."""
        return self.fwd_rate >= threshold and self.rev_rate >= threshold


def observation_from_condition(
    link_id: LinkId,
    condition: LinkCondition,
    tech: TransceiverTech = None,
    neighbor_corrupting: bool = None,
    recently_reseated: bool = False,
    corruption_threshold: float = 1e-8,
) -> LinkObservation:
    """Build the Algorithm-1 input from a fault condition.

    Args:
        link_id: The corrupting link.
        condition: Its observable state.
        tech: Optical technology (enables per-technology thresholds).
        neighbor_corrupting: Override for the co-location flag; defaults to
            the condition's own ``co_located``.
        recently_reseated: Repair-history flag.
        corruption_threshold: Rate above which the reverse direction counts
            as corrupting.
    """
    if neighbor_corrupting is None:
        neighbor_corrupting = condition.co_located
    return LinkObservation(
        link_id=link_id,
        corruption_rate=condition.fwd_rate,
        rx1_dbm=condition.rx1_dbm,
        rx2_dbm=condition.rx2_dbm,
        tx1_dbm=condition.tx1_dbm,
        tx2_dbm=condition.tx2_dbm,
        neighbor_corrupting=neighbor_corrupting,
        opposite_corrupting=condition.rev_rate >= corruption_threshold,
        recently_reseated=recently_reseated,
        tech=tech,
    )
