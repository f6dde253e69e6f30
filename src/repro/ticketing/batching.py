"""Collateral-aware repair batching (§8, "Accounting for the impact of
repair").

Repairing one member of a breakout cable takes the whole cable — including
its healthy links — offline ("an additional three, healthy links have to be
turned off").  This scheduler decides, per cable, whether the collateral
disable is currently safe under the capacity constraints, batches all of a
cable's tickets into one visit (one repair fixes every member), and defers
repairs whose collateral would violate a ToR's constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.constraints import CapacityConstraint
from repro.core.path_counting import PathCounter
from repro.ticketing.ticket import Ticket
from repro.topology.breakout import repair_collateral
from repro.topology.elements import LinkId, LinkState
from repro.topology.graph import Topology


@dataclass
class RepairBatch:
    """One technician visit covering a shared component.

    Attributes:
        tickets: Tickets resolved by this visit.
        take_down: Links that must be offline during the repair (the
            faulty ones plus healthy collateral).
        collateral: The healthy subset of ``take_down``.
        safe_now: Whether taking everything down meets all constraints.
        violated_tors: ToRs that block the batch when not safe.
    """

    tickets: List[Ticket]
    take_down: Set[LinkId]
    collateral: Set[LinkId]
    safe_now: bool
    violated_tors: Dict[str, float] = field(default_factory=dict)


class CollateralAwareScheduler:
    """Plans repair visits that respect capacity despite collateral.

    Args:
        topo: Live topology (reads administrative state at planning time).
        constraint: Per-ToR capacity constraints.
        counter: Optional shared path counter.
    """

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        counter: Optional[PathCounter] = None,
    ):
        self._topo = topo
        self.constraint = constraint
        self.counter = counter or PathCounter(topo)

    def _collateral_safe(
        self, take_down: Set[LinkId]
    ) -> Dict[str, float]:
        """ToRs whose constraint breaks if ``take_down`` all go offline.

        Already-disabled members cost nothing extra; only the *additional*
        disables matter.
        """
        topo, counter = self._topo, self.counter
        rows = [topo.link_row[lid] for lid in take_down]
        state, enabled = topo.link_state, LinkState.ENABLED
        extra = frozenset(row for row in rows if state[row] is enabled)
        tors: Set[int] = set()
        for row in extra:
            tors.update(counter.affected_rows(row))
        if not tors:
            return {}
        names = topo.switch_names
        violated = counter.violations(
            counter.floors(self.constraint),
            sorted(tors, key=names.__getitem__),
            extra,
        )
        return {names[tor]: fraction for tor, fraction in violated.items()}

    def plan(self, tickets: Sequence[Ticket]) -> List[RepairBatch]:
        """Group tickets into batches and mark each safe or deferred.

        Tickets on the same breakout cable merge into one batch (one visit
        repairs the shared cable).  Plain-link tickets are singleton
        batches whose collateral is empty.
        """
        by_key: Dict[LinkId, List[Ticket]] = {}
        take_down_of: Dict[LinkId, Set[LinkId]] = {}
        for ticket in tickets:
            take_down = repair_collateral(self._topo, ticket.link_id)
            key = min(take_down)
            by_key.setdefault(key, []).append(ticket)
            take_down_of[key] = take_down

        batches: List[RepairBatch] = []
        for key in sorted(by_key):
            take_down = take_down_of[key]
            faulty = {t.link_id for t in by_key[key]}
            violations = self._collateral_safe(take_down)
            batches.append(
                RepairBatch(
                    tickets=by_key[key],
                    take_down=take_down,
                    collateral=take_down - faulty,
                    safe_now=not violations,
                    violated_tors=violations,
                )
            )
        return batches

    def dispatchable(self, tickets: Sequence[Ticket]) -> List[RepairBatch]:
        """The safe subset of :meth:`plan`, ready for technicians now."""
        return [batch for batch in self.plan(tickets) if batch.safe_now]
