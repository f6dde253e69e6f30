"""CorrOpt's fast checker (§5.1).

When a new corrupting link is reported, the fast checker decides — in time
linear in the number of links — whether the link can be disabled without
pushing any ToR below its capacity constraint.  Unlike the switch-local
baseline it counts *actual* ToR-to-spine paths ("it considers the entire set
of paths from top-of-rack switches to the spine, instead of just the
switches adjacent to the link"), so it disables strictly more links.

Maximality property (§5.1): as long as no link has been activated since the
last fast-checker/optimizer run, the network state is maximal — re-checking
previously rejected links is unnecessary.  :class:`FastChecker` therefore
never re-examines old corrupting links; the optimizer handles those on link
activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.constraints import CapacityConstraint
from repro.core.path_counting import PathCounter
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import LinkId, LinkState
from repro.topology.graph import Topology


@dataclass
class FastCheckResult:
    """Outcome of a fast check for one link.

    Attributes:
        link_id: The examined link.
        allowed: Whether disabling keeps all ToR constraints satisfied.
        violated_tors: ToRs that would fall below their constraint (with the
            fraction they would have), empty when ``allowed``.  Every
            affected ToR's fraction is ``counter.fractions_without(row)``.
    """

    link_id: LinkId
    allowed: bool
    violated_tors: Dict[str, float] = field(default_factory=dict)


class FastChecker:
    """Exact path-counting admission check for disabling a single link.

    Args:
        topo: The (live) topology; administrative state is read at call time.
        constraint: Per-ToR capacity constraints.
        counter: Optionally share a :class:`PathCounter` (e.g. with the
            optimizer or the simulation engine) to avoid recomputing the
            baseline and to maintain a single incremental DP.
        obs: Observability recorder; each check emits a ``fast_check``
            span and per-verdict counters (no-op by default).
    """

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        counter: Optional[PathCounter] = None,
        obs: Recorder = NULL_RECORDER,
    ):
        self._topo = topo
        self.constraint = constraint
        self.counter = counter or PathCounter(topo)
        self.obs = obs

    def check(self, link_id: LinkId) -> FastCheckResult:
        """Decide whether ``link_id`` can be disabled (without disabling it).

        Only the ToRs downstream of the link need checking; their fractions
        are computed with the link hypothetically removed.
        """
        with self.obs.span("fast_check", cat="fast_checker") as span:
            result = self._check(link_id)
            if self.obs.enabled:
                verdict = "allowed" if result.allowed else "blocked"
                span.set(link=str(link_id), verdict=verdict)
                self.obs.count("fast_checker_checks_total", verdict=verdict)
        return result

    def _check(self, link_id: LinkId) -> FastCheckResult:
        topo, counter = self._topo, self.counter
        row = topo.link_row[link_id]
        if topo.link_state[row] is not LinkState.ENABLED:
            # Already mitigated; trivially allowed.
            return FastCheckResult(link_id=link_id, allowed=True)

        # ToR rows in name order; empty when no ToR sits below the link
        # (can happen in synthetic gadgets where a subtree was already cut
        # off): disabling affects nobody.
        tors, fractions = counter.fractions_without(row)
        floors = counter.floors(self.constraint)
        names = topo.switch_names
        violated = {
            names[tor]: fraction
            for tor, fraction in zip(tors, fractions)
            if fraction < floors[tor]
        }
        return FastCheckResult(
            link_id=link_id, allowed=not violated, violated_tors=violated
        )

    def check_and_disable(self, link_id: LinkId) -> FastCheckResult:
        """Run :meth:`check` and disable the link when allowed."""
        result = self.check(link_id)
        topo = self._topo
        enabled = topo.link_state[topo.link_row[link_id]] is LinkState.ENABLED
        if result.allowed and enabled:
            topo.disable_link(link_id)
        return result

    def sweep(self, link_ids: List[LinkId]) -> List[FastCheckResult]:
        """Greedily check-and-disable a batch of corrupting links.

        Links are processed in descending corruption-rate order so the worst
        offenders claim capacity headroom first — the natural greedy order
        when several reports arrive in one monitoring interval.
        """
        ordered = sorted(
            link_ids,
            key=lambda lid: self._topo.link(lid).max_corruption_rate(),
            reverse=True,
        )
        return [self.check_and_disable(lid) for lid in ordered]
