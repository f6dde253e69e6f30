"""The state-of-the-art baseline: switch-local checking (§5.1).

Production practice before CorrOpt [Maltz 2016]: when a link starts
corrupting, a controller disables it only if the switch it is attached to
retains a threshold fraction ``sc`` of active uplinks.  For the decision to
*guarantee* a ToR-to-spine path fraction of ``c`` in a network with ``r``
link tiers above the ToRs, the local threshold must be ``sc = c ** (1/r)``
(Figure 10b: ``sqrt(0.6) ≈ 0.77`` for three-stage networks) — which makes
the check very conservative and leaves many corrupting links active.

With heterogeneous per-ToR constraints the local threshold must satisfy the
most demanding downstream ToR, making the baseline even more conservative
(§5.1: "a switch-local checker may not be able to disable a single link in
extreme cases").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.constraints import CapacityConstraint
from repro.topology.elements import LinkId, LinkState
from repro.topology.graph import Topology


@dataclass
class SwitchLocalResult:
    """Outcome of a switch-local check for one link."""

    link_id: LinkId
    allowed: bool
    switch: str
    active_uplinks: int
    required_active: int


class SwitchLocalChecker:
    """Greedy, local admission check used by today's operators.

    A link at stage ``s -> s+1`` counts as an uplink of its lower switch;
    disabling is allowed when the lower switch would still keep at least
    ``ceil(m * sc)`` enabled uplinks out of its ``m`` total uplinks — i.e.
    at most ``floor(m * (1 - sc))`` uplinks may be disabled (§5.1).

    Args:
        topo: Live topology.
        constraint: The per-ToR capacity constraint to guarantee; the local
            threshold is derived as ``max_c ** (1/r)`` where ``max_c`` is
            the strictest ToR requirement.
        sc: Explicit local threshold overriding the derivation (used to
            reproduce the naive ``sc = c`` mapping of Figure 10a).
    """

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        sc: Optional[float] = None,
    ):
        self._topo = topo
        self.constraint = constraint
        if sc is None:
            strictest = constraint.default
            if constraint.per_tor:
                strictest = max(strictest, max(constraint.per_tor.values()))
            r = topo.tiers_above_tor()
            sc = strictest ** (1.0 / r)
        if not 0.0 <= sc <= 1.0:
            raise ValueError(f"sc={sc} outside [0, 1]")
        self.sc = sc

    def _budget(self, row: int) -> Tuple[int, int]:
        """``(m, max_disabled)`` for the switch at ``row``.

        ``max_disabled`` is exactly ``floor(m * (1 - sc)) = m - ceil(m *
        sc)``, computed with an epsilon guard so exact-threshold cases
        (``m * sc`` a whole number, e.g. ``sc = c ** (1/r)`` landing on 0.7
        or 0.8) do not float-round across the integer boundary.
        """
        m = len(self._topo.up_rows[row])
        return m, m - min(m, max(0, math.ceil(m * self.sc - 1e-9)))

    def check(self, link_id: LinkId) -> SwitchLocalResult:
        """Decide whether the lower switch can afford to lose this uplink.

        A link that is already disabled (or drained) is *already mitigated*
        and reported as ``allowed`` without consuming any uplink budget —
        the same semantics as :meth:`FastChecker.check`, so strategy-level
        comparisons count onsets on mitigated links identically.  O(1):
        the topology keeps each switch's count of uplinks not ENABLED.
        """
        topo = self._topo
        link = topo.link_row[link_id]
        row = topo.lower_row[link]
        m, max_disabled = self._budget(row)
        disabled = topo.up_disabled[row]
        enabled = topo.link_state[link] is LinkState.ENABLED
        return SwitchLocalResult(
            link_id=link_id,
            allowed=not enabled or disabled < max_disabled,
            switch=link_id[0],
            active_uplinks=m - disabled,
            required_active=m - max_disabled,
        )

    def check_and_disable(self, link_id: LinkId) -> SwitchLocalResult:
        """Run :meth:`check` and disable the link when allowed."""
        result = self.check(link_id)
        topo = self._topo
        enabled = topo.link_state[topo.link_row[link_id]] is LinkState.ENABLED
        if result.allowed and enabled:
            topo.disable_link(link_id)
        return result

    def reevaluate(self, candidates: Optional[List[LinkId]] = None) -> List[LinkId]:
        """Re-run the check over active corrupting links (on link enable).

        §5.1: "When a link is enabled ... the same check is run for all
        active corrupting links to see if additional links, which could not
        be disabled before, can be disabled now."  Links are visited in
        descending corruption order (worst first), matching the greedy
        production behaviour.

        Returns:
            The links that were newly disabled.
        """
        topo = self._topo
        if candidates is None:
            candidates = topo.corrupting_links()

        link_row, state = topo.link_row, topo.link_state

        def open_candidate(lid: LinkId) -> bool:
            link = link_row[lid]
            row = topo.lower_row[link]
            enabled = state[link] is LinkState.ENABLED
            return enabled and topo.up_disabled[row] < self._budget(row)[1]

        # Budgets only shrink during the sweep, so a switch with none left
        # now rejects its candidates later too: dropping them is exact.
        ordered = sorted(
            filter(open_candidate, candidates),
            key=lambda lid: topo.max_rate(link_row[lid]),
            reverse=True,
        )
        newly_disabled = []
        for lid in ordered:
            if self.check_and_disable(lid).allowed:
                newly_disabled.append(lid)
        return newly_disabled
