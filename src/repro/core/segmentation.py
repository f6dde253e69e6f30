"""Topology segmentation (§8, Figure 20).

The optimizer's subset search can be split into independent sub-problems:
two contested links interact only if some capacity-at-risk ToR lies
downstream of both.  Grouping links by shared at-risk ToRs yields segments
that can be optimized independently, shrinking the search space from
``2^(n1 + n2 + ...)`` to ``2^n1 + 2^n2 + ...``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set

from repro.topology.elements import LinkId
from repro.topology.graph import Topology


class Segment:
    """One independent optimization sub-problem.

    Attributes:
        links: Contested links in this segment.
        tors: At-risk ToRs whose constraints these links can affect.
    """

    def __init__(self, links: FrozenSet[LinkId], tors: FrozenSet[str]):
        self.links = links
        self.tors = tors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Segment(links={len(self.links)}, tors={len(self.tors)})"


def segment_links(
    topo: Topology,
    contested: Sequence[LinkId],
    at_risk_tors: Set[str],
) -> List[Segment]:
    """Partition contested links into independent segments.

    Two links belong to the same segment when an at-risk ToR is downstream
    of both (through *any* links, enabled or not — segmentation must stay
    valid for every hypothetical disable-set, so we use the structural
    upstream relation).

    Args:
        topo: The topology.
        contested: Candidate links that could violate some constraint.
        at_risk_tors: ToRs whose constraints are in danger.

    Returns:
        Segments in deterministic (sorted) order.
    """
    # Map each at-risk ToR to the contested links upstream of it: those
    # whose lower endpoint has the ToR (structurally) below it.
    contested_set = set(contested)
    names, switch_row = topo.switch_names, topo.switch_row
    at_risk = {switch_row[tor] for tor in at_risk_tors}
    below, lower, link_row = topo.tor_rows_below, topo.lower_row, topo.link_row
    links_of_tor: Dict[str, List[LinkId]] = {}
    for lid in sorted(contested_set):
        for tor in at_risk & below(lower[link_row[lid]]):
            links_of_tor.setdefault(names[tor], []).append(lid)

    # Union-find over contested links, unioning links that share a ToR.
    parent: Dict[LinkId, LinkId] = {lid: lid for lid in contested_set}

    def find(x: LinkId) -> LinkId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: LinkId, b: LinkId) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for mine in links_of_tor.values():
        first = mine[0]
        for other in mine[1:]:
            union(first, other)

    groups: Dict[LinkId, Set[LinkId]] = {}
    for lid in contested_set:
        groups.setdefault(find(lid), set()).add(lid)

    # Attach each ToR to the segment holding its links.
    tors_of_root: Dict[LinkId, Set[str]] = {root: set() for root in groups}
    for tor, mine in links_of_tor.items():
        tors_of_root[find(mine[0])].add(tor)

    segments = [
        Segment(frozenset(links), frozenset(tors_of_root[root]))
        for root, links in groups.items()
    ]
    segments.sort(key=lambda seg: sorted(seg.links)[0])
    return segments
