"""Breakout-cable modeling.

§4 (root cause 5): a breakout cable splits one high-speed port into several
lower-speed links; when the cable is faulty, *all* of its member links
corrupt at the same time — the primary source of the weak spatial locality
of corruption observed in §3.

This module assigns breakout groups to an existing topology.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.topology.elements import LinkId
from repro.topology.graph import Topology


def assign_breakout_groups(
    topo: Topology,
    fraction: float = 0.25,
    links_per_cable: int = 4,
    rng: Optional[random.Random] = None,
) -> Dict[str, List[LinkId]]:
    """Group a fraction of each switch's uplinks into breakout cables.

    Groups are formed from consecutive uplinks of the same switch, mirroring
    how a physical 40G→4x10G cable lands on adjacent ports.

    Args:
        topo: Topology to annotate (mutated in place).
        fraction: Target fraction of links placed into breakout groups.
        links_per_cable: Member links per cable (typically 4).
        rng: Random source; defaults to a fixed seed for reproducibility.

    Returns:
        Mapping from breakout group id to its member link ids.
    """
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    if links_per_cable < 2:
        raise ValueError("a breakout cable has at least 2 member links")
    rng = rng or random.Random(0)

    groups: Dict[str, List[LinkId]] = {}
    counter = 0
    for switch in topo.switches():
        uplinks = [
            lid
            for lid in topo.uplinks(switch.name)
            if topo.link(lid).breakout_group is None
        ]
        if len(uplinks) < links_per_cable:
            continue
        num_cables = int(len(uplinks) * fraction) // links_per_cable
        for c in range(num_cables):
            start = c * links_per_cable
            members = uplinks[start : start + links_per_cable]
            if len(members) < links_per_cable:
                break
            group_id = f"bc{counter}"
            counter += 1
            for lid in members:
                topo.link(lid).breakout_group = group_id
            groups[group_id] = members
    # Shuffle determinism note: grouping is positional, rng reserved for
    # future randomized placement policies.
    del rng
    return groups
