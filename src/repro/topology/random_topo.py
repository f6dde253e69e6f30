"""Randomized / degraded topology generation for tests and stress runs.

The optimizer and fast checker must behave on *degraded* networks (links
already disabled) and on irregular Clos variants (heterogeneous pod sizes,
missing links).  These generators build such cases deterministically from a
seed.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.topology.elements import LinkState, Switch
from repro.topology.graph import Topology


def build_irregular_clos(
    seed: int = 0,
    num_pods: int = 4,
    max_tors_per_pod: int = 6,
    max_aggs_per_pod: int = 4,
    num_spines: int = 8,
) -> Topology:
    """Build a pod Clos with per-pod random sizes and random missing links.

    The result is always valid (every ToR reaches the spine), but pods vary
    in width and a few agg-spine links are absent, which exercises the
    non-uniform path counts that make switch-local checking sub-optimal.
    """
    rng = random.Random(seed)
    topo = Topology(num_stages=3, name=f"irregular-{seed}")
    spines = [f"spine{s}" for s in range(num_spines)]
    for spine in spines:
        topo.add_switch(Switch(spine, stage=2))

    links = []
    for pod in range(num_pods):
        pod_label = f"pod{pod}"
        num_aggs = rng.randint(2, max_aggs_per_pod)
        num_tors = rng.randint(2, max_tors_per_pod)
        aggs = [f"{pod_label}/agg{a}" for a in range(num_aggs)]
        for agg in aggs:
            topo.add_switch(Switch(agg, stage=1, pod=pod_label))
        for t in range(num_tors):
            tor = f"{pod_label}/tor{t}"
            topo.add_switch(Switch(tor, stage=0, pod=pod_label))
            links += [(tor, agg) for agg in aggs]
        for agg in aggs:
            # Every agg keeps at least two spine uplinks; the rest appear
            # with probability 0.7 to create irregular path counts.
            chosen = rng.sample(spines, 2)
            for spine in spines:
                if spine in chosen or rng.random() < 0.7:
                    links.append((agg, spine))
    topo.add_links(links)
    return topo


def degrade(
    topo: Topology,
    disable_fraction: float = 0.05,
    rng: Optional[random.Random] = None,
) -> Topology:
    """Disable a random fraction of links, keeping every ToR connected.

    Mirrors the "degraded Fat-Tree" setting of Lemma A.1.  Links whose
    removal would disconnect a ToR from the spine are skipped.
    """
    from repro.topology.validate import is_connected_to_spine

    rng = rng or random.Random(0)
    candidates = list(topo.link_ids())
    rng.shuffle(candidates)
    target = int(len(candidates) * disable_fraction)
    disabled = 0
    for lid in candidates:
        if disabled >= target:
            break
        topo.disable_link(lid)
        lower = topo.link(lid).lower
        tors = (
            [lower]
            if topo.switch(lower).stage == 0
            else sorted(topo.downstream_tors(lower))
        )
        if all(is_connected_to_spine(topo, tor) for tor in tors):
            disabled += 1
        else:
            topo.enable_link(lid)
    return topo


def sprinkle_corruption(
    topo: Topology,
    fraction: float = 0.02,
    rng: Optional[random.Random] = None,
    min_rate: float = 1e-7,
    max_rate: float = 1e-2,
) -> int:
    """Mark a random fraction of enabled links as corrupting.

    Rates are log-uniform in ``[min_rate, max_rate]``, matching the
    heavy-tailed bucket distribution of Table 1.

    Returns:
        The number of links marked corrupting.
    """
    import math

    rng = rng or random.Random(0)
    low, high = math.log10(min_rate), math.log10(max_rate)
    enabled = LinkState.ENABLED
    count = 0
    for link_id, state in zip(topo.link_row, topo.link_state):
        if state is enabled and rng.random() < fraction:
            topo.set_corruption(link_id, 10 ** rng.uniform(low, high))
            count += 1
    return count
