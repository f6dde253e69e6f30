"""Builders for generalized Clos topologies.

The paper's DCNs are standard multi-tier Clos designs (§2: "the data centers
that we study use standard designs").  We provide:

- :func:`build_clos` — a pod-structured three-stage Clos
  (ToR → aggregation → spine), the shape used throughout §5 and §7;
- :func:`build_multi_tier` — an arbitrary-depth staged Clos for studying
  the ``r``-tier generalization of the switch-local bound
  ``sc = c ** (1/r)``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.topology.elements import Switch
from repro.topology.graph import Topology


def build_clos(
    num_pods: int,
    tors_per_pod: int,
    aggs_per_pod: int,
    num_spines: int,
    mesh_spine: bool = False,
    name: str = "clos",
) -> Topology:
    """Build a three-stage, pod-structured Clos network.

    Each ToR connects to every aggregation switch in its pod.  Spine wiring
    follows the fat-tree plane convention: the spine is split into
    ``aggs_per_pod`` groups, and aggregation switch ``i`` of every pod
    connects to every spine in group ``i``.  With ``mesh_spine=True`` every
    aggregation switch instead connects to every spine (a folded-Clos mesh).

    Args:
        num_pods: Number of pods.
        tors_per_pod: ToR switches per pod.
        aggs_per_pod: Aggregation switches per pod.
        num_spines: Total spine switches.  When ``mesh_spine`` is false it
            must be divisible by ``aggs_per_pod``.
        mesh_spine: Use full agg-to-spine mesh instead of plane wiring.
        name: Topology name.

    Returns:
        The constructed :class:`~repro.topology.graph.Topology`.
    """
    if min(num_pods, tors_per_pod, aggs_per_pod, num_spines) < 1:
        raise ValueError("all Clos dimensions must be >= 1")
    if not mesh_spine and num_spines % aggs_per_pod != 0:
        raise ValueError(
            f"num_spines={num_spines} must be divisible by "
            f"aggs_per_pod={aggs_per_pod} for plane wiring"
        )

    topo = Topology(num_stages=3, name=name)
    spine_names = [f"spine{s}" for s in range(num_spines)]
    for spine in spine_names:
        topo.add_switch(Switch(spine, stage=2))

    group_size = num_spines // aggs_per_pod if not mesh_spine else num_spines
    links = []
    for pod in range(num_pods):
        pod_label = f"pod{pod}"
        agg_names = [f"{pod_label}/agg{a}" for a in range(aggs_per_pod)]
        for agg in agg_names:
            topo.add_switch(Switch(agg, stage=1, pod=pod_label))
        for t in range(tors_per_pod):
            tor = f"{pod_label}/tor{t}"
            topo.add_switch(Switch(tor, stage=0, pod=pod_label))
            links += [(tor, agg) for agg in agg_names]
        for a, agg in enumerate(agg_names):
            if mesh_spine:
                targets = spine_names
            else:
                targets = spine_names[a * group_size : (a + 1) * group_size]
            links += [(agg, spine) for spine in targets]
    topo.add_links(links)
    return topo


def build_multi_tier(
    stage_sizes: Sequence[int],
    uplinks_per_switch: Sequence[int],
    name: str = "multi-tier",
) -> Topology:
    """Build a staged Clos of arbitrary depth.

    Stage ``s`` switches each get ``uplinks_per_switch[s]`` uplinks, spread
    round-robin over the stage-``s+1`` switches.  This produces regular,
    balanced topologies suitable for studying how the switch-local bound
    degrades with depth (§5.1: ``r``-tier networks need ``sc = c**(1/r)``).

    Args:
        stage_sizes: Number of switches per stage, ToR first.
        uplinks_per_switch: Uplink count per switch for every stage except
            the spine; must have ``len(stage_sizes) - 1`` entries.
        name: Topology name.

    Returns:
        The constructed topology.
    """
    if len(stage_sizes) < 2:
        raise ValueError("need at least two stages")
    if len(uplinks_per_switch) != len(stage_sizes) - 1:
        raise ValueError(
            "uplinks_per_switch must have one entry per non-spine stage"
        )

    topo = Topology(num_stages=len(stage_sizes), name=name)
    names: List[List[str]] = []
    labels = ["tor", "agg", "core", "spine"]
    for stage, size in enumerate(stage_sizes):
        label = labels[stage] if stage < len(labels) else f"t{stage}"
        if stage == len(stage_sizes) - 1:
            label = "spine"
        stage_names = [f"{label}{i}" for i in range(size)]
        for sw in stage_names:
            topo.add_switch(Switch(sw, stage=stage))
        names.append(stage_names)

    links = []
    for stage in range(len(stage_sizes) - 1):
        above = names[stage + 1]
        fanout = uplinks_per_switch[stage]
        if fanout > len(above):
            raise ValueError(
                f"stage {stage} wants {fanout} uplinks but stage "
                f"{stage + 1} has only {len(above)} switches"
            )
        for i, sw in enumerate(names[stage]):
            for k in range(fanout):
                links.append((sw, above[(i + k) % len(above)]))
    topo.add_links(links)
    return topo
