"""k-ary fat-tree builder.

A fat-tree is the special case of a Clos used by the Appendix-A
NP-completeness reduction ("Consider a 4k-Fat-Tree ...").  We follow the
classic construction: ``k`` pods, each with ``k/2`` edge (ToR) switches and
``k/2`` aggregation switches; ``(k/2)**2`` core switches arranged into
``k/2`` planes; aggregation switch ``i`` of every pod connects to all cores
of plane ``i``.
"""

from __future__ import annotations

from repro.topology.elements import Switch
from repro.topology.graph import Topology


def build_fattree(k: int, name: str = "fat-tree") -> Topology:
    """Build a ``k``-ary fat-tree (``k`` even, ``k >= 2``).

    Stage assignment: edge switches are stage 0 (ToRs), aggregation stage 1,
    core (spine) stage 2.

    Args:
        k: Fat-tree arity; must be even.
        name: Topology name.

    Returns:
        A topology with ``k`` pods, ``k*k/2`` ToRs, ``k*k/2`` aggregation
        switches, ``(k/2)**2`` cores, and ``k**3 / 2`` switch-to-switch
        links.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    topo = Topology(num_stages=3, name=name)

    core_names = [
        [f"core{plane}_{i}" for i in range(half)] for plane in range(half)
    ]
    for plane in core_names:
        for core in plane:
            topo.add_switch(Switch(core, stage=2))

    links = []
    for pod in range(k):
        pod_label = f"pod{pod}"
        aggs = [f"{pod_label}/agg{a}" for a in range(half)]
        edges = [f"{pod_label}/edge{e}" for e in range(half)]
        for agg in aggs:
            topo.add_switch(Switch(agg, stage=1, pod=pod_label))
        for edge in edges:
            topo.add_switch(Switch(edge, stage=0, pod=pod_label))
        links += [(edge, agg) for edge in edges for agg in aggs]
        for a, agg in enumerate(aggs):
            links += [(agg, core) for core in core_names[a]]
    topo.add_links(links)
    return topo
