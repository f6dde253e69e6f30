"""JSON (de)serialization of topologies.

Operators exchange topology snapshots between the monitoring system and the
CorrOpt controller (Figure 13); a stable, human-inspectable JSON format
makes traces and simulation scenarios reproducible artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.topology.elements import LinkState, Switch
from repro.topology.graph import Topology

FORMAT_VERSION = 1


#: JSON key of each link column, with the value a file without it means.
_LINK_KEYS = (
    ("link_state", "state", LinkState.ENABLED),
    ("capacity_gbps", "capacity_gbps", 40.0),
    ("breakout_group", "breakout_group", None),
    ("rate_up", "corruption_up", 0.0),
    ("rate_down", "corruption_down", 0.0),
    ("lg_capable", "lg_capable", False),
    ("lg_protected", "lg_protected", False),
    ("lg_effective_loss", "lg_effective_loss", 0.0),
    ("lg_capacity_fraction", "lg_capacity_fraction", 1.0),
)


def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """Serialize a topology (including state and corruption) to a dict."""
    columns = {key: getattr(topo, column) for column, key, _ in _LINK_KEYS}
    columns["state"] = [state.value for state in topo.link_state]
    links = [
        {"lower": lower, "upper": upper, **{k: v[row] for k, v in columns.items()}}
        for row, (lower, upper) in enumerate(topo.link_ids())
    ]
    return {
        "version": FORMAT_VERSION,
        "name": topo.name,
        "num_stages": topo.num_stages,
        "switches": [
            {
                "name": sw.name,
                "stage": sw.stage,
                "pod": sw.pod,
                "deep_buffer": sw.deep_buffer,
                "num_ports": sw.num_ports,
            }
            for sw in topo.switches()
        ],
        "links": links,
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output.

    Keys added after version 1 (``num_ports``, the ``lg_*`` link fields)
    are optional, so older files load with their defaults.
    """
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported topology format version {data.get('version')!r}"
        )
    topo = Topology(num_stages=data["num_stages"], name=data["name"])
    for sw in data["switches"]:
        topo.add_switch(
            Switch(
                name=sw["name"],
                stage=sw["stage"],
                pod=sw.get("pod"),
                deep_buffer=sw.get("deep_buffer", False),
                num_ports=sw.get("num_ports"),
            )
        )
    links = data["links"]
    columns = {
        column: [entry.get(key, default) for entry in links]
        for column, key, default in _LINK_KEYS
    }
    columns["link_state"] = list(map(LinkState, columns["link_state"]))
    topo._restore_links(
        [(entry["lower"], entry["upper"]) for entry in links], columns
    )
    return topo


def save_topology(topo: Topology, path: Union[str, Path]) -> None:
    """Write a topology to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(topology_to_dict(topo), handle, indent=1)


def load_topology(path: Union[str, Path]) -> Topology:
    """Read a topology from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return topology_from_dict(json.load(handle))
