"""Staged data center network topologies (the paper's structural substrate).

Public API:

- :class:`~repro.topology.graph.Topology` and the element types
  (:class:`~repro.topology.elements.Switch`,
  :class:`~repro.topology.elements.Link`,
  :class:`~repro.topology.elements.Direction`,
  :class:`~repro.topology.elements.LinkState`);
- builders: :func:`~repro.topology.clos.build_clos`,
  :func:`~repro.topology.clos.build_multi_tier`,
  :func:`~repro.topology.fattree.build_fattree`,
  :func:`~repro.topology.random_topo.build_irregular_clos`;
- breakout cables: :func:`~repro.topology.breakout.assign_breakout_groups`;
- validation and JSON serialization.
"""

from repro.topology.breakout import assign_breakout_groups
from repro.topology.clos import build_clos, build_multi_tier
from repro.topology.elements import (
    Direction,
    DirectionId,
    Link,
    LinkId,
    LinkState,
    Switch,
)
from repro.topology.fattree import build_fattree
from repro.topology.graph import Topology
from repro.topology.random_topo import (
    build_irregular_clos,
    degrade,
    sprinkle_corruption,
)
from repro.topology.columnar import ColumnarPathCounter, ColumnarTopology
from repro.topology.serialization import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.validate import TopologyError, is_connected_to_spine, validate

__all__ = [
    "ColumnarPathCounter",
    "ColumnarTopology",
    "Direction",
    "DirectionId",
    "Link",
    "LinkId",
    "LinkState",
    "Switch",
    "Topology",
    "TopologyError",
    "assign_breakout_groups",
    "build_clos",
    "build_fattree",
    "build_irregular_clos",
    "build_multi_tier",
    "degrade",
    "is_connected_to_spine",
    "load_topology",
    "save_topology",
    "sprinkle_corruption",
    "topology_from_dict",
    "topology_to_dict",
    "validate",
]
