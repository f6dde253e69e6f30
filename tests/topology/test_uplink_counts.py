"""``Topology.up_disabled``: each switch's count of uplinks not ENABLED.

The switch-local checker reads the count instead of scanning the uplinks,
so it must equal a scan after any sequence of admin changes, and survive
every way a topology is cloned or stored.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.clos import build_clos
from repro.topology.elements import LinkState
from repro.topology.columnar import ColumnarTopology
from repro.topology.serialization import topology_from_dict, topology_to_dict

OPS = ("enable_link", "disable_link", "drain_link")


def scanned(topo):
    """The count by a walk over every switch's uplinks."""
    return [
        sum(1 for row in rows if topo.link_state[row] is not LinkState.ENABLED)
        for rows in topo.up_rows
    ]


def apply(topo, ops):
    link_ids = list(topo.link_ids())
    for op, index in ops:
        getattr(topo, OPS[op])(link_ids[index % len(link_ids)])


op_lists = st.lists(
    st.tuples(st.integers(0, len(OPS) - 1), st.integers(0, 10_000)),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=op_lists, more=op_lists)
def test_count_equals_scan_through_every_clone(ops, more):
    topo = build_clos(num_pods=2, tors_per_pod=3, aggs_per_pod=2, num_spines=4)
    apply(topo, ops)
    assert topo.up_disabled == scanned(topo)
    clones = [
        topo.copy(),
        pickle.loads(pickle.dumps(topo)),
        topology_from_dict(topology_to_dict(topo)),
        ColumnarTopology.from_topology(topo).to_topology(),
    ]
    before = list(topo.up_disabled)
    for clone in clones:
        assert clone.up_disabled == before
        # A clone keeps counting on its own, without touching the original.
        apply(clone, more)
        assert clone.up_disabled == scanned(clone)
    assert topo.up_disabled == before


def test_drain_after_disable_counts_once():
    topo = build_clos(num_pods=1, tors_per_pod=2, aggs_per_pod=2, num_spines=2)
    lid = next(topo.link_ids())
    topo.disable_link(lid)
    tor = topo.switch_row[lid[0]]
    assert topo.up_disabled[tor] == 1
    topo.drain_link(lid)  # DISABLED -> DRAINED: still not ENABLED
    assert topo.up_disabled[tor] == 1
    topo.enable_link(lid)
    assert topo.up_disabled == scanned(topo) == [0] * topo.num_switches
