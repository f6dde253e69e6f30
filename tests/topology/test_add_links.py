"""``Topology.add_links``: the builders' row order, and all-or-nothing
interning."""

import hashlib
import pickle
import random

import pytest

from repro.topology import (
    Switch,
    Topology,
    build_clos,
    build_fattree,
    build_irregular_clos,
    build_multi_tier,
    degrade,
    sprinkle_corruption,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.graph import _ROW_TABLES, LINK_COLUMNS
from repro.workloads.dcn_profiles import LARGE_DCN


def table_digest(topo: Topology) -> str:
    """sha256 over the switch and link tables, every link column, and
    each switch's uplinks, in row order."""
    tables = [
        topo.switch_names, topo.switch_stage, list(topo.link_row.items()),
        topo.lower_row, topo.upper_row, topo.up_rows, topo.down_rows,
        *(getattr(topo, name) for name in LINK_COLUMNS),
        [topo.uplinks(name) for name in topo.switch_names],
    ]
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def _sprinkled_large() -> Topology:
    topo = LARGE_DCN.build(0.25)
    sprinkle_corruption(topo, rng=random.Random(0))
    return topo


def _sprinkled_degraded() -> Topology:
    """22 links disabled first: those draw nothing."""
    topo = degrade(build_irregular_clos(0), 0.2, random.Random(1))
    sprinkle_corruption(topo, fraction=0.5, rng=random.Random(2))
    return topo


#: Each builder's digest, computed with the one-link-at-a-time builders
#: (and the ``Link``-view ``sprinkle_corruption``) that came before
#: ``add_links``.
BUILDERS = {
    "clos_plane": (lambda: build_clos(3, 4, 2, 6),
        "1a61298e144c2064ef4008e8aaa809467a88c7d49ed59b426cf3ffc067dbe54d"),
    "clos_mesh": (lambda: build_clos(2, 3, 2, 3, mesh_spine=True),
        "2e2f012701716c750c44ee93dccc236d2cdbae79a39cc30f05df707823170aed"),
    "fattree_4": (lambda: build_fattree(4),
        "8318fabf93cb5522f3d4c041c65796270221e6914651d3e1bcc03f75a3304019"),
    "multi_tier": (
        lambda: build_multi_tier([8, 6, 4, 2], [3, 2, 2]),
        "fb229808a75b72961f8652d220836520ebd2cf34a022d945a56de16c0285232e"),
    "irregular_0": (lambda: build_irregular_clos(0),
        "e973dae266415c731b12091186315565f49e7d33713f5284c882a5ea3456cf72"),
    "irregular_1": (lambda: build_irregular_clos(1),
        "6cba06af750e30ecf7772abf9b5981f704d1b4e89abd581a63895474164c6207"),
    "irregular_2": (lambda: build_irregular_clos(2),
        "f62768fed71eca3da6dab878be545de1df2682b9c33699daeb46954a20b0f2ba"),
    "large_quarter": (lambda: LARGE_DCN.build(0.25),
        "35c9fc5be70a6e7afd6a3abe2fa92d75266ae38c451de453d136206c9d30f573"),
    "large_quarter_sprinkled": (_sprinkled_large,
        "283395b2ed1d8ebb0b9bdbaefca2bb61abfc0aa6464feaf1b272f2b8c08442be"),
    "irregular_0_degraded_sprinkled": (_sprinkled_degraded,
        "b82fd0cd8d486c9491060acfdd875263e68cc287f5bc256dc53ac5e9c92f82d8"),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_tables_are_pinned(name):
    build, digest = BUILDERS[name]
    topo = build()
    assert table_digest(topo) == digest
    for clone in (
        pickle.loads(pickle.dumps(topo)),
        topology_from_dict(topology_to_dict(topo)),
    ):
        assert table_digest(clone) == digest
        assert clone.up_disabled == topo.up_disabled


def _snapshot(topo: Topology) -> str:
    """Every row table and link column, as one string."""
    return repr(
        [topo.num_links, list(topo.link_row.items())]
        + [getattr(topo, name) for name in _ROW_TABLES + LINK_COLUMNS]
    )


@pytest.fixture
def grown(small_clos):
    small_clos.add_switch(Switch("extra/tor", stage=0))
    calls = []
    small_clos.subscribe_structure_changes(lambda: calls.append(1))
    return small_clos, calls


NEW = ("extra/tor", "pod0/agg0")


@pytest.mark.parametrize(
    "batch, error, match",
    [
        ([NEW, ("nowhere", "pod0/agg0")], KeyError, "nowhere"),
        ([NEW, ("pod0/tor0", "spine0")], ValueError, "adjacent stages"),
        ([NEW, ("pod0/agg1", "pod0/tor1")], ValueError, "duplicate link"),
        ([NEW, ("pod0/agg0", "extra/tor")], ValueError, "duplicate link"),
    ],
    ids=["unknown-switch", "non-adjacent", "existing-link", "within-batch"],
)
def test_add_links_refusal_changes_nothing(grown, batch, error, match):
    topo, calls = grown
    before = _snapshot(topo)
    with pytest.raises(error, match=match):
        topo.add_links(batch)
    assert _snapshot(topo) == before
    assert calls == []


def test_add_links_interns_in_order_and_notifies_once(grown):
    topo, calls = grown
    first = topo.num_links
    ids = topo.add_links(
        [NEW, ("pod0/agg1", "extra/tor")], capacity_gbps=100.0,
        breakout_group="cable",
    )
    assert ids == [NEW, ("extra/tor", "pod0/agg1")]
    assert calls == [1]
    assert [topo.link_row[lid] for lid in ids] == [first, first + 1]
    assert topo.uplinks("extra/tor") == ids
    assert topo.capacity_gbps[first:] == [100.0, 100.0]
    assert topo.breakout_members("cable") == ids
    assert all(len(getattr(topo, name)) == topo.num_links
               for name in LINK_COLUMNS)

