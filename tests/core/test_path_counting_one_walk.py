"""The fast check's one walk and the ToR aggregates' settle on read.

``PathCounter.fractions_without(link)`` prices a disable with the overlay
walk alone when it can; it must answer exactly what ``affected_rows``
plus ``fractions_at`` answer, in every case the walk is not taken too.
The aggregates (``worst_tor_fraction``, ``average_tor_fraction``,
``violations`` over every ToR) only take in the ToRs a change moved when
they are read; a read after any run of flips must equal a fresh count.
"""

import random

import pytest

from repro.core import CapacityConstraint, PathCounter
from repro.topology import build_clos, build_fattree
from repro.topology.random_topo import build_irregular_clos

BUILDS = [
    ("fattree4", lambda: build_fattree(4)),
    *(
        (f"irregular{seed}", lambda seed=seed: build_irregular_clos(seed))
        for seed in range(3)
    ),
    # 12 ToRs a pod: "pod0/tor10" sorts before "pod0/tor2", so name
    # order is not row order.
    ("clos12", lambda: build_clos(2, 12, 2, 4)),
]
IDS = [name for name, _ in BUILDS]


def _disable_some(topo, rng, share=0.2):
    links = list(topo.link_ids())
    for lid in rng.sample(links, k=int(share * len(links))):
        topo.disable_link(lid)


def _expected(counter, row):
    tors = counter.affected_rows(row)
    if not tors:
        return tors, []
    return tors, counter.fractions_at(tors, frozenset((row,)))


def _assert_every_link(counter, topo):
    names = topo.switch_names
    for row in range(len(topo.link_state)):
        tors, fractions = counter.fractions_without(row)
        assert (tors, fractions) == _expected(counter, row), row
        assert tors == sorted(tors, key=names.__getitem__)


@pytest.mark.parametrize("incremental", [True, False])
@pytest.mark.parametrize("name,build", BUILDS, ids=IDS)
def test_fractions_without_equals_affected_rows_and_fractions_at(
    name, build, incremental
):
    topo = build()
    counter = PathCounter(topo, incremental=incremental)
    _disable_some(topo, random.Random(name))
    assert any(not counter._enabled[row] for row in range(len(topo.link_state)))
    _assert_every_link(counter, topo)


@pytest.mark.parametrize("name,build", BUILDS, ids=IDS)
def test_fractions_without_below_a_switch_with_no_live_path(name, build):
    """Every uplink of one aggregation switch cut: its downlinks have an
    upper endpoint with no path, so disabling one moves no count, yet
    the ToR below it is still an affected row."""
    topo = build()
    counter = PathCounter(topo)
    agg = topo.stage(1)[0]
    for lid in topo.uplinks(agg):
        topo.disable_link(lid)
    below = [
        lid for lid in topo.link_ids() if lid[1] == agg and topo.link(lid).enabled
    ]
    assert below
    for lid in below:
        row = topo.link_row[lid]
        tors, fractions = counter.fractions_without(row)
        assert tors == [topo.switch_row[lid[0]]]
        assert (tors, fractions) == _expected(counter, row)
    _assert_every_link(counter, topo)


def test_fractions_without_takes_one_walk():
    topo = build_fattree(4)
    counter = PathCounter(topo)
    row = topo.link_row[topo.uplinks(topo.stage(1)[0])[0]]
    before = counter.stats.overlay_queries
    tors, _ = counter.fractions_without(row)
    assert tors and counter.stats.overlay_queries == before + 1
    assert counter._checked[1] == row
    assert row not in counter._affected_cache  # no second, DFS pass


def _fresh_reads(topo, constraint):
    fresh = PathCounter(topo.copy())
    return (
        fresh.worst_tor_fraction(),
        fresh.average_tor_fraction(),
        fresh.violations(fresh.floors(constraint)),
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name,build", BUILDS, ids=IDS)
def test_aggregates_read_after_random_flips_equal_a_fresh_count(
    name, build, seed
):
    """Reads land at random points, one reader at a time, so each reader
    meets ToRs that moved several times (or moved and came back) since
    the last settle."""
    rng = random.Random(f"{name}/{seed}")
    topo = build()
    counter = PathCounter(topo)
    constraint = CapacityConstraint(rng.choice([0.5, 0.7, 0.8]))
    links = list(topo.link_ids())
    reads = 0
    for _ in range(160):
        lid = rng.choice(links)
        if topo.link(lid).enabled:
            topo.disable_link(lid)
        else:
            topo.enable_link(lid)
        if rng.random() < 0.15:
            reads += 1
            worst, average, violated = _fresh_reads(topo, constraint)
            which = rng.randrange(3)
            if which == 0:
                assert counter.worst_tor_fraction() == worst
            elif which == 1:
                assert counter.average_tor_fraction() == average
            else:
                assert counter.violations(counter.floors(constraint)) == violated
    assert reads
    worst, average, violated = _fresh_reads(topo, constraint)
    assert counter.violations(counter.floors(constraint)) == violated
    assert counter.worst_tor_fraction() == worst
    assert counter.average_tor_fraction() == average
