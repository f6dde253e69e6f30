"""Property test: vectorized full recount == incremental object counter.

The columnar DP (:class:`ColumnarPathCounter`) and the incremental
:class:`PathCounter` are independent implementations of §5.1's valley-free
path counting.  On arbitrary degraded, irregular, breakout-annotated Clos
topologies — with arbitrary admin churn and hypothetical disable sets —
their counts, fractions and worst fraction must agree exactly.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import PathCounter
from repro.topology import (
    assign_breakout_groups,
    build_irregular_clos,
    degrade,
    sprinkle_corruption,
)
from repro.topology.columnar import ColumnarPathCounter, ColumnarTopology
from tests.path_counts import baseline_of, counts_of


def scenario_topology(seed, disable_fraction, breakout):
    """A degraded irregular Clos with optional breakout annotation."""
    rng = random.Random(seed * 7919 + 13)
    topo = build_irregular_clos(
        seed=seed,
        num_pods=rng.randint(3, 5),
        max_tors_per_pod=rng.randint(4, 7),
        max_aggs_per_pod=rng.randint(2, 4),
        num_spines=rng.choice([6, 8, 12]),
    )
    if breakout:
        assign_breakout_groups(topo, fraction=0.4, links_per_cable=2)
    sprinkle_corruption(topo, fraction=0.15, rng=rng)
    degrade(topo, disable_fraction, rng)
    return topo, rng


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    disable_fraction=st.floats(min_value=0.0, max_value=0.3),
    breakout=st.booleans(),
    churn=st.integers(min_value=0, max_value=30),
)
def test_full_recount_matches_incremental(seed, disable_fraction, breakout, churn):
    topo, rng = scenario_topology(seed, disable_fraction, breakout)
    incremental = PathCounter(topo)
    links = list(topo.link_ids())

    # Admin churn after construction: disables, enables, drains.
    for _ in range(churn):
        lid = rng.choice(links)
        roll = rng.random()
        if roll < 0.4:
            topo.disable_link(lid)
        elif roll < 0.8:
            topo.enable_link(lid)
        else:
            topo.drain_link(lid)

    columnar = ColumnarPathCounter.for_topology(topo)
    assert baseline_of(columnar) == baseline_of(incremental)
    assert counts_of(columnar) == counts_of(incremental)
    assert columnar.tor_fractions() == incremental.tor_fractions()
    assert columnar.worst_tor_fraction() == incremental.worst_tor_fraction()

    # Hypothetical disable sets, including whole breakout cables (the
    # collateral sets §8 reasons about).
    extra = set(rng.sample(links, k=min(len(links), rng.randint(1, 6))))
    for lid in list(extra):
        group = topo.link(lid).breakout_group
        if group is not None:
            extra.update(topo.breakout_members(group))
    extra = frozenset(extra)
    assert counts_of(columnar, extra) == counts_of(incremental, extra)
    assert columnar.tor_fractions(extra) == incremental.tor_fractions(extra)

    incremental.detach()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_topology_counts_identically(seed):
    """from_topology → to_topology preserves every path count."""
    topo, rng = scenario_topology(seed, 0.1, breakout=True)
    rebuilt = ColumnarTopology.from_topology(topo).to_topology()
    original = PathCounter(topo)
    clone = PathCounter(rebuilt)
    assert counts_of(clone) == counts_of(original)
    assert baseline_of(clone) == baseline_of(original)
    assert clone.average_tor_fraction() == original.average_tor_fraction()
