"""Tests for topology segmentation (§8, Figure 20)."""

import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    CapacityConstraint,
    GlobalOptimizer,
    PathCounter,
    segment_links,
)
from repro.core import optimizer as optimizer_module
from repro.topology import build_clos, build_irregular_clos, sprinkle_corruption


class TestSegmentLinks:
    def test_independent_pods_form_separate_segments(self, medium_clos):
        contested = [
            ("pod0/tor0", "pod0/agg0"),
            ("pod0/tor0", "pod0/agg1"),
            ("pod1/tor0", "pod1/agg0"),
        ]
        at_risk = {"pod0/tor0", "pod1/tor0"}
        segments = segment_links(medium_clos, contested, at_risk)
        assert len(segments) == 2
        sizes = sorted(len(seg.links) for seg in segments)
        assert sizes == [1, 2]

    def test_shared_tor_merges_segments(self, medium_clos):
        # Two agg-spine links in the same pod share every ToR below the pod.
        contested = [
            ("pod0/agg0", "spine0"),
            ("pod0/agg1", "spine4"),
        ]
        at_risk = {"pod0/tor0"}
        segments = segment_links(medium_clos, contested, at_risk)
        assert len(segments) == 1
        assert segments[0].links == frozenset(contested)
        assert "pod0/tor0" in segments[0].tors

    def test_link_with_no_at_risk_tor_is_singleton(self, medium_clos):
        contested = [("pod2/tor0", "pod2/agg0")]
        segments = segment_links(medium_clos, contested, set())
        assert len(segments) == 1
        assert segments[0].tors == frozenset()

    def test_spine_link_bridges_pods(self):
        """An agg-spine link is upstream of all its pod's ToRs; ToRs in
        *different* pods only merge if a common spine-side link serves
        both — which plane wiring prevents for tor-agg links."""
        topo = build_clos(3, 2, 2, 4)
        contested = [
            ("pod0/agg0", "spine0"),
            ("pod1/agg0", "spine0"),  # same spine, different pods
        ]
        at_risk = {"pod0/tor0", "pod1/tor0"}
        segments = segment_links(topo, contested, at_risk)
        # Links are upstream of disjoint ToR sets -> independent.
        assert len(segments) == 2

    def test_every_contested_link_appears_exactly_once(self, medium_clos):
        contested = [
            ("pod0/tor0", "pod0/agg0"),
            ("pod0/agg0", "spine0"),
            ("pod1/tor1", "pod1/agg1"),
            ("pod2/agg2", "spine8"),
        ]
        at_risk = {"pod0/tor0", "pod1/tor1", "pod2/tor0"}
        segments = segment_links(medium_clos, contested, at_risk)
        seen = [lid for seg in segments for lid in seg.links]
        assert sorted(seen) == sorted(contested)

    def test_deterministic_order(self, medium_clos):
        contested = [
            ("pod1/tor0", "pod1/agg0"),
            ("pod0/tor0", "pod0/agg0"),
        ]
        at_risk = {"pod0/tor0", "pod1/tor0"}
        a = segment_links(medium_clos, contested, at_risk)
        b = segment_links(medium_clos, list(reversed(contested)), at_risk)
        assert [seg.links for seg in a] == [seg.links for seg in b]


class TestSummary:
    def test_summary_counts(self, medium_clos):
        contested = [
            ("pod0/tor0", "pod0/agg0"),
            ("pod0/tor0", "pod0/agg1"),
            ("pod1/tor0", "pod1/agg0"),
        ]
        segments = segment_links(
            medium_clos, contested, {"pod0/tor0", "pod1/tor0"}
        )
        assert sorted(len(segment.links) for segment in segments) == [1, 2]


# --------------------------------------------------------------------- #
# Row-space pruning and segmentation against their definition
# --------------------------------------------------------------------- #


def _segments_by_definition(topo, contested, at_risk):
    """§8 through ``Topology.upstream_links``: a contested link serves an
    at-risk ToR when it is upstream of it; links sharing a ToR merge."""
    contested = set(contested)
    groups = [({lid}, set()) for lid in sorted(contested)]
    for tor in sorted(at_risk):
        mine = topo.upstream_links([tor]) & contested
        if not mine:
            continue
        merged = (set(), {tor})
        for group in [g for g in groups if g[0] & mine]:
            groups.remove(group)
            merged[0].update(group[0])
            merged[1].update(group[1])
        groups.append(merged)
    return sorted(
        (sorted(links), sorted(tors)) for links, tors in groups
    )


@given(
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([0.5, 0.67, 0.75, 0.9]),
    fraction=st.sampled_from([0.05, 0.15, 0.3]),
)
@settings(max_examples=40, deadline=None)
# The disabled links leave a ToR below its floor that no corrupting link
# is upstream of: nothing the optimizer searches is at risk.
@example(seed=9468, capacity=0.5, fraction=0.05)
def test_pruning_and_segments_equal_their_definition(seed, capacity, fraction):
    rng = random.Random(seed)
    topo = build_irregular_clos(seed=seed)
    sprinkle_corruption(topo, fraction=fraction, rng=rng)
    for lid in rng.sample(sorted(topo.link_ids()), k=3):
        topo.disable_link(lid)  # structure, not admin state, decides
    tors = topo.tors()
    constraint = CapacityConstraint(
        capacity, {rng.choice(tors): 1.0, rng.choice(tors): 0.1}
    )

    seen = []

    def spy(topo_, contested, at_risk):
        seen.append((list(contested), set(at_risk)))
        return segment_links(topo_, contested, at_risk)

    with mock.patch.object(optimizer_module, "segment_links", spy):
        GlobalOptimizer(topo, constraint).plan()

    # The optimizer plans over the corrupting links still enabled, and a
    # ToR is at risk when it falls below its floor with all of them off
    # and one of them is upstream of it.  With no candidate, or no ToR at
    # risk, it returns before segmenting.
    candidates = {
        lid for lid in topo.corrupting_links() if topo.link(lid).enabled
    }
    violated = {
        tor
        for tor in constraint.violations(
            PathCounter(topo).tor_fractions(candidates)
        )
        if topo.upstream_links([tor]) & candidates
    }
    if not candidates or not violated:
        assert not seen
        return
    [(contested, at_risk)] = seen
    assert at_risk == violated
    assert contested == sorted(candidates & topo.upstream_links(violated))

    # Segments: against the definition, on the optimizer's own input and on
    # a wider one (every corrupting link contested, a random at-risk set).
    for links, risky in (
        (contested, at_risk),
        (sorted(candidates), set(rng.sample(tors, k=len(tors) // 2))),
    ):
        segments = segment_links(topo, links, risky)
        assert [
            (sorted(seg.links), sorted(seg.tors)) for seg in segments
        ] == _segments_by_definition(topo, links, risky)
    # ... and after a structure change (the downstream memo is dropped).
    upper = rng.choice(topo.stage(1))
    lower = next(t for t in tors if (t, upper) not in topo.link_row)
    added = topo.add_link(lower, upper)
    topo.set_corruption(added, 1e-3)
    links = sorted(topo.corrupting_links())
    assert [
        (sorted(seg.links), sorted(seg.tors))
        for seg in segment_links(topo, links, set(tors))
    ] == _segments_by_definition(topo, links, set(tors))
