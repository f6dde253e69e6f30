"""Tests for the valley-free path-counting DP."""

import pytest

from repro.core import PathCounter
from repro.topology import build_clos, build_multi_tier
from tests.path_counts import baseline_of, counts_of


class TestBaseline:
    def test_clos_baseline_is_aggs_times_plane(self, small_clos):
        counter = PathCounter(small_clos)
        # Each ToR: 2 aggs x 2 spines per plane = 4 paths.
        for tor in small_clos.tors():
            assert baseline_of(counter)[tor] == 4

    def test_mesh_baseline(self):
        topo = build_clos(2, 2, 2, 4, mesh_spine=True)
        counter = PathCounter(topo)
        # 2 aggs x 4 spines = 8 paths.
        assert baseline_of(counter)["pod0/tor0"] == 8

    def test_four_tier_baseline_multiplies(self):
        topo = build_multi_tier([4, 4, 4, 4], [2, 2, 2])
        counter = PathCounter(topo)
        assert baseline_of(counter)["tor0"] == 2 * 2 * 2

    def test_baseline_ignores_admin_state(self, small_clos):
        small_clos.disable_link(("pod0/tor0", "pod0/agg0"))
        counter = PathCounter(small_clos)
        assert baseline_of(counter)["pod0/tor0"] == 4


class TestCounts:
    def test_counts_reflect_disabled_links(self, small_clos):
        counter = PathCounter(small_clos)
        small_clos.disable_link(("pod0/tor0", "pod0/agg0"))
        counts = counts_of(counter)
        assert counts["pod0/tor0"] == 2  # lost agg0's 2 spine paths
        assert counts["pod0/tor1"] == 4  # unaffected

    def test_extra_disabled_is_hypothetical(self, small_clos):
        counter = PathCounter(small_clos)
        counts = counts_of(counter, [("pod0/tor0", "pod0/agg0")])
        assert counts["pod0/tor0"] == 2
        # Topology itself untouched.
        assert small_clos.link(("pod0/tor0", "pod0/agg0")).enabled
        assert counts_of(counter)["pod0/tor0"] == 4

    def test_agg_spine_disable_affects_whole_plane(self, small_clos):
        counter = PathCounter(small_clos)
        counts = counts_of(counter, [("pod0/agg0", "spine0")])
        assert counts["pod0/tor0"] == 3
        assert counts["pod1/tor0"] == 4  # other pod has its own agg

    def test_fractions(self, small_clos):
        counter = PathCounter(small_clos)
        fractions = counter.tor_fractions(
            extra_disabled=[("pod0/tor0", "pod0/agg0")]
        )
        assert fractions["pod0/tor0"] == pytest.approx(0.5)
        assert fractions["pod1/tor2"] == pytest.approx(1.0)

    def test_zero_paths_when_all_uplinks_cut(self, small_clos):
        counter = PathCounter(small_clos)
        cut = list(small_clos.uplinks("pod0/tor0"))
        fractions = counter.tor_fractions(extra_disabled=cut)
        assert fractions["pod0/tor0"] == 0.0


class TestRestricted:
    def test_restricted_matches_full(self, medium_clos):
        """The row primitive (an overlay, or in recount mode a DP pruned to
        the upstream closure) against the unrestricted public query."""
        tors = ["pod0/tor0", "pod0/tor1"]
        disabled = frozenset({("pod0/agg0", "spine0"), ("pod0/tor0", "pod0/agg1")})
        for incremental in (True, False):
            counter = PathCounter(medium_clos, incremental=incremental)
            restricted = counter.fractions_at(
                [medium_clos.switch_row[tor] for tor in tors],
                frozenset(medium_clos.link_row[lid] for lid in disabled),
            )
            full = counter.tor_fractions(extra_disabled=disabled, tors=tors)
            assert dict(zip(tors, restricted)) == full
            counter.detach()

    def test_closure_is_upstream_closed(self, medium_clos):
        counter = PathCounter(medium_clos)
        rows = counter._closure([medium_clos.switch_row["pod0/tor0"]])
        closure = {medium_clos.switch_names[row] for row in rows}
        for name in closure:
            for lid in medium_clos.uplinks(name):
                assert medium_clos.link(lid).upper in closure


class TestAffectedTors:
    def test_tor_agg_link_affects_single_tor(self, small_clos):
        counter = PathCounter(small_clos)
        assert counter.affected_tors(("pod0/tor0", "pod0/agg0")) == {
            "pod0/tor0"
        }

    def test_agg_spine_link_affects_pod(self, small_clos):
        counter = PathCounter(small_clos)
        affected = counter.affected_tors(("pod0/agg0", "spine0"))
        assert affected == {"pod0/tor0", "pod0/tor1", "pod0/tor2"}

    def test_disabled_downlink_shields_tor(self, small_clos):
        small_clos.disable_link(("pod0/tor0", "pod0/agg0"))
        counter = PathCounter(small_clos)
        affected = counter.affected_tors(("pod0/agg0", "spine0"))
        assert "pod0/tor0" not in affected
