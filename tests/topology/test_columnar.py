"""Lossless round trips and DP equivalence of the columnar topology."""

import random

import numpy as np
import pytest

from repro.core import PathCounter
from repro.topology import (
    LinkState,
    Switch,
    Topology,
    assign_breakout_groups,
    build_clos,
    build_fattree,
    build_irregular_clos,
    build_multi_tier,
    degrade,
    sprinkle_corruption,
)
from repro.topology.columnar import (
    ColumnarPathCounter,
    ColumnarTopology,
)
from repro.topology.serialization import topology_to_dict


def mutated_clos(seed=3):
    """A Clos with every per-element attribute exercised."""
    topo = build_clos(3, 4, 3, 9)
    assign_breakout_groups(topo, fraction=0.5)
    rng = random.Random(seed)
    sprinkle_corruption(topo, fraction=0.25, rng=rng)
    topo.assign_lg_capable(0.3)
    links = list(topo.link_ids())
    for lid in rng.sample(links, 8):
        topo.disable_link(lid)
    for lid in rng.sample(links, 4):
        topo.drain_link(lid)
    for lid in links:
        link = topo.link(lid)
        if link.lg_capable and link.enabled:
            topo.protect_link(lid, 1e-8, 0.9)
            break
    return topo


class TestRoundTrip:
    def test_object_round_trip_is_lossless(self):
        topo = mutated_clos()
        rebuilt = ColumnarTopology.from_topology(topo).to_topology()
        # Iteration order is part of the contract (simulations depend on it).
        assert [s.name for s in rebuilt.switches()] == [
            s.name for s in topo.switches()
        ]
        assert list(rebuilt.link_ids()) == list(topo.link_ids())
        assert topology_to_dict(rebuilt) == topology_to_dict(topo)
        for lid in topo.link_ids():
            a, b = topo.link(lid), rebuilt.link(lid)
            assert a.state is b.state
            assert a.lg_capable == b.lg_capable
            assert a.lg_protected == b.lg_protected
            assert a.lg_effective_loss == b.lg_effective_loss
            assert a.lg_capacity_fraction == b.lg_capacity_fraction
        assert rebuilt.lg_protected_links() == topo.lg_protected_links()

    def test_switch_attributes_survive(self):
        topo = Topology(num_stages=2, name="tiny")
        topo.add_switch(Switch("t0", stage=0, pod="p", deep_buffer=True, num_ports=48))
        topo.add_switch(Switch("s0", stage=1))
        topo.add_link("t0", "s0", capacity_gbps=100.0)
        rebuilt = ColumnarTopology.from_topology(topo).to_topology()
        sw = rebuilt.switch("t0")
        assert (sw.pod, sw.deep_buffer, sw.num_ports) == ("p", True, 48)
        assert rebuilt.switch("s0").num_ports is None
        assert rebuilt.link(("t0", "s0")).capacity_gbps == 100.0

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_fattree(4),
            lambda: build_multi_tier([6, 4, 3, 2], [2, 2, 2]),
            lambda: build_irregular_clos(seed=7),
        ],
        ids=["fattree", "multi-tier", "irregular"],
    )
    def test_other_builders_round_trip(self, builder):
        topo = builder()
        rebuilt = ColumnarTopology.from_topology(topo).to_topology()
        assert topology_to_dict(rebuilt) == topology_to_dict(topo)


def same_content(a, b):
    """Both decode to the same object topology, order included."""
    return (a.name, a.num_stages) == (b.name, b.num_stages) and (
        topology_to_dict(a.to_topology()) == topology_to_dict(b.to_topology())
    )


class TestDirectClosBuilder:
    def test_matches_object_builder_exactly(self):
        direct = ColumnarTopology.build_clos(3, 4, 3, 9, name="clos")
        via_object = ColumnarTopology.from_topology(build_clos(3, 4, 3, 9))
        assert same_content(direct, via_object)

    def test_matches_on_asymmetric_shape(self):
        direct = ColumnarTopology.build_clos(5, 7, 2, 8, name="odd")
        via_object = ColumnarTopology.from_topology(
            build_clos(5, 7, 2, 8, name="odd")
        )
        assert same_content(direct, via_object)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="divisible"):
            ColumnarTopology.build_clos(2, 2, 3, 8)
        with pytest.raises(ValueError, match=">= 1"):
            ColumnarTopology.build_clos(0, 2, 2, 4)


class TestColumnarCounterEquivalence:
    def test_matches_path_counter_on_pristine_clos(self):
        topo = build_clos(3, 4, 3, 9)
        pc = PathCounter(topo)
        cc = ColumnarPathCounter(ColumnarTopology.from_topology(topo))
        assert cc.baseline() == pc.baseline()
        assert cc.counts() == pc.counts()
        assert cc.tor_fractions() == pc.tor_fractions()
        assert cc.worst_tor_fraction() == pc.worst_tor_fraction()
        assert cc.average_tor_fraction() == pc.average_tor_fraction()

    def test_randomized_fuzz_against_incremental_counter(self):
        topo = build_clos(3, 4, 3, 9)
        pc = PathCounter(topo)
        cc = ColumnarPathCounter.for_topology(topo)
        rng = random.Random(1234)
        links = list(topo.link_ids())
        for step in range(300):
            lid = rng.choice(links)
            roll = rng.random()
            if roll < 0.45:
                topo.disable_link(lid)
            elif roll < 0.90:
                topo.enable_link(lid)
            else:
                topo.drain_link(lid)
            assert cc.counts() == pc.counts(), f"step {step}"
            assert cc.worst_tor_fraction() == pc.worst_tor_fraction()
            assert cc.average_tor_fraction() == pc.average_tor_fraction()
            if step % 11 == 0:
                extra = frozenset(rng.sample(links, k=rng.randint(1, 5)))
                assert cc.counts(extra) == pc.counts(extra)
                assert cc.tor_fractions(extra) == pc.tor_fractions(extra)
            if step % 37 == 0:
                probe = rng.choice(links)
                assert cc.affected_tors(probe) == pc.affected_tors(probe)

    def test_degraded_irregular_clos(self):
        topo = build_irregular_clos(seed=5)
        rng = random.Random(9)
        degrade(topo, 0.12, rng)
        sprinkle_corruption(topo, fraction=0.1, rng=rng)
        pc = PathCounter(topo)
        cc = ColumnarPathCounter.for_topology(topo)
        assert cc.counts() == pc.counts()
        assert cc.tor_fractions() == pc.tor_fractions()
        assert cc.average_tor_fraction() == pc.average_tor_fraction()

    def test_structure_change_rebuilds(self):
        topo = Topology(num_stages=2)
        topo.add_switch(Switch("t0", stage=0))
        topo.add_switch(Switch("s0", stage=1))
        topo.add_link("t0", "s0")
        cc = ColumnarPathCounter.for_topology(topo)
        assert cc.baseline_for("t0") == 1
        topo.add_switch(Switch("s1", stage=1))
        topo.add_link("t0", "s1")
        assert cc.baseline_for("t0") == 2
        assert cc.counts()["t0"] == 2

    def test_notify_link_change_for_direct_mutation(self):
        topo = build_clos(2, 2, 2, 4)
        cc = ColumnarPathCounter.for_topology(topo)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.link(lid).state = LinkState.DISABLED
        cc.notify_link_change(lid)
        assert cc.counts()["pod0/tor0"] == 2

    def test_detach_stops_tracking(self):
        topo = build_clos(2, 2, 2, 4)
        cc = ColumnarPathCounter.for_topology(topo)
        cc.detach()
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        assert cc.counts()["pod0/tor0"] == 4  # stale by design after detach

    def test_zero_baseline_tor_reports_zero_fraction(self):
        topo = Topology(num_stages=2)
        topo.add_switch(Switch("orphan", stage=0))
        topo.add_switch(Switch("t0", stage=0))
        topo.add_switch(Switch("s0", stage=1))
        topo.add_link("t0", "s0")
        pc = PathCounter(topo)
        cc = ColumnarPathCounter.for_topology(topo)
        assert cc.tor_fractions() == pc.tor_fractions()
        assert cc.tor_fractions()["orphan"] == 0.0
        assert cc.average_tor_fraction() == pc.average_tor_fraction()
        assert cc.worst_tor_fraction() == pc.worst_tor_fraction()

    def test_array_views_scale(self):
        col = ColumnarTopology.build_clos(8, 8, 4, 16, name="mid")
        cc = ColumnarPathCounter(col)
        fractions = cc.tor_fraction_array()
        assert fractions.shape == (8 * 8,)
        assert np.all(fractions == 1.0)
        assert cc.baseline_array().max() == cc.baseline_for("pod0/tor0")


class TestRowLookupAndSegmentSum:
    """Ids reach rows through a sorted key column, and a stage folds with a
    segment sum: both against the obvious reference."""

    def _irregular(self):
        topo = build_irregular_clos(seed=11)
        # A switch with no uplinks below the spine, and one with no links.
        topo.add_switch(Switch("dangling", stage=1))
        topo.add_link("pod0/tor0", "dangling")
        topo.add_switch(Switch("orphan", stage=0))
        return topo

    def test_link_rows_match_the_id_dict(self):
        col = ColumnarTopology.from_topology(self._irregular())
        ids = col.link_ids()
        assert ids == [
            (col.switch_names[lo], col.switch_names[up])
            for lo, up in zip(col.link_lower.tolist(), col.link_upper.tolist())
        ]
        index = col.link_index()
        rng = random.Random(0)
        sample = [rng.choice(ids) for _ in range(200)]  # with repeats
        assert col.link_rows(sample).tolist() == [index[lid] for lid in sample]
        assert col.link_rows(iter(sample[:7])).tolist() == [
            index[lid] for lid in sample[:7]
        ]
        assert col.link_rows([]).tolist() == []

    @pytest.mark.parametrize(
        "unknown",
        [
            ("pod0/tor0", "nowhere"),
            ("nowhere", "spine0"),
            ("spine0", "pod0/tor0"),  # reversed: not the canonical id
            ("pod0/tor0", "spine0"),  # both exist, no such link
            ("orphan", "dangling"),
        ],
    )
    def test_unknown_id_raises_key_error_naming_it(self, unknown):
        topo = self._irregular()
        cc = ColumnarPathCounter.for_topology(topo)
        known = ("pod0/tor0", "dangling")
        for ids in ([unknown], [known, unknown, ("x", "y")]):
            with pytest.raises(KeyError) as caught:
                cc.counts(extra_disabled=ids)
            assert caught.value.args == (unknown,)
        with pytest.raises(KeyError):
            cc.affected_tors(unknown)
        with pytest.raises(KeyError):
            ColumnarTopology.build_clos(1, 1, 1, 1).link_rows([unknown])

    def test_extra_disabled_forms(self):
        topo = self._irregular()
        pc = PathCounter(topo)
        cc = ColumnarPathCounter.for_topology(topo)
        links = sorted(topo.link_ids())
        extra = random.Random(2).sample(links, 9)
        want = pc.counts(extra)
        assert cc.counts(extra) == want
        assert cc.counts(extra + extra[:4]) == want  # duplicates
        assert cc.counts(lid for lid in extra) == want  # a generator
        assert cc.counts(frozenset(extra)) == want
        assert cc.counts([]) == cc.counts(iter(())) == pc.counts()
        assert cc.tor_fractions(extra) == pc.tor_fractions(extra)

    def test_segment_sum_equals_scatter_add_on_random_masks(self):
        def scatter_add(col, enabled):
            counts = np.zeros(col.num_switches, dtype=np.int64)
            counts[col.switch_stage == col.num_stages - 1] = 1
            stage_of_link = col.switch_stage[col.link_lower]
            for s in range(col.num_stages - 2, -1, -1):
                idx = np.nonzero((stage_of_link == s) & enabled)[0]
                np.add.at(
                    counts, col.link_lower[idx], counts[col.link_upper[idx]]
                )
            return counts

        rng = np.random.default_rng(5)
        for topo in (
            self._irregular(),
            build_multi_tier([6, 4, 3, 2], [2, 2, 2]),
            build_fattree(4),
        ):
            col = ColumnarTopology.from_topology(topo)
            cc = ColumnarPathCounter(col)
            everything = np.ones(col.num_links, dtype=np.bool_)
            assert cc._count(None).tolist() == scatter_add(col, everything).tolist()
            for keep in (0.0, 0.3, 0.8, 1.0):
                enabled = rng.random(col.num_links) < keep
                assert cc._count(enabled).tolist() == (
                    scatter_add(col, enabled).tolist()
                )
        names = ColumnarTopology.from_topology(self._irregular()).switch_names
        counts = ColumnarPathCounter.for_topology(self._irregular()).counts()
        assert counts["dangling"] == counts["orphan"] == 0
        assert set(counts) == set(names)
