"""Unit tests for the Topology container."""

import pytest

from repro.topology import Direction, Link, LinkState, Switch, Topology
from repro.topology.graph import LINK_COLUMNS


class TestConstruction:
    def test_minimum_stages(self):
        with pytest.raises(ValueError, match="at least"):
            Topology(num_stages=1)

    def test_duplicate_switch_rejected(self, small_clos):
        with pytest.raises(ValueError, match="duplicate switch"):
            small_clos.add_switch(Switch("pod0/tor0", stage=0))

    def test_duplicate_link_rejected(self, small_clos):
        with pytest.raises(ValueError, match="duplicate link"):
            small_clos.add_link("pod0/tor0", "pod0/agg0")

    def test_stage_out_of_range_rejected(self):
        topo = Topology(num_stages=2)
        with pytest.raises(ValueError, match="outside"):
            topo.add_switch(Switch("x", stage=5))

    def test_counts(self, small_clos):
        # 2 pods x 3 tors x 2 aggs + 2 pods x 2 aggs x 2 spine-group
        assert small_clos.num_links == 2 * 3 * 2 + 2 * 2 * 2
        assert small_clos.num_switches == 2 * (3 + 2) + 4


class TestLookup:
    def test_find_link_either_order(self, small_clos):
        a = small_clos.find_link("pod0/tor0", "pod0/agg0")
        b = small_clos.find_link("pod0/agg0", "pod0/tor0")
        assert a.link_id == b.link_id == ("pod0/tor0", "pod0/agg0")
        # Two views of one link: a write through one shows through both.
        a.state = LinkState.DRAINED
        assert b.state is LinkState.DRAINED

    def test_tors_and_spines(self, small_clos):
        assert len(small_clos.tors()) == 6
        assert len(small_clos.spines()) == 4
        assert all(small_clos.switch(t).stage == 0 for t in small_clos.tors())

    def test_uplinks_downlinks_consistent(self, small_clos):
        for lid in small_clos.link_ids():
            lower, upper = lid
            assert lid in small_clos.uplinks(lower)
            assert lid in small_clos.downlinks(upper)

    def test_switch_links_union(self, small_clos):
        agg = "pod0/agg0"
        links = small_clos.switch_links(agg)
        assert len(links) == 3 + 2  # 3 tors below, 2 spines above

    def test_tiers_above_tor(self, small_clos):
        assert small_clos.tiers_above_tor() == 2


class TestAdministrativeState:
    def test_disable_enable_roundtrip(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        small_clos.disable_link(lid)
        assert not small_clos.link(lid).enabled
        assert lid in small_clos.disabled_links()
        small_clos.enable_link(lid)
        assert small_clos.link(lid).enabled
        assert not small_clos.disabled_links()

    def test_drain_removes_from_service(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        small_clos.drain_link(lid)
        assert not small_clos.link(lid).enabled
        assert lid in small_clos.disabled_links()

    def test_corrupting_links_excludes_disabled(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        small_clos.set_corruption(lid, 1e-4)
        assert lid in small_clos.corrupting_links()
        small_clos.disable_link(lid)
        assert lid not in small_clos.corrupting_links()

    def test_set_corruption_validates_rate(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        with pytest.raises(ValueError):
            small_clos.set_corruption(lid, 1.5)
        with pytest.raises(ValueError):
            small_clos.set_corruption(lid, -0.1)

    def test_clear_corruption_clears_both_directions(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        small_clos.set_corruption(lid, 1e-3, Direction.UP)
        small_clos.set_corruption(lid, 1e-4, Direction.DOWN)
        small_clos.clear_corruption(lid)
        assert small_clos.link(lid).max_corruption_rate() == 0.0


class TestLiveIndexes:
    """corrupting_links() / disabled_links() answer from indexes kept by
    the mutators; they must equal a scan of every link, in ``_links``
    order, whatever happened before."""

    @staticmethod
    def scan(topo, threshold=1e-8):
        corrupting = [
            link.link_id
            for link in topo.links()
            if link.enabled and link.is_corrupting(threshold)
        ]
        disabled = {
            link.link_id for link in topo.links() if not link.enabled
        }
        return corrupting, disabled

    def check(self, topo):
        corrupting, disabled = self.scan(topo)
        assert topo.corrupting_links() == corrupting
        assert topo.disabled_links() == disabled
        assert topo.corrupting_links(1e-4) == self.scan(topo, 1e-4)[0]
        assert topo.corrupting_links(0.0) == self.scan(topo, 0.0)[0]
        assert topo.links_with_corruption() == {
            link.link_id
            for link in topo.links()
            if link.max_corruption_rate() > 0
        }

    def test_order_survives_interleaved_mutation_and_round_trips(
        self, small_clos
    ):
        import random

        from repro.topology.columnar import ColumnarTopology
        from repro.topology.serialization import (
            topology_from_dict,
            topology_to_dict,
        )

        topo = small_clos
        ids = list(topo.link_ids())
        rng = random.Random(5)
        for step in range(200):
            lid = rng.choice(ids)
            op = rng.randrange(7)
            if op == 0:
                topo.set_corruption(lid, 10 ** rng.uniform(-9, -2), Direction.UP)
            elif op == 1:
                topo.set_corruption(lid, 10 ** rng.uniform(-9, -2), Direction.DOWN)
            elif op == 2:
                topo.set_corruption(lid, 0.0, rng.choice(list(Direction)))
            elif op == 3:
                topo.clear_corruption(lid)
            elif op == 4:
                topo.disable_link(lid)
            elif op == 5:
                topo.drain_link(lid)
            else:
                topo.enable_link(lid)
            self.check(topo)
            if step % 40 == 39:
                for clone in (
                    topo.copy(),
                    topology_from_dict(topology_to_dict(topo)),
                    ColumnarTopology.from_topology(topo).to_topology(),
                ):
                    self.check(clone)
                    assert clone.corrupting_links() == topo.corrupting_links()
                    assert clone.disabled_links() == topo.disabled_links()
                    # The clone's indexes are its own.
                    clone.clear_corruption(ids[0])
                    clone.disable_link(ids[1])
                    self.check(clone)
                self.check(topo)

    def test_added_link_sorts_last(self, small_clos):
        first = next(small_clos.link_ids())
        small_clos.add_switch(Switch("pod0/agg-new", stage=1))
        new = small_clos.add_link("pod0/tor0", "pod0/agg-new")
        small_clos.set_corruption(new, 1e-3)
        small_clos.set_corruption(first, 1e-3)
        assert small_clos.corrupting_links() == [first, new]


class TestTraversal:
    def test_downstream_tors_of_agg(self, small_clos):
        tors = small_clos.downstream_tors("pod0/agg0")
        assert tors == {"pod0/tor0", "pod0/tor1", "pod0/tor2"}

    def test_downstream_tors_of_spine_spans_pods(self, small_clos):
        tors = small_clos.downstream_tors("spine0")
        assert len(tors) == 6  # plane wiring reaches every pod

    def test_downstream_skips_disabled_links(self, small_clos):
        small_clos.disable_link(("pod0/tor0", "pod0/agg0"))
        tors = small_clos.downstream_tors("pod0/agg0")
        assert "pod0/tor0" not in tors

    def test_upstream_links_covers_both_tiers(self, small_clos):
        links = small_clos.upstream_links(["pod0/tor0"])
        # 2 tor-agg links + 2 aggs x 2 spine links each
        assert len(links) == 2 + 4
        assert ("pod0/tor0", "pod0/agg0") in links

    def test_upstream_links_ignores_admin_state(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        small_clos.disable_link(lid)
        assert lid in small_clos.upstream_links(["pod0/tor0"])


    def test_tor_rows_below_follows_structure_not_admin_state(self, small_clos):
        row, names = small_clos.switch_row, small_clos.switch_names

        def below(switch):
            return {names[r] for r in small_clos.tor_rows_below(row[switch])}

        pod0 = {"pod0/tor0", "pod0/tor1", "pod0/tor2"}
        assert below("pod0/agg0") == pod0
        assert below("pod0/tor1") == {"pod0/tor1"}
        assert len(below("spine0")) == 6
        small_clos.disable_link(("pod0/tor0", "pod0/agg0"))
        assert below("pod0/agg0") == pod0
        small_clos.add_switch(Switch("new", stage=0))
        small_clos.add_link("new", "pod0/agg0")
        assert below("pod0/agg0") == pod0 | {"new"}
        assert below("pod0/agg1") == pod0
        assert "new" in below("spine0")


class TestInterop:
    def test_copy_preserves_state(self, small_clos):
        lid = ("pod0/tor0", "pod0/agg0")
        small_clos.set_corruption(lid, 1e-3)
        small_clos.disable_link(("pod1/tor0", "pod1/agg1"))
        clone = small_clos.copy()
        assert clone.num_links == small_clos.num_links
        assert clone.link(lid).max_corruption_rate() == 1e-3
        assert not clone.link(("pod1/tor0", "pod1/agg1")).enabled
        # Mutating the clone must not touch the original.
        clone.disable_link(lid)
        assert small_clos.link(lid).enabled

    def test_copy_clones_every_field_and_table(self):
        import dataclasses
        import random

        from repro.core import PathCounter
        from repro.topology import (
            assign_breakout_groups,
            build_clos,
            sprinkle_corruption,
        )

        topo = build_clos(3, 4, 3, 9)
        assign_breakout_groups(topo, fraction=0.5)
        rng = random.Random(3)
        sprinkle_corruption(topo, fraction=0.25, rng=rng)
        links = list(topo.link_ids())
        # Scattered rates, so index order differs from link order.
        for lid in rng.sample(links, 10):
            topo.set_corruption(lid, 1e-4, Direction.DOWN)
        topo.assign_lg_capable(0.5)
        for lid in rng.sample(links, 8):
            topo.disable_link(lid)
        topo.drain_link(rng.choice(links))
        protected = next(
            lid for lid in links
            if topo.link(lid).lg_capable and topo.link(lid).enabled
        )
        topo.protect_link(protected, 1e-8, 0.9)
        counter = PathCounter(topo)

        clone = topo.copy()
        assert clone.name == topo.name and clone.num_stages == topo.num_stages
        assert list(clone.link_ids()) == links
        # Every Link field (each one a property of the view), the ten a
        # Link dataclass had among them.
        fields = [
            name
            for name, value in vars(Link).items()
            if isinstance(value, property)
        ]
        assert {
            "lower", "upper", "state", "capacity_gbps", "breakout_group",
            "corruption_rate", "lg_capable", "lg_protected",
            "lg_effective_loss", "lg_capacity_fraction",
        } <= set(fields)
        for mine, theirs in zip(topo.links(), clone.links()):
            for name in fields:
                assert getattr(mine, name) == getattr(theirs, name), name
        for name in LINK_COLUMNS:
            assert getattr(clone, name) == getattr(topo, name), name
            assert getattr(clone, name) is not getattr(topo, name), name
        assert [dataclasses.asdict(s) for s in clone.switches()] == [
            dataclasses.asdict(s) for s in topo.switches()
        ]
        assert all(a is not b for a, b in zip(topo.switches(), clone.switches()))
        assert clone.corrupting_links() == topo.corrupting_links()
        assert clone.links_with_corruption() == topo.links_with_corruption()
        assert clone.disabled_links() == topo.disabled_links()
        assert clone.lg_protected_links() == {protected}
        for stage in range(topo.num_stages):
            assert clone.stage(stage) == topo.stage(stage)
        for switch in topo.switches():
            assert clone.uplinks(switch.name) == topo.uplinks(switch.name)
            assert clone.downlinks(switch.name) == topo.downlinks(switch.name)
        assert PathCounter(clone).counts() == counter.counts()
        # No listener came along: the original's counter ignores the clone.
        before = counter.stats.incremental_updates
        clone.enable_link(next(iter(clone.disabled_links())))
        assert counter.stats.incremental_updates == before
        assert clone.disabled_links() != topo.disabled_links()

        # Growth on either side stays on that side, in every table.
        clone.add_switch(Switch("clone-only", stage=0))
        added = clone.add_link("clone-only", "pod0/agg0")
        topo.add_switch(Switch("orig-only", stage=1))
        topo.add_link("pod0/tor0", "orig-only")
        assert not topo.has_switch("clone-only") and not topo.has_link(added)
        assert not clone.has_switch("orig-only")
        assert topo.num_links == clone.num_links == len(links) + 1
        assert added not in topo.downlinks("pod0/agg0")
        for side in (topo, clone):
            rebuilt = Topology(side.num_stages)
            rebuilt.__setstate__(side.__getstate__())
            for table in ("switch_row", "switch_names", "switch_stage",
                          "up_rows", "down_rows", "up_disabled", "link_row",
                          "lower_row", "upper_row", "_stages", "_uplinks",
                          "_downlinks") + LINK_COLUMNS:
                assert getattr(side, table) == getattr(rebuilt, table), table
            assert [link.link_id for link in side.links()] == list(
                side.link_ids()
            )
            assert PathCounter(side).counts() == PathCounter(rebuilt).counts()
