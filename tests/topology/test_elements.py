"""Unit tests for topology elements (switches, links, directions)."""

import pytest

from repro.topology.elements import Direction, LinkState, Switch
from repro.topology.graph import Topology


def Link(lower, upper):
    """A view of the one link of a two-switch topology."""
    topo = Topology(num_stages=2)
    topo.add_switch(Switch(lower, stage=0))
    topo.add_switch(Switch(upper, stage=1))
    return topo.link(topo.add_link(lower, upper))


class TestDirection:
    def test_reverse_up(self):
        assert Direction.UP.reverse() is Direction.DOWN

    def test_reverse_down(self):
        assert Direction.DOWN.reverse() is Direction.UP

    def test_double_reverse_is_identity(self):
        for direction in Direction:
            assert direction.reverse().reverse() is direction


class TestSwitch:

    def test_defaults(self):
        sw = Switch("x", stage=2)
        assert sw.pod is None
        assert not sw.deep_buffer


class TestLink:
    def test_link_id_orders_lower_first(self):
        link = Link(lower="tor", upper="agg")
        assert link.link_id == ("tor", "agg")

    def test_new_link_is_enabled_and_healthy(self):
        link = Link(lower="a", upper="b")
        assert link.enabled
        assert link.max_corruption_rate() == 0.0

    def test_disabled_states_not_enabled(self):
        link = Link(lower="a", upper="b")
        link.state = LinkState.DISABLED
        assert not link.enabled
        link.state = LinkState.DRAINED
        assert not link.enabled

    def test_max_corruption_rate_takes_worse_direction(self):
        link = Link(lower="a", upper="b")
        link._topo.set_corruption(link.link_id, 1e-6, Direction.UP)
        link._topo.set_corruption(link.link_id, 1e-3, Direction.DOWN)
        assert link.max_corruption_rate() == 1e-3

    def test_is_corrupting_threshold(self):
        link = Link(lower="a", upper="b")
        topo = link._topo
        topo.set_corruption(link.link_id, 1e-9, Direction.UP)
        assert link.link_id not in topo.corrupting_links(threshold=1e-8)
        topo.set_corruption(link.link_id, 1e-8, Direction.UP)
        assert link.link_id in topo.corrupting_links(threshold=1e-8)

    def test_direction_ids(self):
        link = Link(lower="a", upper="b")
        assert link.direction_id(Direction.UP) == ("a", "b")
        assert link.direction_id(Direction.DOWN) == ("b", "a")


class TestCanonicalLinkId:
    """``add_link`` orders endpoints into the canonical ``(lower, upper)``
    id and refuses pairs that do not span exactly one stage."""

    @staticmethod
    def staged(**stages):
        topo = Topology(num_stages=3)
        for name, stage in stages.items():
            topo.add_switch(Switch(name, stage=stage))
        return topo

    def test_orders_by_stage(self):
        assert self.staged(agg=1, tor=0).add_link("agg", "tor") == ("tor", "agg")
        assert self.staged(agg=1, tor=0).add_link("tor", "agg") == ("tor", "agg")

    def test_rejects_same_stage(self):
        with pytest.raises(ValueError, match="adjacent"):
            self.staged(a=1, b=1).add_link("a", "b")

    def test_rejects_stage_skipping(self):
        with pytest.raises(ValueError, match="adjacent"):
            self.staged(tor=0, spine=2).add_link("tor", "spine")
