"""Tests for breakout-cable grouping and JSON serialization."""

import pytest

from repro.topology import (
    Direction,
    Switch,
    assign_breakout_groups,
    build_clos,
    load_topology,
    repair_collateral,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)


class TestBreakout:
    def test_groups_have_requested_size(self):
        topo = build_clos(2, 4, 8, 32)
        groups = assign_breakout_groups(topo, fraction=0.5, links_per_cable=4)
        assert groups
        for members in groups.values():
            assert len(members) == 4

    def test_members_share_a_switch(self):
        topo = build_clos(2, 4, 8, 32)
        groups = assign_breakout_groups(topo, fraction=0.5)
        for members in groups.values():
            lowers = {lid[0] for lid in members}
            assert len(lowers) == 1  # all uplinks of one switch

    def test_links_marked_with_group(self):
        topo = build_clos(2, 4, 8, 32)
        groups = assign_breakout_groups(topo, fraction=0.5)
        for group_id, members in groups.items():
            for lid in members:
                assert topo.link(lid).breakout_group == group_id
            assert sorted(topo.breakout_members(group_id)) == sorted(members)

    def test_collateral_of_plain_link_is_itself(self):
        topo = build_clos(2, 2, 2, 4)
        lid = ("pod0/tor0", "pod0/agg0")
        assert repair_collateral(topo, lid) == {lid}

    def test_collateral_of_breakout_member_is_whole_cable(self):
        topo = build_clos(2, 4, 8, 32)
        groups = assign_breakout_groups(topo, fraction=0.5)
        group_id, members = next(iter(groups.items()))
        assert repair_collateral(topo, members[0]) == set(members)

    def test_invalid_fraction_rejected(self):
        topo = build_clos(2, 2, 2, 4)
        with pytest.raises(ValueError):
            assign_breakout_groups(topo, fraction=1.5)


class TestSerialization:
    def test_roundtrip_structure(self):
        topo = build_clos(2, 3, 2, 4)
        clone = topology_from_dict(topology_to_dict(topo))
        assert clone.num_links == topo.num_links
        assert clone.num_switches == topo.num_switches
        assert sorted(clone.link_ids()) == sorted(topo.link_ids())

    def test_roundtrip_preserves_state_and_corruption(self):
        topo = build_clos(2, 3, 2, 4)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-4, Direction.UP)
        topo.set_corruption(lid, 1e-6, Direction.DOWN)
        topo.disable_link(lid)
        topo.add_switch(Switch("extra/tor", stage=0, num_ports=48))
        topo.add_link("extra/tor", "pod0/agg0")
        assert topo.assign_lg_capable(0.5) > 0
        protected = next(
            other
            for other in topo.link_ids()
            if topo.link(other).lg_capable and topo.link(other).enabled
        )
        topo.set_corruption(protected, 1e-3, Direction.DOWN)
        topo.protect_link(protected, 1e-9, 0.8)
        clone = topology_from_dict(topology_to_dict(topo))
        link = clone.link(lid)
        assert not link.enabled
        assert link.corruption_rate[Direction.UP] == 1e-4
        assert link.corruption_rate[Direction.DOWN] == 1e-6
        assert clone.switch("extra/tor").num_ports == 48
        assert clone.switch("pod0/tor0").num_ports is None
        for mine, theirs in zip(topo.links(), clone.links()):
            assert mine.lg_capable == theirs.lg_capable, mine
        assert clone.lg_capable_count() == topo.lg_capable_count()
        assert clone.lg_protected_links() == {protected}
        assert clone.lg_version > 0
        shielded = clone.link(protected)
        assert shielded.lg_protected
        assert shielded.lg_effective_loss == 1e-9
        assert shielded.lg_capacity_fraction == 0.8
        # Protection survives as topology state: repairing the clone's
        # link drops it through the index the loader filled.
        clone.clear_corruption(protected)
        assert not clone.has_lg_protection()

    def test_version_1_file_without_new_keys_loads(self):
        """Files written before ``num_ports`` and the LinkGuardian fields
        were saved load with their defaults."""
        data = topology_to_dict(build_clos(2, 2, 2, 4))
        for sw in data["switches"]:
            del sw["num_ports"]
        for entry in data["links"]:
            for key in ("lg_capable", "lg_protected", "lg_effective_loss",
                        "lg_capacity_fraction"):
                del entry[key]
        clone = topology_from_dict(data)
        assert topology_to_dict(clone) == topology_to_dict(
            build_clos(2, 2, 2, 4)
        )

    def test_file_roundtrip(self, tmp_path):
        topo = build_clos(2, 2, 2, 4)
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        clone = load_topology(path)
        assert clone.num_links == topo.num_links
        assert clone.name == topo.name

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            topology_from_dict({"version": 99})
