"""Tests for the ECMP routing substrate and disable-driven rerouting (§8)."""

import pytest

from repro.core import PathCounter
from repro.routing import (
    EcmpRouter,
    Flow,
    enumerate_up_paths,
    generate_tor_flows,
    plan_reroute,
)
from repro.topology import build_clos
from tests.path_counts import counts_of


@pytest.fixture
def topo():
    return build_clos(2, 3, 3, 9)


class TestEcmpRouter:
    def test_up_path_reaches_spine(self, topo):
        router = EcmpRouter(topo)
        flow = Flow("pod0/tor0", "pod1/tor0", 1)
        path = router.up_path(flow)
        assert path is not None
        assert len(path) == topo.tiers_above_tor()
        assert topo.link(path[-1]).upper in topo.spines()

    def test_paths_are_consistent_chains(self, topo):
        router = EcmpRouter(topo)
        for label in range(10):
            path = router.up_path(Flow("pod0/tor1", "pod1/tor2", label))
            for earlier, later in zip(path, path[1:]):
                assert topo.link(earlier).upper == topo.link(later).lower

    def test_deterministic_per_flow(self, topo):
        router = EcmpRouter(topo)
        flow = Flow("pod0/tor0", "pod1/tor1", 7)
        assert router.up_path(flow) == router.up_path(flow)

    def test_hashing_spreads_flows(self, topo):
        router = EcmpRouter(topo)
        first_hops = {
            router.up_path(Flow("pod0/tor0", "pod1/tor0", label))[0]
            for label in range(50)
        }
        assert len(first_hops) == 3  # all three uplinks used

    def test_disabled_links_excluded(self, topo):
        router = EcmpRouter(topo)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.disable_link(lid)
        for label in range(20):
            path = router.up_path(Flow("pod0/tor0", "pod1/tor0", label))
            assert lid not in path

    def test_stranded_when_no_uplinks(self, topo):
        for lid in list(topo.uplinks("pod0/tor0")):
            topo.disable_link(lid)
        router = EcmpRouter(topo)
        assert router.up_path(Flow("pod0/tor0", "pod1/tor0", 0)) is None

    def test_salt_changes_placement(self, topo):
        flows = [Flow("pod0/tor0", "pod1/tor0", l) for l in range(30)]
        a = [EcmpRouter(topo, salt=0).up_path(f) for f in flows]
        b = [EcmpRouter(topo, salt=1).up_path(f) for f in flows]
        assert a != b

    def test_flows_over_link(self, topo):
        router = EcmpRouter(topo)
        flows = [Flow("pod0/tor0", "pod1/tor0", l) for l in range(30)]
        lid = router.up_path(flows[0])[0]
        hit = router.flows_over_link(iter(flows), lid)
        assert flows[0] in hit
        for flow in hit:
            assert lid in router.up_path(flow)


class TestEnumeratePaths:
    def test_count_matches_path_counter(self, topo):
        counter = PathCounter(topo)
        paths = enumerate_up_paths(topo, "pod0/tor0")
        assert len(paths) == counts_of(counter)["pod0/tor0"]

    def test_respects_disables(self, topo):
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        counter = PathCounter(topo)
        paths = enumerate_up_paths(topo, "pod0/tor0")
        assert len(paths) == counts_of(counter)["pod0/tor0"]

    def test_limit(self, topo):
        paths = enumerate_up_paths(topo, "pod0/tor0", limit=2)
        assert len(paths) == 2


class TestReroutePlan:
    def test_accounting_adds_up(self, topo):
        flows = generate_tor_flows(topo, flows_per_tor=5)
        plan = plan_reroute(topo, ("pod0/agg0", "spine0"), flows)
        assert (
            plan.flows_moved + plan.unaffected + len(plan.stranded)
            == len(flows)
        )

    def test_topology_restored(self, topo):
        flows = generate_tor_flows(topo, flows_per_tor=2)
        lid = ("pod0/agg0", "spine0")
        plan_reroute(topo, lid, flows)
        assert topo.link(lid).enabled

    def test_flows_using_the_link_all_move(self, topo):
        """Every flow that traversed the disabled link must move (other
        flows may also move: removing an ECMP member renumbers the hash
        group, which is realistic ECMP behaviour)."""
        router = EcmpRouter(topo)
        flows = generate_tor_flows(topo, flows_per_tor=6)
        # Disable a link that is certainly in use: some flow's first hop.
        lid = router.up_path(flows[0])[0]
        users = router.flows_over_link(iter(flows), lid)
        plan = plan_reroute(topo, lid, flows)
        moved = {move.flow for move in plan.moves}
        assert users  # the scenario exercises something
        assert set(users) <= moved | set(plan.stranded)
        for move in plan.moves:
            assert lid not in move.new_path

    def test_flowlet_switching_avoids_reordering(self, topo):
        flows = generate_tor_flows(topo, flows_per_tor=6)
        lid = ("pod0/tor0", "pod0/agg1")
        with_flowlets = plan_reroute(topo, lid, flows, flowlet_switching=True)
        without = plan_reroute(topo, lid, flows, flowlet_switching=False)
        assert with_flowlets.reordering_count() == 0
        assert without.reordering_count() == without.flows_moved

    def test_no_stranding_under_capacity_constraints(self, topo):
        """As long as a ToR keeps at least one path, no flow strands."""
        flows = generate_tor_flows(topo, flows_per_tor=4)
        plan = plan_reroute(topo, ("pod1/agg2", "spine8"), flows)
        assert not plan.stranded
