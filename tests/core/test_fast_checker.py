"""Tests for CorrOpt's fast checker."""

import pytest

from repro.core import CapacityConstraint, FastChecker, PathCounter
from repro.topology import build_clos
from tests.path_counts import counts_of


class TestSingleLinkDecisions:
    def test_allows_when_headroom_exists(self, medium_clos):
        # 4 aggs x 4 spines/plane = 16 baseline; one tor-agg link costs 4
        # paths -> 12/16 = 0.75 >= 0.5.
        checker = FastChecker(medium_clos, CapacityConstraint(0.5))
        lid = ("pod0/tor0", "pod0/agg0")
        medium_clos.set_corruption(lid, 1e-3)
        result = checker.check(lid)
        assert result.allowed
        tors, fractions = checker.counter.fractions_without(
            medium_clos.link_row[lid]
        )
        names = [medium_clos.switch_names[tor] for tor in tors]
        assert fractions[names.index("pod0/tor0")] == pytest.approx(0.75)

    def test_rejects_when_constraint_would_break(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.8))
        lid = ("pod0/tor0", "pod0/agg0")
        result = checker.check(lid)
        assert not result.allowed
        assert "pod0/tor0" in result.violated_tors

    def test_boundary_fraction_satisfies_despite_float_rounding(self):
        """3 of 10 paths against a threshold of 0.1 + 0.2 (which is
        0.30000000000000004): the epsilon of ``satisfied_by`` is in the
        threshold column too, per ToR override included."""
        from repro.core import GlobalOptimizer
        from repro.topology import Switch, Topology

        topo = Topology(num_stages=2)
        for tor in ("t0", "t1"):
            topo.add_switch(Switch(tor, stage=0))
        for s in range(10):
            topo.add_switch(Switch(f"s{s}", stage=1))
            topo.add_link("t0", f"s{s}")
            topo.add_link("t1", f"s{s}")
        for s in range(6):
            topo.disable_link(("t0", f"s{s}"))
            topo.disable_link(("t1", f"s{s}"))
        assert 0.3 < 0.1 + 0.2
        for constraint in (
            CapacityConstraint(0.1 + 0.2),
            CapacityConstraint(0.9, {"t0": 0.1 + 0.2, "t1": 0.1 + 0.2}),
        ):
            checker = FastChecker(topo, constraint)
            for tor in ("t0", "t1"):
                result = checker.check((tor, "s6"))
                tors, fractions = checker.counter.fractions_without(
                    topo.link_row[(tor, "s6")]
                )
                assert [topo.switch_names[row] for row in tors] == [tor]
                assert result.allowed and fractions == [0.3]
            topo.set_corruption(("t0", "s6"), 1e-3)
            plan = GlobalOptimizer(topo, constraint).plan()
            assert plan.to_disable == {("t0", "s6")}
            topo.clear_corruption(("t0", "s6"))

    def test_check_does_not_mutate(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.5))
        lid = ("pod0/tor0", "pod0/agg0")
        checker.check(lid)
        assert medium_clos.link(lid).enabled

    def test_check_and_disable_mutates_on_allow(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.5))
        lid = ("pod0/tor0", "pod0/agg0")
        assert checker.check_and_disable(lid).allowed
        assert not medium_clos.link(lid).enabled

    def test_check_and_disable_keeps_on_reject(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.9))
        lid = ("pod0/tor0", "pod0/agg0")
        assert not checker.check_and_disable(lid).allowed
        assert medium_clos.link(lid).enabled

    def test_already_disabled_link_trivially_allowed(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.5))
        lid = ("pod0/tor0", "pod0/agg0")
        medium_clos.disable_link(lid)
        assert checker.check(lid).allowed


class TestGlobalAwareness:
    def test_considers_paths_not_just_local_uplinks(self):
        """A link whose switch has plenty of uplinks can still be rejected
        because a ToR below lost paths elsewhere — the scenario
        switch-local checks get wrong."""
        topo = build_clos(2, 2, 4, 16)
        # ToR baseline: 4 aggs x 4 = 16 paths.  Cut 2 of tor0's uplinks.
        topo.disable_link(("pod0/tor0", "pod0/agg0"))
        topo.disable_link(("pod0/tor0", "pod0/agg1"))
        checker = FastChecker(topo, CapacityConstraint(0.5))
        # tor0 is at exactly 8/16 = 0.5.  agg2 has all 4 spine uplinks, but
        # disabling one drops tor0 to 7/16 < 0.5.
        result = checker.check(("pod0/agg2", "spine8"))
        assert not result.allowed
        assert "pod0/tor0" in result.violated_tors

    def test_cross_pod_independence(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.5))
        # Exhaust pod0's headroom; pod1 decisions must be unaffected.
        medium_clos.disable_link(("pod0/tor0", "pod0/agg0"))
        medium_clos.disable_link(("pod0/tor0", "pod0/agg1"))
        assert checker.check(("pod1/tor0", "pod1/agg0")).allowed


class TestSweep:
    def test_sweep_orders_by_rate(self, medium_clos):
        checker = FastChecker(medium_clos, CapacityConstraint(0.7))
        low = ("pod0/tor0", "pod0/agg0")
        high = ("pod0/tor0", "pod0/agg1")
        medium_clos.set_corruption(low, 1e-6)
        medium_clos.set_corruption(high, 1e-2)
        results = checker.sweep([low, high])
        # Only one of tor0's uplinks can go at 70%; the worse one must win.
        assert results[0].link_id == high
        assert results[0].allowed
        assert not results[1].allowed
        assert not medium_clos.link(high).enabled
        assert medium_clos.link(low).enabled

    def test_sweep_maximality(self, medium_clos):
        """After a sweep, no remaining corrupting link can be disabled
        (§5.1: the network state after the fast checker runs is maximal)."""
        from repro.topology import sprinkle_corruption

        sprinkle_corruption(medium_clos, fraction=0.3)
        constraint = CapacityConstraint(0.6)
        checker = FastChecker(medium_clos, constraint)
        checker.sweep(medium_clos.corrupting_links())
        for lid in medium_clos.corrupting_links():
            assert not checker.check(lid).allowed

    def test_shared_counter_consistency(self, medium_clos):
        counter = PathCounter(medium_clos)
        checker = FastChecker(
            medium_clos, CapacityConstraint(0.5), counter=counter
        )
        assert checker.counter is counter
        lid = ("pod0/tor0", "pod0/agg0")
        checker.check_and_disable(lid)
        assert counts_of(counter)["pod0/tor0"] == 12
