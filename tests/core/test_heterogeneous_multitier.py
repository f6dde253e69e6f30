"""§5.1's two generalizations, exercised:

1. **Heterogeneous per-ToR constraints** — "If one ToR has a high capacity
   requirement c', all upstream switches need to keep r√c' uplinks active.
   A switch-local checker may not be able to disable a single link in
   extreme cases" — while CorrOpt only protects the demanding ToR's actual
   paths.
2. **Deeper networks** — with ``r`` tiers above the ToRs, the local
   threshold degrades to ``c^(1/r)``, widening the gap.
"""

import math

import pytest

from repro.core import (
    CapacityConstraint,
    FastChecker,
    GlobalOptimizer,
    PathCounter,
    SwitchLocalChecker,
)
from repro.topology import build_clos, build_multi_tier
from tests.path_counts import baseline_of


class TestHeterogeneousConstraints:
    def test_one_demanding_tor_paralyzes_switch_local(self):
        """With one 95%-ToR, sc = sqrt(0.95) forbids any switch from
        disabling a single uplink (floor(4 * 0.025) = 0) — even uplinks
        serving only relaxed ToRs."""
        topo = build_clos(4, 4, 4, 16)
        constraint = CapacityConstraint(0.5, {"pod0/tor0": 0.95})
        local = SwitchLocalChecker(topo, constraint)
        assert local.sc == pytest.approx(math.sqrt(0.95))
        # No switch can disable anything.
        for switch in ("pod0/tor0", "pod3/tor3", "pod2/agg1"):
            assert local._budget(topo.switch_row[switch])[1] == 0

        # CorrOpt still freely disables links in other pods.
        exact = FastChecker(topo, constraint)
        assert exact.check(("pod3/tor3", "pod3/agg0")).allowed

    def test_fast_checker_protects_only_the_demanding_tor(self):
        topo = build_clos(2, 2, 4, 16)
        constraint = CapacityConstraint(0.25, {"pod0/tor0": 0.95})
        checker = FastChecker(topo, constraint)
        # An uplink of the demanding ToR: 12/16 = 0.75 < 0.95 -> rejected.
        result = checker.check(("pod0/tor0", "pod0/agg0"))
        assert not result.allowed
        assert "pod0/tor0" in result.violated_tors
        # The relaxed sibling ToR can lose the same agg's uplink.
        assert checker.check(("pod0/tor1", "pod0/agg0")).allowed

    def test_optimizer_respects_mixed_thresholds(self):
        topo = build_clos(2, 2, 4, 16)
        constraint = CapacityConstraint(0.5, {"pod0/tor0": 0.9})
        for agg in range(4):
            topo.set_corruption(("pod0/tor0", f"pod0/agg{agg}"), 1e-3)
            topo.set_corruption(("pod0/tor1", f"pod0/agg{agg}"), 1e-3)
        result = GlobalOptimizer(topo, constraint).optimize()
        fractions = PathCounter(topo).tor_fractions()
        assert fractions["pod0/tor0"] >= 0.9 - 1e-9
        assert fractions["pod0/tor1"] >= 0.5 - 1e-9
        # The relaxed ToR gave up more links.
        tor0_disabled = sum(
            1 for lid in result.to_disable if lid[0] == "pod0/tor0"
        )
        tor1_disabled = sum(
            1 for lid in result.to_disable if lid[0] == "pod0/tor1"
        )
        assert tor1_disabled > tor0_disabled


class TestMultiTier:
    @pytest.fixture
    def four_stage(self):
        # ToR - agg - core - spine, fanout 4/4/4: baseline 64 paths.
        return build_multi_tier([16, 16, 8, 4], [4, 4, 4])

    def test_baseline_paths(self, four_stage):
        counter = PathCounter(four_stage)
        assert baseline_of(counter)["tor0"] == 4 * 4 * 4

    def test_local_threshold_uses_cube_root(self, four_stage):
        checker = SwitchLocalChecker(four_stage, CapacityConstraint(0.5))
        assert checker.sc == pytest.approx(0.5 ** (1 / 3))
        # cube root of 0.5 ~ 0.794: floor(4 * 0.206) = 0 disables allowed.
        assert checker._budget(four_stage.switch_row["tor0"])[1] == 0

    def test_fast_checker_disables_where_local_cannot(self, four_stage):
        constraint = CapacityConstraint(0.5)
        local = SwitchLocalChecker(four_stage, constraint)
        exact = FastChecker(four_stage, constraint)
        lid = sorted(four_stage.uplinks("tor0"))[0]
        assert not local.check(lid).allowed
        # Losing one of four uplinks leaves 75% of paths: fine at 50%.
        assert exact.check(lid).allowed

    def test_gap_widens_with_depth(self):
        """The same c produces a stricter local threshold in deeper
        networks: sc(3 tiers) > sc(2 tiers) for c < 1."""
        three_tier = build_clos(2, 2, 4, 16)
        four_tier = build_multi_tier([8, 8, 8, 4], [4, 4, 2])
        c = CapacityConstraint(0.6)
        sc3 = SwitchLocalChecker(three_tier, c).sc
        sc4 = SwitchLocalChecker(four_tier, c).sc
        assert sc4 > sc3

    def test_optimizer_exact_on_four_stages(self, four_stage):
        from tests.oracles.brute_force import brute_force_optimal

        links = sorted(four_stage.link_ids())
        for lid in links[:6]:
            four_stage.set_corruption(lid, 1e-3)
        constraint = CapacityConstraint(0.5)
        _best, brute_residual = brute_force_optimal(four_stage, constraint)
        result = GlobalOptimizer(four_stage, constraint).plan()
        assert result.residual_penalty == pytest.approx(brute_residual)

    def test_fast_checker_capacity_invariant_holds(self, four_stage):
        from repro.topology import sprinkle_corruption

        sprinkle_corruption(four_stage, fraction=0.3)
        constraint = CapacityConstraint(0.4)
        checker = FastChecker(four_stage, constraint)
        checker.sweep(four_stage.corrupting_links())
        fractions = PathCounter(four_stage).tor_fractions()
        assert not constraint.violations(fractions)
