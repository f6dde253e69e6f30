"""Tests for the switch-local baseline checker."""

import math

import pytest

from repro.core import (
    CapacityConstraint,
    PathCounter,
    SwitchLocalChecker,
)
from repro.topology import build_clos, build_multi_tier


def max_disabled(checker, switch):
    """How many of ``switch``'s uplinks the checker lets go in total."""
    return checker._budget(checker._topo.switch_row[switch])[1]


class TestThresholdDerivation:
    def test_sqrt_mapping_for_three_stage(self, medium_clos):
        checker = SwitchLocalChecker(medium_clos, CapacityConstraint(0.6))
        assert checker.sc == pytest.approx(math.sqrt(0.6))

    def test_rth_root_for_deeper_networks(self):
        topo = build_multi_tier([8, 8, 8, 4], [4, 4, 2])
        checker = SwitchLocalChecker(topo, CapacityConstraint(0.5))
        assert checker.sc == pytest.approx(0.5 ** (1 / 3))

    def test_strictest_tor_governs(self, medium_clos):
        constraint = CapacityConstraint(0.5, {"pod0/tor0": 0.9})
        checker = SwitchLocalChecker(medium_clos, constraint)
        assert checker.sc == pytest.approx(math.sqrt(0.9))

    def test_explicit_sc_override(self, medium_clos):
        checker = SwitchLocalChecker(
            medium_clos, CapacityConstraint(0.6), sc=0.6
        )
        assert checker.sc == 0.6

    def test_invalid_sc_rejected(self, medium_clos):
        with pytest.raises(ValueError):
            SwitchLocalChecker(medium_clos, CapacityConstraint(0.5), sc=1.5)


class TestBudget:
    def test_max_disabled_floor(self, medium_clos):
        # ToRs have 4 uplinks; sc = sqrt(0.75) ~ 0.866 -> floor(4*0.134)=0.
        checker = SwitchLocalChecker(medium_clos, CapacityConstraint(0.75))
        assert max_disabled(checker, "pod0/tor0") == 0
        # Aggs have 4 spine uplinks -> also 0.  With sc=0.6: floor(1.6)=1.
        loose = SwitchLocalChecker(medium_clos, CapacityConstraint(0.6), sc=0.6)
        assert max_disabled(loose, "pod0/tor0") == 1

    def test_check_respects_budget(self, medium_clos):
        checker = SwitchLocalChecker(
            medium_clos, CapacityConstraint(0.5), sc=0.5
        )
        # Budget: floor(4 * 0.5) = 2 disables per switch.
        a, b, c = (
            ("pod0/tor0", "pod0/agg0"),
            ("pod0/tor0", "pod0/agg1"),
            ("pod0/tor0", "pod0/agg2"),
        )
        assert checker.check_and_disable(a).allowed
        assert checker.check_and_disable(b).allowed
        result = checker.check_and_disable(c)
        assert not result.allowed
        assert result.active_uplinks == 2
        assert medium_clos.link(c).enabled

    def test_budget_is_per_switch(self, medium_clos):
        checker = SwitchLocalChecker(
            medium_clos, CapacityConstraint(0.5), sc=0.5
        )
        assert checker.check_and_disable(("pod0/tor0", "pod0/agg0")).allowed
        assert checker.check_and_disable(("pod0/tor0", "pod0/agg1")).allowed
        # Different switch, fresh budget.
        assert checker.check_and_disable(("pod0/tor1", "pod0/agg0")).allowed


class TestBudgetFloatBoundaries:
    """``max_disabled`` must be exactly ``floor(m * (1 - sc))``.

    The old ``int(m * (1.0 - sc))`` truncation lost a whole disable
    whenever ``1 - sc`` rounded just below the true value (e.g.
    ``1 - 0.9 = 0.09999999999999998``), which silently tightened the
    baseline and skewed strategy comparisons.
    """

    def _checker(self, m, sc):
        topo = build_clos(1, 1, m, m * m)
        return SwitchLocalChecker(topo, CapacityConstraint(0.5), sc=sc)

    def test_sc_09_m_10(self):
        # floor(10 * 0.1) = 1; naive float truncation gives int(0.999...) = 0.
        assert max_disabled(self._checker(10, 0.9), "pod0/tor0") == 1

    def test_sc_08_m_5(self):
        # floor(5 * 0.2) = 1; naive gives int(0.999...) = 0.
        assert max_disabled(self._checker(5, 0.8), "pod0/tor0") == 1

    def test_derived_sc_hitting_whole_number(self):
        # c = 0.49, r = 2 -> sc = sqrt(0.49) = 0.7000000000000001; with
        # m = 10 the exact budget is floor(10 * 0.3) = 3, but the naive
        # truncation of 10 * 0.29999999999999993 gives 2.
        topo = build_clos(1, 1, 10, 100)
        checker = SwitchLocalChecker(topo, CapacityConstraint(0.49))
        assert checker.sc == pytest.approx(0.7)
        assert max_disabled(checker, "pod0/tor0") == 3

    def test_exact_thresholds_small_m(self):
        # Cases where m * sc is a whole number: budget must not jump the
        # integer boundary in either direction.
        for m, sc, expected in [
            (4, 0.5, 2),
            (4, 0.75, 1),
            (3, 1.0, 0),
            (3, 0.0, 3),
            (8, 0.25, 6),
        ]:
            assert (
                max_disabled(self._checker(m, sc), "pod0/tor0") == expected
            ), (m, sc)

    def test_budget_usable_in_check(self):
        # With sc = 0.9 and 10 uplinks one disable is genuinely admissible;
        # the old truncation rejected it.
        checker = self._checker(10, 0.9)
        assert checker.check_and_disable(("pod0/tor0", "pod0/agg0")).allowed
        assert not checker.check(("pod0/tor0", "pod0/agg1")).allowed


class TestAlreadyDisabledHarmonized:
    """A disabled link is already mitigated: ``check`` reports allowed
    (matching :class:`FastChecker`) and consumes no budget."""

    def test_disabled_link_is_allowed(self, medium_clos):
        from repro.core import FastChecker

        constraint = CapacityConstraint(0.5)
        local = SwitchLocalChecker(medium_clos, constraint, sc=0.5)
        exact = FastChecker(medium_clos, constraint)
        lid = ("pod0/tor0", "pod0/agg0")
        medium_clos.disable_link(lid)
        assert local.check(lid).allowed
        assert exact.check(lid).allowed  # the two checkers agree

    def test_no_redisable_side_effects(self, medium_clos):
        local = SwitchLocalChecker(
            medium_clos, CapacityConstraint(0.5), sc=0.5
        )
        lid = ("pod0/tor0", "pod0/agg0")
        medium_clos.drain_link(lid)
        result = local.check_and_disable(lid)
        assert result.allowed
        # Drained stays drained: no spurious DRAINED -> DISABLED flip.
        from repro.topology import LinkState

        assert medium_clos.link(lid).state is LinkState.DRAINED

    def test_reevaluate_skips_disabled(self, medium_clos):
        local = SwitchLocalChecker(
            medium_clos, CapacityConstraint(0.5), sc=0.5
        )
        lid = ("pod0/tor0", "pod0/agg0")
        medium_clos.set_corruption(lid, 1e-3)
        medium_clos.disable_link(lid)
        # Already-mitigated links are not "newly disabled" on re-evaluation.
        assert local.reevaluate() == []


class TestSuboptimality:
    def test_misses_links_fast_checker_allows(self):
        """The conservative sc = sqrt(c) rejects disables that exact path
        counting proves safe — the core §5.1 observation."""
        from repro.core import FastChecker

        topo = build_clos(2, 2, 4, 16)
        constraint = CapacityConstraint(0.75)
        local = SwitchLocalChecker(topo, constraint)
        exact = FastChecker(topo, constraint)
        lid = ("pod0/tor0", "pod0/agg0")
        # ToR loses 4 of 16 paths -> 0.75, exactly feasible.
        assert exact.check(lid).allowed
        # Switch-local: floor(4 * (1 - 0.93)) = 0 -> rejected.
        assert not local.check(lid).allowed

    def test_naive_sc_mapping_can_violate_capacity(self):
        """Figure 10(a): sc = c lets every switch disable locally while the
        ToR's actual path fraction collapses below c."""
        topo = build_clos(1, 1, 5, 25)  # T with 5 aggs, 5 spines each
        c = 0.6
        naive = SwitchLocalChecker(topo, CapacityConstraint(c), sc=c)
        # Disable 2 of T's uplinks and 2 spine uplinks of each live agg.
        tor_up = list(topo.uplinks("pod0/tor0"))
        for lid in tor_up[:2]:
            assert naive.check_and_disable(lid).allowed
        for agg_index in range(2, 5):
            agg = f"pod0/agg{agg_index}"
            for lid in list(topo.uplinks(agg))[:2]:
                assert naive.check_and_disable(lid).allowed
        fractions = PathCounter(topo).tor_fractions()
        assert fractions["pod0/tor0"] == pytest.approx(9 / 25)
        assert fractions["pod0/tor0"] < c  # constraint violated!

    def test_sqrt_sc_mapping_guarantees_capacity(self):
        """Figure 10(b): sc = sqrt(c) can never break the ToR constraint in
        a 3-stage Clos, no matter which subset it disables."""
        topo = build_clos(1, 1, 5, 25)
        c = 0.6
        checker = SwitchLocalChecker(topo, CapacityConstraint(c))
        # Greedily disable as much as the local budget allows, everywhere.
        for lid in sorted(topo.link_ids()):
            checker.check_and_disable(lid)
        fractions = PathCounter(topo).tor_fractions()
        assert fractions["pod0/tor0"] >= c - 1e-9


class TestReevaluate:
    def test_reevaluate_disables_after_capacity_frees(self, medium_clos):
        checker = SwitchLocalChecker(
            medium_clos, CapacityConstraint(0.5), sc=0.5
        )
        links = [
            ("pod0/tor0", "pod0/agg0"),
            ("pod0/tor0", "pod0/agg1"),
            ("pod0/tor0", "pod0/agg2"),
        ]
        for lid in links:
            medium_clos.set_corruption(lid, 1e-3)
        checker.check_and_disable(links[0])
        checker.check_and_disable(links[1])
        assert not checker.check_and_disable(links[2]).allowed
        # Repair one: re-enable and clear, then reevaluate.
        medium_clos.clear_corruption(links[0])
        medium_clos.enable_link(links[0])
        newly = checker.reevaluate()
        assert newly == [links[2]]
