"""LinkGuardian rival strategies: performance table, topology plumbing,
effective-capacity accounting, and the head-to-head behaviours.

The model follows the LinkGuardian paper's published operating envelope:
link-local retransmission masks a corrupting link down to a residual loss
of ~1e-9..1e-7 at 93..99.9% effective capacity, up to a 1e-2 loss-rate
operating limit.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import CapacityConstraint
from repro.core.path_counting import PathCounter
from repro.simulation import make_scenario, run_scenario
from repro.simulation.strategies import (
    LG_PERFORMANCE_TABLE,
    LinkGuardianCorrOptStrategy,
    LinkGuardianStrategy,
    STRATEGY_KNOBS,
    STRATEGY_NAMES,
    build_strategy,
    lg_performance,
)


# --------------------------------------------------------------------- #
# Performance table / interpolation
# --------------------------------------------------------------------- #


class TestLgPerformance:
    def test_zero_rate_is_perfect(self):
        assert lg_performance(0.0) == (0.0, 1.0)
        assert lg_performance(-1.0) == (0.0, 1.0)

    def test_anchor_rows_are_reproduced(self):
        for rate, eff_loss, eff_cap in LG_PERFORMANCE_TABLE:
            got_loss, got_cap = lg_performance(rate)
            assert got_loss == pytest.approx(eff_loss)
            assert got_cap == pytest.approx(eff_cap)

    def test_above_operating_limit_clamps_to_last_row(self):
        last = LG_PERFORMANCE_TABLE[-1]
        assert lg_performance(0.5) == (last[1], last[2])

    def test_effective_loss_never_exceeds_raw_rate(self):
        # A tiny raw rate below the first anchor's residual loss cannot
        # be made *worse* by protection.
        rate = 1e-12
        eff_loss, _ = lg_performance(rate)
        assert eff_loss <= rate

    @given(rate=st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_outputs_in_range(self, rate):
        eff_loss, eff_cap = lg_performance(rate)
        assert 0.0 <= eff_loss <= rate
        assert 0.0 < eff_cap <= 1.0

    @given(
        lo=st.floats(min_value=1e-9, max_value=1.0),
        hi=st.floats(min_value=1e-9, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_rate(self, lo, hi):
        """Worse links never yield better masked behaviour."""
        if lo > hi:
            lo, hi = hi, lo
        loss_lo, cap_lo = lg_performance(lo)
        loss_hi, cap_hi = lg_performance(hi)
        assert loss_lo <= loss_hi + 1e-18
        assert cap_lo >= cap_hi

    def test_interpolation_stays_between_anchors(self):
        (r0, l0, c0), (r1, l1, c1) = LG_PERFORMANCE_TABLE[2:4]
        mid = math.sqrt(r0 * r1)  # log-midpoint
        eff_loss, eff_cap = lg_performance(mid)
        assert l0 <= eff_loss <= l1
        assert c1 <= eff_cap <= c0


# --------------------------------------------------------------------- #
# Topology plumbing
# --------------------------------------------------------------------- #


def _some_link(topo):
    return next(iter(topo.links()))


class TestTopologyLgPlumbing:
    def test_assign_lg_capable_is_deterministic(self, small_clos):
        other = small_clos.copy()
        count = small_clos.assign_lg_capable(0.5)
        assert other.assign_lg_capable(0.5) == count
        flags = {lid: small_clos.link(lid).lg_capable
                 for lid in small_clos.link_ids()}
        assert flags == {lid: other.link(lid).lg_capable
                        for lid in other.link_ids()}
        assert 0 < count < small_clos.num_links

    def test_assign_extremes(self, small_clos):
        assert small_clos.assign_lg_capable(0.0) == 0
        assert small_clos.assign_lg_capable(1.0) == small_clos.num_links
        with pytest.raises(ValueError):
            small_clos.assign_lg_capable(1.5)

    def test_protect_requires_capability(self, small_clos):
        link_id = _some_link(small_clos).link_id
        small_clos.set_corruption(link_id, 1e-3)
        with pytest.raises(ValueError, match="capable"):
            small_clos.protect_link(link_id, 1e-8, 0.985)

    def test_protect_and_clear_roundtrip(self, small_clos):
        link_id = _some_link(small_clos).link_id
        small_clos.link(link_id).lg_capable = True
        small_clos.set_corruption(link_id, 1e-3)
        small_clos.protect_link(link_id, 1e-8, 0.985)
        link = small_clos.link(link_id)
        assert link.lg_protected
        assert link.lg_effective_loss == pytest.approx(1e-8)
        assert link.lg_capacity_fraction == pytest.approx(0.985)
        assert small_clos._lg_protected == {link_id}
        # Repair clears corruption -> protection must drop too (the
        # invariant is protected implies corrupting).
        small_clos.clear_corruption(link_id)
        assert not small_clos.link(link_id).lg_protected
        assert not small_clos.has_lg_protection()
        assert link.lg_capacity_fraction == 1.0

    def test_copy_preserves_lg_state(self, small_clos):
        link_id = _some_link(small_clos).link_id
        small_clos.link(link_id).lg_capable = True
        small_clos.set_corruption(link_id, 1e-3)
        small_clos.protect_link(link_id, 1e-8, 0.985)
        clone = small_clos.copy()
        assert clone._lg_protected == {link_id}
        assert clone.link(link_id).lg_capacity_fraction == pytest.approx(0.985)
        # And the clone's protections are independent of the original.
        clone.unprotect_link(link_id)
        assert small_clos._lg_protected == {link_id}


class TestEffectiveCapacityCounting:
    def test_matches_integer_dp_without_protections(self, small_clos):
        counter = PathCounter(small_clos)
        assert counter.effective_tor_fractions() == counter.tor_fractions()

    def test_protected_link_counts_fractionally(self, figure10_topology):
        topo = figure10_topology
        counter = PathCounter(topo)
        link_id = ("T", "A")
        topo.link(link_id).lg_capable = True
        topo.set_corruption(link_id, 1e-3)
        topo.protect_link(link_id, 1e-8, 0.9)
        # T has 5 uplinks; one now carries 90% of its paths.
        assert counter.effective_tor_fractions()["T"] == pytest.approx(
            (0.9 + 4.0) / 5.0
        )
        # The integer DP still sees the link as fully up.
        assert counter.tor_fractions()["T"] == pytest.approx(1.0)

    def test_disabled_beats_protected(self, figure10_topology):
        topo = figure10_topology
        counter = PathCounter(topo)
        link_id = ("T", "A")
        topo.link(link_id).lg_capable = True
        topo.set_corruption(link_id, 1e-3)
        topo.protect_link(link_id, 1e-8, 0.9)
        topo.disable_link(link_id)
        assert counter.effective_tor_fractions()["T"] == pytest.approx(0.8)


# --------------------------------------------------------------------- #
# Strategy behaviour
# --------------------------------------------------------------------- #


def _strategy_env(topo, coverage=1.0):
    topo.assign_lg_capable(coverage)
    return CapacityConstraint(0.75)


class TestLinkGuardianStrategy:
    def test_protects_and_keeps_link_up(self, medium_clos):
        constraint = _strategy_env(medium_clos)
        strategy = LinkGuardianStrategy(medium_clos, constraint)
        link_id = _some_link(medium_clos).link_id
        medium_clos.set_corruption(link_id, 1e-3)
        assert strategy.on_onset(link_id) is False
        assert medium_clos.link(link_id).enabled
        assert medium_clos.link(link_id).lg_protected
        assert strategy.protections == 1
        # The masked rate is below the corruption-penalty threshold.
        assert medium_clos.link(link_id).lg_effective_loss < 1e-7

    def test_respects_operating_limit(self, medium_clos):
        constraint = _strategy_env(medium_clos)
        strategy = LinkGuardianStrategy(medium_clos, constraint)
        link_id = _some_link(medium_clos).link_id
        medium_clos.set_corruption(link_id, 5e-2)  # > 1e-2 limit
        assert strategy.on_onset(link_id) is False
        assert not medium_clos.link(link_id).lg_protected
        assert strategy.protections == 0

    def test_incapable_link_stays_unprotected(self, medium_clos):
        constraint = _strategy_env(medium_clos, coverage=0.0)
        strategy = LinkGuardianStrategy(medium_clos, constraint)
        link_id = _some_link(medium_clos).link_id
        medium_clos.set_corruption(link_id, 1e-3)
        assert strategy.on_onset(link_id) is False
        assert not medium_clos.link(link_id).lg_protected

    def test_lg_corropt_disables_where_incapable(self, medium_clos):
        constraint = _strategy_env(medium_clos, coverage=0.0)
        strategy = LinkGuardianCorrOptStrategy(medium_clos, constraint)
        link_id = _some_link(medium_clos).link_id
        medium_clos.set_corruption(link_id, 1e-3)
        assert strategy.on_onset(link_id) is True
        assert not medium_clos.link(link_id).enabled

    def test_lg_corropt_prefers_protection(self, medium_clos):
        constraint = _strategy_env(medium_clos, coverage=1.0)
        strategy = LinkGuardianCorrOptStrategy(medium_clos, constraint)
        link_id = _some_link(medium_clos).link_id
        medium_clos.set_corruption(link_id, 1e-3)
        assert strategy.on_onset(link_id) is False
        assert medium_clos.link(link_id).enabled
        assert medium_clos.link(link_id).lg_protected


class TestLinkGuardianEndToEnd:
    def test_masking_zeroes_penalty_under_full_coverage(self):
        """With every link capable and rates within the envelope,
        residual loss sits below the corruption threshold -> no penalty
        accrues while links stay up."""
        scenario = make_scenario(
            scale=0.12, duration_days=10.0, seed=0, capacity=0.75,
            events_per_10k_links_per_day=10.0,
        )
        result = run_scenario(scenario, "linkguardian", lg_coverage=1.0)
        metrics = result.metrics
        assert metrics.lg_protections > 0
        assert metrics.disabled_on_onset == 0
        # Every onset rate within the operating limit was maskable.
        assert metrics.lg_protections <= metrics.onsets
        # Effective capacity dips below 1 while protections are active.
        assert metrics.effective_capacity.min_value() < 1.0

    def test_lg_corropt_beats_corropt_when_capacity_is_tight(self):
        """The acceptance scenario: with c=0.9 CorrOpt must keep
        corrupting links fully active, while lg+corropt masks them."""
        scenario = make_scenario(
            scale=0.25, duration_days=30.0, seed=0, capacity=0.9,
            events_per_10k_links_per_day=4.0,
        )
        corropt = run_scenario(scenario, "corropt", lg_coverage=0.9)
        lg = run_scenario(scenario, "lg+corropt", lg_coverage=0.9)
        assert corropt.metrics.kept_active_on_onset > 0
        assert lg.penalty_integral < corropt.penalty_integral

    def test_zero_coverage_lg_corropt_matches_corropt_exactly(self):
        """Without capable ports lg+corropt degenerates to CorrOpt,
        bit-for-bit."""
        scenario = make_scenario(
            scale=0.12, duration_days=10.0, seed=0, capacity=0.75,
            events_per_10k_links_per_day=10.0,
        )
        corropt = run_scenario(scenario, "corropt")
        lg = run_scenario(scenario, "lg+corropt", lg_coverage=0.0)
        assert lg.fingerprint() == corropt.fingerprint()


# --------------------------------------------------------------------- #
# build_strategy knob plumbing (the bugfix)
# --------------------------------------------------------------------- #


class TestStrategyKnobs:
    def test_unknown_knob_is_rejected_loudly(self, medium_clos):
        constraint = CapacityConstraint(0.75)
        with pytest.raises(ValueError, match="applicable"):
            build_strategy(
                "corropt", medium_clos, constraint, knobs={"sc": 0.9}
            )

    def test_switch_local_sc_knob_reaches_strategy(self, medium_clos):
        """Previously ``build_strategy`` dropped knobs silently."""
        constraint = CapacityConstraint(0.75)
        strategy = build_strategy(
            "switch-local", medium_clos, constraint, knobs={"sc": 0.9}
        )
        assert strategy.checker.sc == pytest.approx(0.9)

    def test_lg_max_loss_rate_knob_reaches_strategy(self, medium_clos):
        constraint = CapacityConstraint(0.75)
        strategy = build_strategy(
            "linkguardian", medium_clos, constraint,
            knobs={"max_loss_rate": 1e-3},
        )
        assert strategy.max_loss_rate == pytest.approx(1e-3)
        medium_clos.assign_lg_capable(1.0)
        link_id = _some_link(medium_clos).link_id
        medium_clos.set_corruption(link_id, 5e-3)  # beyond the knob
        assert strategy.on_onset(link_id) is False
        assert not medium_clos.link(link_id).lg_protected

    def test_every_strategy_declares_its_knobs(self):
        assert set(STRATEGY_KNOBS) == set(STRATEGY_NAMES)
