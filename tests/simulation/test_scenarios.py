"""Tests for scenario presets and the strategy factory."""

import pytest

from repro.core import CapacityConstraint
from repro.simulation import make_scenario
from repro.simulation.strategies import build_strategy
from repro.workloads.dcn_profiles import LARGE_DCN, MEDIUM_DCN, DCNProfile

STANDARD = ("corropt", "fast-checker-only", "switch-local", "none")


class TestMakeScenario:
    def test_trace_is_deduplicated(self):
        scenario = make_scenario(
            profile=DCNProfile("s", 4, 4, 4, 16),
            scale=1.0,
            duration_days=60,
            seed=1,
            events_per_10k_links_per_day=100,
        )
        seen = set()
        for event in scenario.trace.events:
            for lid in event.link_ids:
                assert lid not in seen
                seen.add(lid)

    def test_topo_factory_returns_fresh_copies(self):
        scenario = make_scenario(
            profile=DCNProfile("s2", 3, 3, 3, 9),
            scale=1.0,
            duration_days=5,
            seed=2,
        )
        a = scenario.topo_factory()
        b = scenario.topo_factory()
        assert a is not b
        a.disable_link(next(iter(a.link_ids())))
        assert not b.disabled_links()

    def test_constraint_reflects_capacity(self):
        scenario = make_scenario(
            profile=DCNProfile("s3", 3, 3, 3, 9),
            scale=1.0,
            duration_days=5,
            seed=3,
            capacity=0.6,
        )
        assert scenario.constraint().default == 0.6

    def test_medium_and_large_presets(self):
        medium = make_scenario(
            profile=MEDIUM_DCN, scale=0.15, duration_days=5, seed=4
        )
        large = make_scenario(
            profile=LARGE_DCN, scale=0.1, duration_days=5, seed=4
        )
        assert medium.profile.name == "medium"
        assert large.profile.name == "large"
        assert medium.topo_factory().num_links > 0


class TestStrategyFactories:
    def test_all_four_strategies(self):
        from repro.topology import build_clos

        topo = build_clos(2, 2, 2, 4)
        for name in STANDARD:
            strategy = build_strategy(name, topo, CapacityConstraint(0.75))
            assert strategy.name == name

    def test_strategies_bound_to_given_topology(self):
        from repro.topology import build_clos

        topo = build_clos(2, 2, 2, 4)
        strategy = build_strategy("corropt", topo, CapacityConstraint(0.5))
        assert strategy.topo is topo
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-3)
        assert strategy.on_onset(lid)
        assert not topo.link(lid).enabled
