"""Tests for the oracle-sensing simulation and strategies."""

import pytest

from repro.parallel import JobSpec, ParallelRunner
from repro.simulation import (
    CorrOptStrategy,
    DrainStrategy,
    NoMitigationStrategy,
    OracleSensing,
    SimulationKernel,
    make_scenario,
    run_scenario,
)
from repro.simulation.kernel import DAY_S
from repro.topology import LinkState
from repro.workloads.dcn_profiles import DCNProfile

PROFILE = DCNProfile("sim-test", 8, 8, 8, 64)
STANDARD = ("corropt", "fast-checker-only", "switch-local", "none")


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(
        profile=PROFILE,
        scale=1.0,
        duration_days=40,
        seed=11,
        capacity=0.75,
        events_per_10k_links_per_day=30,
    )


def oracle_kernel(scenario, strategy, **kwargs):
    """A kernel over the strategy's own topology (custom-strategy runs)."""
    return SimulationKernel(
        strategy.topo,
        scenario.trace.duration_days * DAY_S,
        OracleSensing(scenario.trace, strategy),
        **kwargs,
    )


def comparison(names):
    """The ``simulate --strategies`` run: one job per strategy on the
    fixture's scenario, one shared repair seed."""
    specs = [
        JobSpec(
            profile_shape=("sim-test", 8, 8, 8, 64),
            scale=1.0,
            duration_days=40,
            trace_seed=11,
            events_per_10k=30,
            capacity=0.75,
            strategy=name,
            repair_seed=0,
        )
        for name in names
    ]
    records = ParallelRunner(jobs=1).run(specs).records
    return {r.spec.strategy: r.result for r in records if r.ok}


class TestEngineBasics:
    def test_no_mitigation_accumulates_penalty(self, scenario):
        result = run_scenario(scenario, "none")
        assert result.metrics.onsets > 0
        assert result.metrics.disabled_on_onset == 0
        assert result.penalty_integral > 0

    def test_corropt_disables_most_links(self, scenario):
        result = run_scenario(scenario, "corropt")
        assert result.metrics.disabled_on_onset > 0
        assert (
            result.metrics.disabled_on_onset
            >= result.metrics.kept_active_on_onset
        )

    def test_repairs_return_links(self, scenario):
        topo = scenario.topo_factory()
        strategy = CorrOptStrategy(topo, scenario.constraint())
        result = oracle_kernel(scenario, strategy, repair_accuracy=1.0).run()
        assert result.metrics.repairs_completed == (
            result.metrics.disabled_on_onset
            + result.metrics.disabled_on_activation
        )
        # Long after the last event, all links are healthy again.
        assert not topo.corrupting_links()

    def test_deterministic(self, scenario):
        a = run_scenario(scenario, "corropt", seed=3)
        b = run_scenario(scenario, "corropt", seed=3)
        assert a.penalty_integral == b.penalty_integral

    def test_invalid_strategy_name(self, scenario):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_scenario(scenario, "bogus")

    def test_invalid_accuracy(self, scenario):
        topo = scenario.topo_factory()
        with pytest.raises(ValueError):
            oracle_kernel(
                scenario, NoMitigationStrategy(topo), repair_accuracy=1.5
            )


class TestPaperShapes:
    """The qualitative §7.1 results."""

    def test_corropt_beats_switch_local_by_orders(self, scenario):
        """Figure 14/17: at c=75%, CorrOpt's penalty is orders of magnitude
        below switch-local's."""
        corropt = run_scenario(scenario, "corropt")
        local = run_scenario(scenario, "switch-local")
        assert corropt.penalty_integral < local.penalty_integral / 100

    def test_corropt_respects_capacity_limit(self, scenario):
        """Figure 15: CorrOpt may ride the constraint but never below."""
        result = run_scenario(scenario, "corropt")
        assert result.metrics.worst_tor_fraction.min_value() >= 0.75 - 1e-9

    def test_switch_local_respects_capacity_too(self, scenario):
        result = run_scenario(scenario, "switch-local")
        assert result.metrics.worst_tor_fraction.min_value() >= 0.75 - 1e-9

    def test_no_mitigation_is_much_worse_than_switch_local(self, scenario):
        """§2: without mitigation, corruption losses would be ~2 orders
        higher."""
        none = run_scenario(scenario, "none")
        local = run_scenario(scenario, "switch-local")
        assert none.penalty_integral > 3 * local.penalty_integral

    def test_lax_constraint_equalizes_strategies(self):
        """Figure 17: at c=25% both methods disable everything."""
        scenario = make_scenario(
            profile=PROFILE,
            scale=0.8,
            duration_days=30,
            seed=13,
            capacity=0.25,
            events_per_10k_links_per_day=20,
        )
        corropt = run_scenario(scenario, "corropt")
        local = run_scenario(scenario, "switch-local")
        assert corropt.metrics.kept_active_on_onset == 0
        ratio = (corropt.penalty_integral + 1e-12) / (
            local.penalty_integral + 1e-12
        )
        assert ratio <= 1.0 + 1e-6

    def test_better_repair_accuracy_lowers_penalty(self, scenario):
        """Figure 19's mechanism: faster repairs -> fewer corrupting-link
        days -> lower penalty (weakly, and strictly when capacity binds)."""
        good = run_scenario(scenario, "switch-local", repair_accuracy=0.8)
        bad = run_scenario(scenario, "switch-local", repair_accuracy=0.5)
        assert good.penalty_integral <= bad.penalty_integral


class TestComparison:
    def test_run_comparison_covers_all(self, scenario):
        results = comparison(STANDARD)
        assert set(results) == set(STANDARD)
        # Every job ran the fixture's trace, not a rebuilt look-alike.
        assert results["none"].metrics.onsets == (
            run_scenario(scenario, "none").metrics.onsets
        )

    def test_fast_checker_only_not_better_than_corropt(self, scenario):
        results = comparison(("corropt", "fast-checker-only"))
        assert (
            results["corropt"].penalty_integral
            <= results["fast-checker-only"].penalty_integral + 1e-12
        )


class TestDrainStrategy:
    def test_drain_marks_links_drained(self, scenario):
        topo = scenario.topo_factory()
        strategy = DrainStrategy(topo, scenario.constraint())
        result = oracle_kernel(scenario, strategy).run()
        assert result.metrics.disabled_on_onset > 0

    def test_drain_state_used(self):
        scenario = make_scenario(
            profile=PROFILE,
            scale=0.5,
            duration_days=10,
            seed=17,
            events_per_10k_links_per_day=30,
        )
        topo = scenario.topo_factory()
        strategy = DrainStrategy(topo, scenario.constraint())
        drained_states = []
        original = topo.drain_link

        def spy(lid):
            original(lid)
            drained_states.append(topo.link(lid).state)

        topo.drain_link = spy
        oracle_kernel(scenario, strategy).run()
        assert drained_states
        assert all(s is LinkState.DRAINED for s in drained_states)
