"""Tests for full repair cycles (Figure 12): enable → still corrupting →
re-disable, repeatedly, until a repair finally lands."""

import pytest

from repro.core import CapacityConstraint
from repro.simulation import CorrOptStrategy, OracleSensing, SimulationKernel
from repro.simulation.kernel import DAY_S
from repro.workloads import burst_trace
from repro.workloads.dcn_profiles import DCNProfile

PROFILE = DCNProfile("cycles", 4, 6, 6, 36)


def build_sim(repair_accuracy: float, seed: int = 0):
    topo = PROFILE.build()
    trace = burst_trace(topo, num_events=12, seed=seed, spacing_s=7200.0)
    trace.duration_days = 40.0  # leave room for repeated cycles
    return topo, cycles_kernel(topo, trace, repair_accuracy, seed)


def cycles_kernel(topo, trace, repair_accuracy, seed, full_repair_cycles=True):
    return SimulationKernel(
        topo,
        trace.duration_days * DAY_S,
        OracleSensing(
            trace,
            CorrOptStrategy(topo, CapacityConstraint(0.5)),
            track_capacity=False,
        ),
        repair_accuracy=repair_accuracy,
        seed=seed,
        full_repair_cycles=full_repair_cycles,
    )


class TestRepairCycles:
    def test_low_accuracy_produces_failed_repairs(self):
        _topo, sim = build_sim(repair_accuracy=0.4)
        result = sim.run()
        assert result.metrics.failed_repairs > 0
        assert result.metrics.repairs_completed > 0

    def test_perfect_accuracy_never_fails(self):
        _topo, sim = build_sim(repair_accuracy=1.0)
        result = sim.run()
        assert result.metrics.failed_repairs == 0

    def test_all_links_eventually_healthy(self):
        topo, sim = build_sim(repair_accuracy=0.6)
        sim.run()
        assert not topo.corrupting_links()
        assert not topo.disabled_links()

    def test_lower_accuracy_means_more_cycles(self):
        _topo, sim_good = build_sim(repair_accuracy=0.9, seed=1)
        good = sim_good.run()
        _topo, sim_bad = build_sim(repair_accuracy=0.3, seed=1)
        bad = sim_bad.run()
        assert bad.metrics.failed_repairs > good.metrics.failed_repairs

    def test_figure12_single_link_cycle(self):
        """One link, deterministic-ish: with low accuracy the link cycles
        disabled -> enabled(still corrupting) -> disabled again."""
        topo = PROFILE.build()
        trace = burst_trace(topo, num_events=1, seed=3)
        trace.duration_days = 60.0
        result = cycles_kernel(topo, trace, repair_accuracy=0.2, seed=5).run()
        total_disables = (
            result.metrics.disabled_on_onset
            + result.metrics.disabled_on_activation
        )
        # Each failed repair forces another disable/service round.
        assert result.metrics.failed_repairs >= 1
        assert total_disables + result.metrics.failed_repairs >= 2
        assert not topo.corrupting_links()

    def test_penalty_zero_while_disabled(self):
        """Between disable and (successful) repair, the link contributes no
        penalty — the whole point of disabling."""
        topo = PROFILE.build()
        trace = burst_trace(topo, num_events=1, seed=4)
        trace.duration_days = 30.0
        result = cycles_kernel(
            topo, trace, repair_accuracy=1.0, seed=0, full_repair_cycles=False
        ).run()
        onset_time = trace.events[0].time_s
        assert result.metrics.penalty.value_at(onset_time + 1.0) == 0.0
