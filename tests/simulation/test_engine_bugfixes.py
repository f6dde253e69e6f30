"""Regression tests for simulation-correctness fixes.

Covers: metric recording clamped to the run window, technician-pool check
deduplication, and comparison jobs forwarding their repair-model knobs.
"""

import dataclasses

import pytest

from repro.core import CapacityConstraint
from repro.faults import ContaminationFault, FaultEvent
from repro.faults.condition import LinkCondition
from repro.optics import TECH_40G_LR4
from repro.parallel import JobSpec, execute_job, worker_cache
from repro.simulation import (
    CorrOptStrategy,
    OracleSensing,
    SimulationKernel,
    make_scenario,
)
from repro.simulation.kernel import DAY_S
from repro.topology import build_clos
from repro.workloads import CorruptionTrace

DAY = 86_400.0


def make_event(time_s, link_id, rate=1e-3):
    tech = TECH_40G_LR4
    condition = LinkCondition(
        tx1_dbm=tech.nominal_tx_dbm,
        rx1_dbm=tech.thresholds.rx_min_dbm - 2,
        tx2_dbm=tech.nominal_tx_dbm,
        rx2_dbm=tech.healthy_rx_dbm(),
        fwd_rate=rate,
        rev_rate=0.0,
    )
    fault = ContaminationFault(target_rate=rate)
    return FaultEvent(
        time_s=time_s, fault=fault, link_ids=[link_id], conditions=[condition]
    )


def oracle_kernel(topo, trace, strategy, service_days=2.0, **kwargs):
    return SimulationKernel(
        topo,
        trace.duration_days * DAY_S,
        OracleSensing(trace, strategy),
        service_s=service_days * DAY_S,
        **kwargs,
    )


def build_sim(events, duration_days=30.0, **kwargs):
    topo = build_clos(2, 3, 3, 9)
    trace = CorruptionTrace(
        dcn_name=topo.name, duration_days=duration_days, events=events
    )
    strategy = CorrOptStrategy(topo, CapacityConstraint(0.5))
    return topo, oracle_kernel(topo, trace, strategy, **kwargs)


class TestRunWindowClamping:
    def test_no_samples_recorded_past_duration(self):
        """An onset near the end of the window schedules a repair past it.

        The repair must still be *processed* (the topology heals), but no
        metric sample may land outside ``[0, duration]`` — otherwise the
        series disagree with ``penalty_integral``, which clips there.
        """
        lid = ("pod0/tor0", "pod0/agg0")
        # Disabled at day 0.5, repaired at day 2.5; window is 1 day.
        topo, sim = build_sim(
            [make_event(0.5 * DAY, lid)],
            duration_days=1.0,
            repair_accuracy=1.0,
        )
        result = sim.run()
        duration_s = result.duration_s
        assert duration_s == DAY

        for series in (
            result.metrics.penalty,
            result.metrics.worst_tor_fraction,
            result.metrics.average_tor_fraction,
        ):
            assert all(t <= duration_s for t, _ in series.changes())

        # The repair completed even though it fell outside the window.
        assert result.metrics.repairs_completed == 1
        assert not topo.corrupting_links()
        assert topo.link(lid).enabled

        # At the end of the window the link is still out for repair, and
        # the series agree with that state.
        assert result.metrics.worst_tor_fraction.value_at(duration_s) == (
            pytest.approx(2.0 / 3.0)
        )

    def test_integral_consistent_with_series(self):
        lid = ("pod0/tor0", "pod0/agg0")
        _topo, sim = build_sim(
            [make_event(0.5 * DAY, lid)],
            duration_days=1.0,
            repair_accuracy=1.0,
        )
        result = sim.run()
        # Disabled on onset: zero penalty throughout, and the clipped
        # integral sees exactly what the series recorded.
        assert result.penalty_integral == result.metrics.penalty.integral(
            0.0, result.duration_s
        )


class TestPoolCheckDeduplication:
    def test_no_empty_pool_drains(self):
        """Each scheduled _POOL_CHECK drains at least one due ticket.

        The bug: every submit/re-check pushed a fresh heap entry even when
        one was already scheduled for the same completion time, so extra
        pops drained nothing.
        """
        tor = "pod0/tor0"
        events = [
            make_event(i * 3600.0, (tor, f"pod0/agg{i % 3}"))
            for i in range(3)
        ] + [
            make_event(2 * DAY + i * 1800.0, (f"pod1/tor{i}", "pod1/agg0"))
            for i in range(3)
        ]
        _topo, sim = build_sim(
            events, duration_days=30.0, repair_accuracy=1.0, technician_pool=1
        )

        drains = []
        original = sim._pool.pop_due

        def spying_pop_due(now_s):
            due = original(now_s)
            drains.append(len(due))
            return due

        sim._pool.pop_due = spying_pop_due
        result = sim.run()

        assert result.metrics.repairs_completed > 0
        assert drains, "pool was never drained"
        assert all(count >= 1 for count in drains)
        assert sim._next_pool_check is None

    def test_pool_results_unchanged_by_dedup(self):
        """Deduplication is an efficiency fix: repair timing is identical
        to a run where every ticket is re-checked (same FIFO queue)."""
        events = [
            make_event(i * 7200.0, ("pod0/tor0", f"pod0/agg{i}"))
            for i in range(2)
        ]
        _topo, sim = build_sim(
            events, repair_accuracy=1.0, technician_pool=1
        )
        result = sim.run()
        # Capacity admits one disable at a time: the second link is only
        # disabled (and ticketed) when the first returns at day 2, so the
        # two 2-day visits run back to back and finish at day 4.
        assert result.metrics.repairs_completed == 2
        times = [t for t, _ in result.metrics.worst_tor_fraction.changes()]
        assert max(times) == pytest.approx(4 * DAY)


class TestRunComparisonForwarding:
    """Comparison runs (``simulate --strategies``, sweeps) are JobSpecs
    through the pool worker: each repair-model knob on the spec must
    reach the kernel, exactly as on a hand-built kernel."""

    SPEC = JobSpec(
        scale=0.2,
        duration_days=12.0,
        trace_seed=4,
        events_per_10k=300.0,
        capacity=0.5,
        strategy="corropt",
        repair_seed=5,
    )

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        worker_cache().clear()
        yield
        worker_cache().clear()

    def _via_worker(self, **knobs):
        return execute_job(dataclasses.replace(self.SPEC, **knobs)).result

    def _manual(self, repair_accuracy=0.8, **kwargs):
        scenario = make_scenario(
            scale=0.2, duration_days=12.0, seed=4, capacity=0.5,
            events_per_10k_links_per_day=300.0,
        )
        topo = scenario.topo_factory()
        strategy = CorrOptStrategy(topo, scenario.constraint())
        return oracle_kernel(
            topo, scenario.trace, strategy,
            repair_accuracy=repair_accuracy, seed=5, **kwargs
        ).run()

    def test_service_days_forwarded(self):
        via_worker = self._via_worker(repair_accuracy=1.0, service_days=5.0)
        manual = self._manual(repair_accuracy=1.0, service_days=5.0)
        default = self._manual(repair_accuracy=1.0)
        assert (
            via_worker.metrics.worst_tor_fraction.changes()
            == manual.metrics.worst_tor_fraction.changes()
        )
        # Proof the knob actually took effect (5-day visits end later).
        assert (
            via_worker.metrics.worst_tor_fraction.changes()
            != default.metrics.worst_tor_fraction.changes()
        )

    def test_full_repair_cycles_forwarded(self):
        via_worker = self._via_worker(
            repair_accuracy=0.3, full_repair_cycles=True
        )
        manual = self._manual(repair_accuracy=0.3, full_repair_cycles=True)
        assert via_worker.metrics.failed_repairs > 0
        assert (
            via_worker.metrics.failed_repairs
            == manual.metrics.failed_repairs
        )
        assert via_worker.penalty_integral == manual.penalty_integral

    def test_technician_pool_forwarded(self):
        via_worker = self._via_worker(repair_accuracy=1.0, technician_pool=1)
        manual = self._manual(repair_accuracy=1.0, technician_pool=1)
        default = self._manual(repair_accuracy=1.0)
        assert (
            via_worker.metrics.worst_tor_fraction.changes()
            == manual.metrics.worst_tor_fraction.changes()
        )
        assert (
            via_worker.metrics.worst_tor_fraction.changes()
            != default.metrics.worst_tor_fraction.changes()
        )
