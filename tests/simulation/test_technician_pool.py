"""Tests for the backlog-aware technician-pool repair model (extension).

The paper's production observation — "the exact time needed for a fix
depends on the number of tickets in the queue" — becomes measurable: fewer
technicians means longer outages and (when capacity binds) more corrupting
links kept active.
"""

import pytest

from repro.core import CapacityConstraint
from repro.simulation import CorrOptStrategy, OracleSensing, SimulationKernel
from repro.simulation.kernel import DAY_S
from repro.workloads import burst_trace
from repro.workloads.dcn_profiles import DCNProfile

PROFILE = DCNProfile("pool-test", 6, 6, 6, 36)


def run_with_pool(
    pool_size, seed=0, accuracy=1.0, capacity=0.5, track_capacity=True
):
    topo = PROFILE.build()
    trace = burst_trace(topo, num_events=25, seed=seed, spacing_s=1800.0)
    trace.duration_days = 60.0
    strategy = CorrOptStrategy(topo, CapacityConstraint(capacity))
    sim = SimulationKernel(
        topo,
        trace.duration_days * DAY_S,
        OracleSensing(trace, strategy, track_capacity=track_capacity),
        repair_accuracy=accuracy,
        seed=seed,
        technician_pool=pool_size,
    )
    return topo, sim.run()


class TestTechnicianPool:
    def test_all_repairs_eventually_complete(self):
        topo, result = run_with_pool(pool_size=2)
        assert result.metrics.repairs_completed > 0
        assert not topo.disabled_links()
        assert not topo.corrupting_links()

    def test_failed_repairs_requeue(self):
        topo, result = run_with_pool(pool_size=3, accuracy=0.5, seed=1)
        assert result.metrics.failed_repairs > 0
        assert not topo.disabled_links()

    def test_fewer_technicians_longer_outages(self):
        """With one technician the backlog drains serially, so the last
        repair (visible as the final capacity-restoring change in the
        worst-ToR series) lands much later than with a large crew."""
        _topo, small = run_with_pool(pool_size=1, seed=2)
        _topo, large = run_with_pool(pool_size=10, seed=2)
        small_last = small.metrics.worst_tor_fraction.changes()[-1][0]
        large_last = large.metrics.worst_tor_fraction.changes()[-1][0]
        assert small_last > large_last

    def test_backlog_keeps_capacity_bound_links_active_longer(self):
        """When capacity binds, slow repair turnaround delays the moment
        the optimizer can disable kept-active links -> more penalty."""
        _topo, small = run_with_pool(pool_size=1, seed=3, capacity=0.8)
        _topo, large = run_with_pool(pool_size=10, seed=3, capacity=0.8)
        assert small.penalty_integral >= large.penalty_integral

    def test_pool_disabled_by_default(self):
        topo = PROFILE.build()
        trace = burst_trace(topo, num_events=3, seed=4)
        trace.duration_days = 20.0
        sim = SimulationKernel(
            topo,
            trace.duration_days * DAY_S,
            OracleSensing(
                trace,
                CorrOptStrategy(topo, CapacityConstraint(0.5)),
                track_capacity=False,
            ),
        )
        assert sim._pool is None
        sim.run()
        assert not topo.corrupting_links()
