"""Edge cases of the oracle-sensing kernel's event handling."""

import pytest

from repro.core import CapacityConstraint
from repro.faults import ContaminationFault, FaultEvent
from repro.faults.condition import LinkCondition
from repro.optics import TECH_40G_LR4
from repro.simulation import CorrOptStrategy, OracleSensing, SimulationKernel
from repro.simulation.kernel import DAY_S
from repro.topology import build_clos
from repro.workloads import CorruptionTrace


def make_event(time_s, link_id, rate=1e-3, rev_rate=0.0):
    tech = TECH_40G_LR4
    condition = LinkCondition(
        tx1_dbm=tech.nominal_tx_dbm,
        rx1_dbm=tech.thresholds.rx_min_dbm - 2,
        tx2_dbm=tech.nominal_tx_dbm,
        rx2_dbm=tech.healthy_rx_dbm(),
        fwd_rate=rate,
        rev_rate=rev_rate,
    )
    fault = ContaminationFault(target_rate=rate)
    return FaultEvent(
        time_s=time_s, fault=fault, link_ids=[link_id], conditions=[condition]
    )


def build_sim(events, duration_days=30.0, track_capacity=True, **kwargs):
    topo = build_clos(2, 3, 3, 9)
    trace = CorruptionTrace(
        dcn_name=topo.name, duration_days=duration_days, events=events
    )
    strategy = CorrOptStrategy(topo, CapacityConstraint(0.5))
    pipeline = OracleSensing(trace, strategy, track_capacity=track_capacity)
    return topo, SimulationKernel(
        topo, duration_days * DAY_S, pipeline, **kwargs
    )


class TestEventHandling:
    def test_onset_on_disabled_link_is_skipped(self):
        lid = ("pod0/tor0", "pod0/agg0")
        events = [make_event(0.0, lid), make_event(3600.0, lid)]
        _topo, sim = build_sim(events)
        result = sim.run()
        # Second onset lands while the link is disabled: not counted.
        assert result.metrics.onsets == 1

    def test_duplicate_onset_on_active_corrupting_link_skipped(self):
        # A 3-uplink ToR at c=50% can lose only one uplink (2/3 = 0.67 is
        # fine, 1/3 is not), so the second and third onsets are kept, and
        # the duplicate fourth is not even counted.
        lid_kept = ("pod0/tor0", "pod0/agg2")
        events = [
            make_event(0.0, ("pod0/tor0", "pod0/agg0")),
            make_event(10.0, ("pod0/tor0", "pod0/agg1")),
            make_event(20.0, lid_kept),
            make_event(30.0, lid_kept),  # duplicate
        ]
        _topo, sim = build_sim(events)
        result = sim.run()
        assert result.metrics.onsets == 3
        assert result.metrics.disabled_on_onset == 1
        assert result.metrics.kept_active_on_onset == 2

    def test_empty_trace(self):
        _topo, sim = build_sim([])
        result = sim.run()
        assert result.penalty_integral == 0.0
        assert result.metrics.onsets == 0

    def test_bidirectional_rates_recorded(self):
        lid = ("pod0/tor0", "pod0/agg0")
        events = [make_event(0.0, lid, rate=1e-3, rev_rate=1e-4)]
        topo, sim = build_sim(events, track_capacity=False)
        from repro.topology import Direction

        # Intercept the state right after the onset: run a truncated trace.
        sim.run()
        # After repair everything is clean again.
        assert topo.link(lid).corruption_rate[Direction.UP] == 0.0
        assert topo.link(lid).corruption_rate[Direction.DOWN] == 0.0

    def test_penalty_integral_matches_manual_accounting(self):
        """Exact hand-computed timeline on a 3-uplink ToR at c=50% (one
        disable allowed at a time, 2-day repairs at accuracy 1.0):

        - t=0:    lid_a disabled (the budget); repaired at day 2.
        - t=10s:  lid_b kept, corrupting at 1e-3 until day 2, when lid_a's
                  return lets the optimizer disable it (it outranks
                  lid_kept); lid_b repaired at day 4.
        - day 1:  lid_kept kept, corrupting at 1e-4 until day 4, then
                  disabled and repaired by day 6.

        Integral = 1e-3 * (2d - 10s) + 1e-4 * (4d - 1d).
        """
        lid_a = ("pod0/tor0", "pod0/agg0")
        lid_b = ("pod0/tor0", "pod0/agg1")
        lid_kept = ("pod0/tor0", "pod0/agg2")
        day = 86_400.0
        events = [
            make_event(0.0, lid_a),
            make_event(10.0, lid_b),
            make_event(day, lid_kept, rate=1e-4),
        ]
        _topo, sim = build_sim(
            events, duration_days=30.0, repair_accuracy=1.0,
            track_capacity=False,
        )
        result = sim.run()
        expected = 1e-3 * (2 * day - 10.0) + 1e-4 * (3 * day)
        assert result.penalty_integral == pytest.approx(expected, rel=1e-6)
