"""Tests for StepSeries and simulation metrics."""

import pytest

from repro.simulation import SimulationMetrics, StepSeries


class TestStepSeries:
    def test_initial_value(self):
        series = StepSeries(5.0)
        assert series.value_at(0.0) == 5.0
        assert series.value_at(100.0) == 5.0

    def test_record_and_lookup(self):
        series = StepSeries(0.0)
        series.record(10.0, 2.0)
        series.record(20.0, 3.0)
        assert series.value_at(5.0) == 0.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(15.0) == 2.0
        assert series.value_at(25.0) == 3.0

    def test_equal_time_overwrites(self):
        series = StepSeries(0.0)
        series.record(10.0, 1.0)
        series.record(10.0, 7.0)
        assert series.value_at(10.0) == 7.0

    def test_time_reversal_rejected(self):
        series = StepSeries(0.0)
        series.record(10.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            series.record(5.0, 2.0)

    def test_no_change_is_compacted(self):
        series = StepSeries(1.0)
        series.record(10.0, 1.0)
        assert len(series.changes()) == 1

    def test_integral_exact(self):
        series = StepSeries(1.0)
        series.record(10.0, 3.0)
        series.record(20.0, 0.0)
        # 1 * 10 + 3 * 10 + 0 * 10
        assert series.integral(0.0, 30.0) == pytest.approx(40.0)

    def test_integral_partial_window(self):
        series = StepSeries(2.0)
        series.record(10.0, 4.0)
        assert series.integral(5.0, 15.0) == pytest.approx(2 * 5 + 4 * 5)

    def test_mean(self):
        series = StepSeries(0.0)
        series.record(50.0, 10.0)
        assert series.mean(0.0, 100.0) == pytest.approx(5.0)

    def test_binned(self):
        series = StepSeries(0.0)
        series.record(100.0, 6.0)
        bins = series.binned(0.0, 200.0, 100.0)
        assert bins == [(0.0, pytest.approx(0.0)), (100.0, pytest.approx(6.0))]

    def test_binned_validation(self):
        with pytest.raises(ValueError):
            StepSeries(0.0).binned(0, 10, 0)

    def test_min_value(self):
        series = StepSeries(5.0)
        series.record(1.0, 2.0)
        series.record(2.0, 9.0)
        assert series.min_value() == 2.0

    def test_changes_exposed(self):
        series = StepSeries(0.0, start_s=0.0)
        series.record(1.0, 2.0)
        assert series.changes() == [(0.0, 0.0), (1.0, 2.0)]


class TestStepSeriesEdgeCases:
    def test_integral_window_before_first_change(self):
        # Window ends before any recorded change: only the initial value
        # contributes, and nothing past end_s leaks in.
        series = StepSeries(2.0, start_s=0.0)
        series.record(10.0, 7.0)
        assert series.integral(0.0, 5.0) == pytest.approx(10.0)
        assert series.integral(0.0, 10.0) == pytest.approx(20.0)

    def test_integral_window_entirely_before_start(self):
        series = StepSeries(3.0, start_s=5.0)
        # The initial value is in effect from start_s; a window that ends
        # at start_s has zero width there.
        assert series.integral(5.0, 5.0) == 0.0
        assert series.integral(5.0, 7.0) == pytest.approx(6.0)

    def test_equal_time_overwrite_after_compacted_record(self):
        # record(10, 0.0) is compacted away (value unchanged), so a later
        # record(10, 3.0) must create a change at t=10 — not overwrite the
        # t=0 entry, which would corrupt history before t=10.
        series = StepSeries(0.0, start_s=0.0)
        series.record(10.0, 0.0)  # compacted: no new change point
        assert series.changes() == [(0.0, 0.0)]
        series.record(10.0, 3.0)
        assert series.changes() == [(0.0, 0.0), (10.0, 3.0)]
        assert series.value_at(9.0) == 0.0
        assert series.value_at(10.0) == 3.0

    def test_equal_time_overwrite_then_compaction_consistency(self):
        series = StepSeries(1.0, start_s=0.0)
        series.record(5.0, 2.0)
        series.record(5.0, 1.0)  # overwrite back to the running value
        assert series.value_at(5.0) == 1.0
        # A later equal-value record still compacts against the overwrite.
        series.record(8.0, 1.0)
        assert series.changes() == [(0.0, 1.0), (5.0, 1.0)]

    def test_mean_zero_width_window(self):
        series = StepSeries(0.0, start_s=0.0)
        series.record(4.0, 6.0)
        # Zero-width mean degenerates to the point value, not 0/0.
        assert series.mean(4.0, 4.0) == 6.0
        assert series.mean(2.0, 2.0) == 0.0
        # And just across the change point it is the time-average.
        assert series.mean(3.0, 5.0) == pytest.approx(3.0)


class TestSimulationMetrics:
    def test_defaults(self):
        metrics = SimulationMetrics()
        assert metrics.penalty.value_at(0.0) == 0.0
        assert metrics.worst_tor_fraction.value_at(0.0) == 1.0
        assert metrics.total_penalty_integral(100.0) == 0.0

    def test_penalty_integral_reflects_recording(self):
        metrics = SimulationMetrics()
        metrics.penalty.record(10.0, 1e-3)
        assert metrics.total_penalty_integral(20.0) == pytest.approx(1e-2)
