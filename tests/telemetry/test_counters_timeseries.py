"""Tests for SNMP counters (the poller's device counters and their
snapshots) and the TimeSeries reductions."""

import numpy as np
import pytest

from repro.telemetry import (
    CounterSnapshot,
    SnmpPoller,
    TelemetrySanitizer,
    TelemetryStore,
    TimeSeries,
    cdf_points,
    percentile,
)
from repro.topology import build_clos
from tests.telemetry.reference import PerDirectionTraffic


class Counters:
    """One direction's cumulative device counters, as an
    :class:`SnmpPoller` keeps them: each ``record_interval`` is one poll
    of that traffic."""

    def __init__(self):
        self.topo = build_clos(1, 1, 1, 1)
        self.link_id = next(iter(self.topo.link_ids()))
        self.traffic = [0, 0.0]
        self.poller = SnmpPoller(
            self.topo,
            TelemetryStore(),
            traffic_fn=PerDirectionTraffic(
                lambda did, t: self.traffic[0], lambda did, t: self.traffic[1]
            ),
            sanitizer=TelemetrySanitizer(),
        )
        self.poller.directions  # builds the (zeroed) counter columns

    def record_interval(self, packets, corruption_rate, congestion_rate):
        self.topo.set_corruption(self.link_id, corruption_rate)
        self.traffic[:] = packets, congestion_rate
        self.poller.poll_once()

    @property
    def total(self):
        return int(self.poller._total[0])

    @property
    def errors(self):
        return int(self.poller._errors[0])

    @property
    def drops(self):
        return int(self.poller._drops[0])

    def snapshot(self, time_s):
        return CounterSnapshot(time_s, self.total, self.errors, self.drops)


class TestCounters:
    def test_accumulation(self):
        counters = Counters()
        counters.record_interval(1_000_000, corruption_rate=1e-3, congestion_rate=1e-4)
        assert counters.total == 1_000_000
        assert counters.errors == 1000
        assert counters.drops == 100

    def test_monotonic_accumulation(self):
        counters = Counters()
        for _ in range(5):
            before = (counters.total, counters.errors, counters.drops)
            counters.record_interval(10_000, 1e-2, 1e-3)
            after = (counters.total, counters.errors, counters.drops)
            assert all(b <= a for b, a in zip(before, after))

    def test_rates_from_snapshot_diff(self):
        counters = Counters()
        counters.record_interval(100_000, 1e-3, 0.0)
        snap1 = counters.snapshot(900.0)
        counters.record_interval(100_000, 5e-3, 2e-3)
        snap2 = counters.snapshot(1800.0)
        assert snap2.corruption_rate_since(snap1) == pytest.approx(5e-3, rel=0.01)
        assert snap2.congestion_rate_since(snap1) == pytest.approx(2e-3, rel=0.01)

    def test_zero_traffic_yields_zero_rate(self):
        counters = Counters()
        snap1 = counters.snapshot(0.0)
        snap2 = counters.snapshot(900.0)
        assert snap2.corruption_rate_since(snap1) == 0.0

    def test_validation(self):
        counters = Counters()
        with pytest.raises(ValueError):
            counters.record_interval(-1, 0.0, 0.0)
        with pytest.raises(ValueError):
            counters.record_interval(10, 0.0, 1.5)

    def test_small_rates_still_register(self):
        counters = Counters()
        counters.record_interval(10_000_000, 1e-6, 0.0)
        assert counters.errors == 10

    def test_snapshot_rates_clamped_to_unit_interval(self):
        """Regression: reset/wrapped counters must not yield rates outside
        [0, 1] from raw snapshot differencing."""
        healthy = CounterSnapshot(time_s=900.0, total=1000, errors=900, drops=800)
        # Errors advanced more than total (partial reset of the total
        # counter): the naive ratio would exceed 1.
        skewed = CounterSnapshot(time_s=1800.0, total=1100, errors=1500, drops=800)
        assert skewed.corruption_rate_since(healthy) == 1.0
        # Errors went backwards (error counter reset): naive ratio < 0.
        rebooted = CounterSnapshot(time_s=1800.0, total=1100, errors=0, drops=0)
        assert rebooted.corruption_rate_since(healthy) == 0.0
        assert rebooted.congestion_rate_since(healthy) == 0.0


class TestTimeSeries:
    def test_basic_stats(self):
        series = TimeSeries([1.0, 2.0, 3.0, 4.0])
        assert series.mean() == pytest.approx(2.5)
        assert series.max() == 4.0
        assert len(series) == 4

    def test_cv_of_constant_series_is_zero(self):
        assert TimeSeries([5.0] * 10).coefficient_of_variation() == 0.0

    def test_cv_of_zero_series_is_zero(self):
        assert TimeSeries([0.0] * 10).coefficient_of_variation() == 0.0

    def test_cv_scales_with_variability(self):
        stable = TimeSeries([1.0, 1.1, 0.9, 1.0])
        bursty = TimeSeries([0.0, 0.0, 0.0, 4.0])
        assert bursty.coefficient_of_variation() > stable.coefficient_of_variation()

    def test_pearson_perfect_correlation(self):
        a = TimeSeries([1, 2, 3, 4, 5])
        b = TimeSeries([2, 4, 6, 8, 10])
        assert a.pearson_with(b) == pytest.approx(1.0)

    def test_pearson_constant_series_is_zero(self):
        a = TimeSeries([1, 2, 3])
        b = TimeSeries([5, 5, 5])
        assert a.pearson_with(b) == 0.0

    def test_pearson_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries([1, 2]).pearson_with(TimeSeries([1, 2, 3]))

    def test_log10_floors_zeros(self):
        series = TimeSeries([0.0, 1e-3]).log10(floor=1e-10)
        assert series.values[0] == pytest.approx(-10.0)
        assert series.values[1] == pytest.approx(-3.0)

    def test_resample_daily(self):
        # 15-minute samples: 96 per day.
        series = TimeSeries([1.0] * 192)
        assert series.resample_daily() == [96.0, 96.0]

    def test_times_spacing(self):
        series = TimeSeries([0, 0, 0], interval_s=900.0, start_s=100.0)
        assert list(series.times()) == [100.0, 1000.0, 1900.0]

    def test_slice(self):
        series = TimeSeries([1, 2, 3, 4], interval_s=10.0)
        part = series.slice(1, 3)
        assert list(part.values) == [2, 3]
        assert part.start_s == 10.0


class TestHelpers:
    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 80) == pytest.approx(80.0)
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 120)
