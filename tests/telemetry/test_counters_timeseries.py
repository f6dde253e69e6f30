"""Tests for SNMP counters (the poller's device counters and their
snapshots) and the CDF and percentile helpers."""

import numpy as np
import pytest

from repro.telemetry import (
    SnmpPoller,
    TelemetrySanitizer,
    TelemetryStore,
    cdf_points,
    percentile,
)
from repro.topology import build_clos
from tests.telemetry.reference import PerDirectionTraffic
from tests.telemetry.stored import WINDOW


class Counters:
    """One direction's cumulative device counters, as an
    :class:`SnmpPoller` keeps them: each ``record_interval`` is one poll
    of that traffic."""

    def __init__(self):
        self.topo = build_clos(1, 1, 1, 1)
        self.link_id = next(iter(self.topo.link_ids()))
        self.traffic = [0, 0.0]
        self.store = TelemetryStore(self.topo, WINDOW)
        self.poller = SnmpPoller(
            self.topo,
            self.store,
            traffic_fn=PerDirectionTraffic(
                self.topo,
                lambda did, t: self.traffic[0],
                lambda did, t: self.traffic[1],
            ),
            sanitizer=TelemetrySanitizer(self.topo),
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
        counters.record_interval(100_000, 5e-3, 2e-3)
        sample = counters.store.last_sample(counters.link_id)
        _, corruption, congestion, _, _ = sample
        assert corruption == pytest.approx(5e-3, rel=0.01)
        assert congestion == pytest.approx(2e-3, rel=0.01)

    def test_zero_traffic_yields_zero_rate(self):
        counters = Counters()
        counters.record_interval(0, 0.0, 0.0)
        counters.record_interval(0, 0.0, 0.0)
        _, corruption, congestion, _, _ = counters.store.last_sample(
            counters.link_id
        )
        assert corruption == congestion == 0.0

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
