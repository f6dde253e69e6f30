"""Tests for the SNMP poller and telemetry store."""

import math

import pytest

from repro.telemetry import (
    SampleQuality,
    SnmpPoller,
    TelemetrySanitizer,
    TelemetryStore,
)
from repro.telemetry.poller import ConstantTraffic
from repro.topology import Direction, build_clos
from tests.telemetry.reference import PerDirectionTraffic


@pytest.fixture
def setup():
    topo = build_clos(1, 2, 2, 4)
    store = TelemetryStore()
    poller = SnmpPoller(
        topo,
        store,
        traffic_fn=ConstantTraffic(1_000_000),
        sanitizer=TelemetrySanitizer(),
    )
    return topo, store, poller


class TestPoller:
    def test_poll_advances_time(self, setup):
        _topo, _store, poller = setup
        assert poller.poll_once() == 900.0
        assert poller.poll_once() == 1800.0

    def test_rates_need_two_polls(self, setup):
        topo, store, poller = setup
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-3, Direction.UP)
        poller.poll_once()
        assert store.num_directions() == 0  # first poll only seeds
        poller.poll_once()
        series = store.corruption_series(lid)
        assert len(series) == 1
        assert series.values[0] == pytest.approx(1e-3, rel=0.01)

    def test_disabled_links_not_polled(self, setup):
        topo, store, poller = setup
        lid = ("pod0/tor0", "pod0/agg0")
        topo.disable_link(lid)
        poller.run(3)
        assert lid not in list(store.directions())
        # Other links were recorded.
        assert store.num_directions() == 2 * (topo.num_links - 1)

    def test_corruption_only_on_set_direction(self, setup):
        topo, store, poller = setup
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-3, Direction.UP)
        poller.run(3)
        up = store.corruption_series(lid)
        down = store.corruption_series(("pod0/agg0", "pod0/tor0"))
        assert up.mean() > 1e-4
        assert down.mean() == 0.0

    def test_congestion_fn_feeds_drops(self):
        topo = build_clos(1, 2, 2, 4)
        store = TelemetryStore()
        poller = SnmpPoller(
            topo,
            store,
            traffic_fn=PerDirectionTraffic(
                lambda did, t: 1_000_000, lambda did, t: 1e-4
            ),
            sanitizer=TelemetrySanitizer(),
        )
        poller.run(3)
        series = store.congestion_series(("pod0/tor0", "pod0/agg0"))
        assert series.mean() == pytest.approx(1e-4, rel=0.05)

    def test_utilization_recorded(self, setup):
        _topo, store, poller = setup
        poller.run(3)
        series = store.utilization_series(("pod0/tor0", "pod0/agg0"))
        # 1e6 packets of 1000B over 900s on 40G: 8e9/4.5e12.
        assert 0.0 < series.mean() < 0.01


class TestStore:
    def test_out_of_order_append_dropped(self):
        store = TelemetryStore()
        assert store.append_rates(("a", "b"), 900.0, 0.0, 0.0, 0.1)
        # Duplicate and backwards timestamps are dropped, not raised:
        # production feeds deliver them routinely (gap tolerance).
        assert not store.append_rates(("a", "b"), 900.0, 0.0, 0.0, 0.1)
        assert not store.append_rates(("a", "b"), 450.0, 0.0, 0.0, 0.1)
        assert store.dropped_samples == 2
        assert len(store.corruption_series(("a", "b"))) == 1

    def test_non_finite_timestamp_dropped(self):
        """Regression: ``nan <= times[-1]`` is false, so a NaN timestamp
        used to be stored and, being incomparable, let every later
        timestamp in — breaking the monotone-series guarantee."""
        store = TelemetryStore()
        did = ("a", "b")
        assert store.append_rates(did, 900.0, 0.0, 0.0, 0.1)
        for bad in (math.nan, math.inf, -math.inf):
            assert not store.append_rates(did, bad, 0.0, 0.0, 0.1)
        assert not store.append_rates(("c", "d"), math.nan, 0.0, 0.0, 0.1)
        assert store.dropped_samples == 4
        assert not store.append_rates(did, 450.0, 0.0, 0.0, 0.1)
        assert store.times(did) == [900.0]
        assert list(store.directions()) == [did]

    def test_tail_reads_the_last_values(self):
        store = TelemetryStore()
        did = ("a", "b")
        assert store.tail(did, 3) == ([], [])
        for i in range(1, 6):
            store.append_rates(did, 900.0 * i, 0.0, i * 1e-3, i * 0.1)
        utilization, congestion = store.tail(did, 3)
        assert utilization == pytest.approx([0.3, 0.4, 0.5])
        assert congestion == pytest.approx([3e-3, 4e-3, 5e-3])
        assert store.tail(did, 99)[0] == store.utilization_series(
            did
        ).values.tolist()

    def test_columns_grow_and_pickle_trimmed(self):
        import pickle

        store = TelemetryStore()
        for i in range(1, 40):  # past the first column allocation
            store.append_rates(("a", "b"), 900.0 * i, i * 1e-6, 0.0, 0.5)
        store.append_rates(("c", "d"), 900.0, 1e-3, 0.0, 0.5)
        clone = pickle.loads(pickle.dumps(store))
        assert clone._time.shape == (2, 39)
        for did in (("a", "b"), ("c", "d")):
            assert clone.times(did) == store.times(did)
            assert clone.last_sample(did) == store.last_sample(did)
        assert clone.append_rates(("a", "b"), 900.0 * 40, 0.0, 0.0, 0.0)
        assert len(clone.times(("a", "b"))) == 40

    def test_mean_rates(self):
        store = TelemetryStore()
        store.append_rates(("a", "b"), 900.0, 1e-3, 1e-5, 0.5)
        store.append_rates(("a", "b"), 1800.0, 3e-3, 3e-5, 0.5)
        corruption, congestion = store.mean_rates(("a", "b"))
        assert corruption == pytest.approx(2e-3)
        assert congestion == pytest.approx(2e-5)

    def test_series_interval_inferred(self):
        store = TelemetryStore()
        store.append_rates(("a", "b"), 900.0, 0, 0, 0)
        store.append_rates(("a", "b"), 1800.0, 0, 0, 0)
        assert store.corruption_series(("a", "b")).interval_s == 900.0

    def test_gap_tolerant_append(self):
        store = TelemetryStore()
        store.append_rates(("a", "b"), 900.0, 0, 0, 0)
        # A missed poll leaves a hole; the next append must still land.
        assert store.append_rates(("a", "b"), 2700.0, 1e-3, 0, 0)
        assert store.times(("a", "b")) == [900.0, 2700.0]
        assert store.dropped_samples == 0

    def test_quality_tracked_per_sample(self):
        store = TelemetryStore()
        store.append_rates(("a", "b"), 900.0, 0, 0, 0)
        store.append_rates(
            ("a", "b"), 1800.0, 0, 0, 0, quality=SampleQuality.SUSPECT
        )
        assert store.quality_series(("a", "b")) == [
            SampleQuality.OK,
            SampleQuality.SUSPECT,
        ]
        counts = store.quality_counts(("a", "b"))
        assert counts[SampleQuality.OK] == 1
        assert counts[SampleQuality.SUSPECT] == 1

    def test_last_sample(self):
        store = TelemetryStore()
        assert store.last_sample(("a", "b")) is None
        store.append_rates(("a", "b"), 900.0, 1e-3, 1e-5, 0.5)
        store.append_rates(("a", "b"), 1800.0, 2e-3, 2e-5, 0.6)
        time_s, corruption, congestion, util, quality = store.last_sample(
            ("a", "b")
        )
        assert time_s == 1800.0
        assert corruption == 2e-3
        assert congestion == 2e-5
        assert util == 0.6
        assert quality is SampleQuality.OK
