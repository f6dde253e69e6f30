"""Tests for the SNMP poller and telemetry store."""

import math

import numpy as np
import pytest

from repro.core.diagnosis import CauseClassifier
from repro.telemetry import (
    SampleQuality,
    SnmpPoller,
    TelemetrySanitizer,
    TelemetryStore,
)
from repro.telemetry.poller import ConstantTraffic
from repro.topology import Direction, build_clos
from tests.telemetry.reference import PerDirectionTraffic
from tests.telemetry.stored import WINDOW, column
from tests.telemetry.toy import toy_topology

#: The directions the store tests name: the links a-b and c-d.
TOPO = toy_topology(("a", "b"), ("c", "d"))


@pytest.fixture
def setup():
    topo = build_clos(1, 2, 2, 4)
    store = TelemetryStore(topo, WINDOW)
    poller = SnmpPoller(
        topo,
        store,
        traffic_fn=ConstantTraffic(1_000_000),
        sanitizer=TelemetrySanitizer(topo),
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
        assert list(store.directions()) == []  # first poll only seeds
        poller.poll_once()
        series = column(store, lid, "corruption")
        assert len(series) == 1
        assert series[0] == pytest.approx(1e-3, rel=0.01)

    def test_disabled_links_not_polled(self, setup):
        topo, store, poller = setup
        lid = ("pod0/tor0", "pod0/agg0")
        topo.disable_link(lid)
        poller.run(3)
        assert lid not in list(store.directions())
        # Other links were recorded.
        assert len(list(store.directions())) == 2 * (topo.num_links - 1)

    def test_corruption_only_on_set_direction(self, setup):
        topo, store, poller = setup
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-3, Direction.UP)
        poller.run(3)
        up = column(store, lid, "corruption")
        down = column(store, ("pod0/agg0", "pod0/tor0"), "corruption")
        assert np.mean(up) > 1e-4
        assert np.mean(down) == 0.0

    def test_congestion_fn_feeds_drops(self):
        topo = build_clos(1, 2, 2, 4)
        store = TelemetryStore(topo, WINDOW)
        poller = SnmpPoller(
            topo,
            store,
            traffic_fn=PerDirectionTraffic(
                topo, lambda did, t: 1_000_000, lambda did, t: 1e-4
            ),
            sanitizer=TelemetrySanitizer(topo),
        )
        poller.run(3)
        series = column(store, ("pod0/tor0", "pod0/agg0"), "congestion")
        assert np.mean(series) == pytest.approx(1e-4, rel=0.05)

    def test_utilization_recorded(self, setup):
        _topo, store, poller = setup
        poller.run(3)
        series = column(store, ("pod0/tor0", "pod0/agg0"), "utilization")
        # 1e6 packets of 1000B over 900s on 40G: 8e9/4.5e12.
        assert 0.0 < np.mean(series) < 0.01


def fill(store, did, count, start=1):
    """Append samples ``start`` .. ``start + count - 1`` to ``did``:
    sample ``i`` is at ``900 * i`` s with corruption ``i * 1e-6``,
    congestion ``i * 1e-3`` and utilization ``i / 100``."""
    for i in range(start, start + count):
        assert store.append_rates(did, 900.0 * i, i * 1e-6, i * 1e-3, i / 100)


class TestRing:
    """The store keeps each direction's newest ``window`` samples in a
    ring: sample ``k`` of a row is in slot ``k % window``."""

    def test_tail_across_the_wrap(self):
        store = TelemetryStore(TOPO, 4)
        did = ("a", "b")
        for count in range(1, 12):
            fill(store, did, 1, start=count)
            for n in range(1, 5):
                newest = range(max(1, count - n + 1), count + 1)
                assert store.tail(did, n) == (
                    [i / 100 for i in newest], [i * 1e-3 for i in newest]
                )
            kept = range(max(1, count - 3), count + 1)
            assert store.times(did) == [900.0 * i for i in kept]

    def test_last_sample_and_latest_after_the_wrap(self):
        store = TelemetryStore(TOPO, 4)
        rows = np.array([0, 2])  # the up directions a->b and c->d
        for count in range(1, 12):
            fill(store, ("a", "b"), 1, start=count)
            assert store.last_sample(("a", "b")) == (
                900.0 * count, count * 1e-6, count * 1e-3, count / 100,
                SampleQuality.OK,
            )
            times, corruption, congestion = store.latest(rows)
            assert times[0] == 900.0 * count and math.isnan(times[1])
            assert corruption[0] == count * 1e-6
            assert congestion[0] == count * 1e-3
        assert store.last_sample(("c", "d")) is None

    def test_drop_rule_compares_with_the_newest_slot_after_the_wrap(self):
        store = TelemetryStore(TOPO, 4)
        did = ("a", "b")
        fill(store, did, 5)  # slot 0 holds sample 5, slot 1 sample 2
        # Newer than the oldest kept sample, not the newest: a regression.
        assert not store.append_rates(did, 900.0 * 2.5, 0, 0, 0)
        assert not store.append_rates(did, 900.0 * 5, 0, 0, 0)
        rows = np.array([TOPO.direction_row(did)])
        zeros, ok = np.zeros(1), np.zeros(1, dtype=np.int8)
        assert store.append_rows(
            rows, np.array([900.0 * 4.5]), zeros, zeros, zeros, ok
        ) == 0
        assert store.dropped_samples == 3
        assert store.times(did) == [900.0 * i for i in range(2, 6)]
        fill(store, did, 1, start=6)
        assert store.times(did) == [900.0 * i for i in range(3, 7)]

    def test_wrapped_store_pickles(self):
        import pickle

        store = TelemetryStore(TOPO, 4)
        fill(store, ("a", "b"), 7)
        fill(store, ("c", "d"), 1)
        clone = pickle.loads(pickle.dumps(store))
        # One row per direction of the topology, a-b's up direction in
        # row 0 and c-d's in row 2.
        assert clone._time.shape == (4, 4)
        assert list(clone._length) == [7, 0, 1, 0]
        for did in (("a", "b"), ("c", "d")):
            assert clone.times(did) == store.times(did)
            assert clone.tail(did, 4) == store.tail(did, 4)
            assert clone.last_sample(did) == store.last_sample(did)
        fill(clone, ("a", "b"), 2, start=8)
        assert clone.times(("a", "b")) == [900.0 * i for i in range(6, 10)]
        assert not clone.append_rates(("a", "b"), 900.0 * 8.5, 0, 0, 0)

    def test_tail_longer_than_the_window_raises(self):
        store = TelemetryStore(TOPO, 4)
        fill(store, ("a", "b"), 2)
        assert store.tail(("a", "b"), 4)[0] == [0.01, 0.02]
        with pytest.raises(ValueError, match="keeps 4"):
            store.tail(("a", "b"), 5)

    def test_window_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="correlation_window"):
            CauseClassifier(correlation_window=0)
        assert CauseClassifier(correlation_window=1).correlation_window == 1


class TestStore:
    def test_out_of_order_append_dropped(self):
        store = TelemetryStore(TOPO, WINDOW)
        assert store.append_rates(("a", "b"), 900.0, 0.0, 0.0, 0.1)
        # Duplicate and backwards timestamps are dropped, not raised:
        # production feeds deliver them routinely (gap tolerance).
        assert not store.append_rates(("a", "b"), 900.0, 0.0, 0.0, 0.1)
        assert not store.append_rates(("a", "b"), 450.0, 0.0, 0.0, 0.1)
        assert store.dropped_samples == 2
        assert store.times(("a", "b")) == [900.0]

    def test_non_finite_timestamp_dropped(self):
        """Regression: ``nan <= times[-1]`` is false, so a NaN timestamp
        used to be stored and, being incomparable, let every later
        timestamp in — breaking the monotone-series guarantee."""
        store = TelemetryStore(TOPO, WINDOW)
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
        store = TelemetryStore(TOPO, WINDOW)
        did = ("a", "b")
        assert store.tail(did, 3) == ([], [])
        for i in range(1, 6):
            store.append_rates(did, 900.0 * i, 0.0, i * 1e-3, i * 0.1)
        utilization, congestion = store.tail(did, 3)
        assert utilization == pytest.approx([0.3, 0.4, 0.5])
        assert congestion == pytest.approx([3e-3, 4e-3, 5e-3])
        assert store.tail(did, WINDOW)[0] == column(store, did, "utilization")

    def test_gap_tolerant_append(self):
        store = TelemetryStore(TOPO, WINDOW)
        store.append_rates(("a", "b"), 900.0, 0, 0, 0)
        # A missed poll leaves a hole; the next append must still land.
        assert store.append_rates(("a", "b"), 2700.0, 1e-3, 0, 0)
        assert store.times(("a", "b")) == [900.0, 2700.0]
        assert store.dropped_samples == 0

    def test_quality_tracked_per_sample(self):
        store = TelemetryStore(TOPO, WINDOW)
        store.append_rates(("a", "b"), 900.0, 0, 0, 0)
        store.append_rates(
            ("a", "b"), 1800.0, 0, 0, 0, quality=SampleQuality.SUSPECT
        )
        assert column(store, ("a", "b"), "quality") == [
            SampleQuality.OK,
            SampleQuality.SUSPECT,
        ]

    def test_last_sample(self):
        store = TelemetryStore(TOPO, WINDOW)
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
