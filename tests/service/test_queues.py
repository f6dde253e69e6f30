"""BoundedWorkQueue: backpressure accounting under bursty streams.

The conservation law (offered == accepted + deferred + dropped, and
drained + queued == accepted + requeued) must hold at *every* instant,
not just at the end — nothing is ever lost silently.
"""

import pytest

from repro.obs import ObsRecorder
from repro.service.queues import (
    ACCEPTED,
    DEFERRED,
    DROPPED,
    BoundedWorkQueue,
    QueueStats,
)
from tests.metrics import value


class TestValidation:
    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            BoundedWorkQueue(0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            BoundedWorkQueue(4, policy="block")


class TestDeferPolicy:
    def test_burst_defers_then_requeues_fifo(self):
        q = BoundedWorkQueue(3, policy="defer")
        outcomes = [q.push(i) for i in range(8)]
        assert outcomes == [ACCEPTED] * 3 + [DEFERRED] * 5
        assert q.pending() == 8
        assert q.accounting_ok()
        # Budgeted drains see the backlog oldest-first across the
        # ring/overflow boundary.
        assert q.drain(4) == [0, 1, 2, 3]
        assert q.accounting_ok()
        assert q.drain() == [4, 5, 6, 7]
        assert q.pending() == 0
        assert q.accounting_ok()

    def test_unbudgeted_drain_empties_overflow(self):
        """drain(None) must pull the whole parked backlog through the
        ring, not just one ring's worth."""
        q = BoundedWorkQueue(2, policy="defer")
        for i in range(50):
            q.push(i)
        assert q.drain() == list(range(50))
        assert q.pending() == 0
        assert q.stats.drained == 50
        assert q.stats.requeued == 48
        assert q.accounting_ok()

    def test_bursty_interleaved_stream_conserves_every_push(self):
        q = BoundedWorkQueue(4, policy="defer")
        consumed = []
        offered = 0
        # Bursts of growing size with a slow consumer (budget 3/tick).
        for tick, burst in enumerate([1, 6, 0, 9, 2, 7, 0, 0, 5]):
            for j in range(burst):
                q.push((tick, j))
                offered += 1
            consumed.extend(q.drain(3))
            assert q.accounting_ok()
        consumed.extend(q.drain())
        s = q.stats
        assert s.offered == offered == 30
        assert s.dropped == 0
        assert len(consumed) == offered  # every push eventually consumed
        assert s.drained == s.accepted + s.requeued
        assert s.high_watermark >= 4

    def test_requeued_never_exceeds_deferred(self):
        q = BoundedWorkQueue(1, policy="defer")
        for i in range(5):
            q.push(i)
        q.drain(2)
        assert q.stats.requeued <= q.stats.deferred
        assert q.accounting_ok()


class TestDropPolicy:
    def test_overflow_is_dropped_and_counted(self):
        q = BoundedWorkQueue(2, policy="drop")
        outcomes = [q.push(i) for i in range(5)]
        assert outcomes == [ACCEPTED, ACCEPTED, DROPPED, DROPPED, DROPPED]
        assert q.pending() == 2
        assert q.drain() == [0, 1]
        s = q.stats
        assert (s.offered, s.accepted, s.dropped, s.deferred) == (5, 2, 3, 0)
        assert q.accounting_ok()

    def test_drops_free_no_capacity(self):
        q = BoundedWorkQueue(1, policy="drop")
        q.push("a")
        q.push("b")  # dropped, ring still full with "a"
        assert q.drain() == ["a"]
        q.push("c")
        assert q.drain() == ["c"]
        assert q.stats.dropped == 1
        assert q.accounting_ok()


class TestStatsAndObs:
    def test_high_watermark_tracks_ring_plus_overflow(self):
        q = BoundedWorkQueue(2, policy="defer")
        for i in range(7):
            q.push(i)
        assert q.stats.high_watermark == 7
        q.drain()
        assert q.stats.high_watermark == 7  # never decreases

    def test_as_dict_round_trips_counters(self):
        stats = QueueStats(offered=5, accepted=3, deferred=1, dropped=1)
        d = stats.as_dict()
        assert d["offered"] == 5
        assert set(d) == {
            "offered", "accepted", "deferred", "requeued",
            "dropped", "drained", "high_watermark",
        }

    def test_push_outcomes_become_labeled_counters(self):
        obs = ObsRecorder()
        q = BoundedWorkQueue(2, policy="drop", obs=obs, name="t")
        for i in range(5):
            q.push(i)
        q.drain()
        reg = obs.registry
        assert value(reg,
            "service_queue_pushes_total", queue="t", outcome="accepted"
        ) == 2
        assert value(reg,
            "service_queue_pushes_total", queue="t", outcome="dropped"
        ) == 3
        assert value(reg, "service_queue_drained_total", queue="t") == 2
        assert value(reg, "service_queue_depth", queue="t") == 0
