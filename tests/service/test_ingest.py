"""IngestingPoller: batched pushes through the bounded queue.

With an ample queue and no drain budget the streaming front-end must
degenerate to the plain poller (same samples, same order); under
backpressure, dropped batches surface as missed polls and deferred
batches arrive late at their *original* timestamps.
"""

import pytest

from repro.service.ingest import IngestingPoller, TelemetryBatch
from repro.service.queues import BoundedWorkQueue
from repro.telemetry import SnmpPoller, TelemetrySanitizer, TelemetryStore
from repro.topology import build_clos


def packets(_did, _t):
    return 1_000_000


def build_poller(topo, capacity=1024, policy="defer", batch_size=10,
                 drain_budget=None):
    store = TelemetryStore()
    sanitizer = TelemetrySanitizer()
    queue = BoundedWorkQueue(capacity, policy=policy)
    poller = IngestingPoller(
        topo,
        store,
        packets_fn=packets,
        sanitizer=sanitizer,
        queue=queue,
        batch_size=batch_size,
        drain_budget=drain_budget,
    )
    return poller, store, sanitizer, queue


def store_contents(store):
    return {
        did: (
            store.times(did),
            store.corruption_series(did).values.tolist(),
        )
        for did in store.directions()
    }


class TestValidation:
    def test_batch_size_floor(self):
        topo = build_clos(2, 2, 2, 2)
        with pytest.raises(ValueError):
            build_poller(topo, batch_size=0)

    def test_drain_budget_floor(self):
        topo = build_clos(2, 2, 2, 2)
        with pytest.raises(ValueError):
            build_poller(topo, drain_budget=0)


class TestAmpleQueueParity:
    def test_matches_plain_poller_sample_for_sample(self):
        """Streaming front-end with no pressure == the batch poller."""
        topo_a = build_clos(2, 3, 2, 4)
        topo_b = build_clos(2, 3, 2, 4)
        streaming, store_a, _, queue = build_poller(topo_a)
        store_b = TelemetryStore()
        plain = SnmpPoller(
            topo_b, store_b, packets_fn=packets,
            sanitizer=TelemetrySanitizer(),
        )
        for _ in range(4):
            streaming.poll_once()
            plain.poll_once()
        assert store_contents(store_a) == store_contents(store_b)
        assert queue.pending() == 0
        assert queue.accounting_ok()
        assert streaming.backpressure_losses == 0

    def test_batch_slicing_covers_every_direction(self):
        topo = build_clos(2, 3, 2, 4)  # 20 links = 40 directions
        poller, _, _, queue = build_poller(topo, batch_size=10)
        poller.poll_once()
        # ceil(40 / 10) = 4 batches, all accepted and drained.
        assert queue.stats.offered == 4
        assert queue.stats.drained == 4
        assert queue.accounting_ok()


class TestDropBackpressure:
    def test_dropped_batches_count_as_missed_polls(self):
        topo = build_clos(2, 3, 2, 4)  # 4 batches/poll at batch_size=10
        poller, store, sanitizer, queue = build_poller(
            topo, capacity=2, policy="drop", batch_size=10
        )
        poller.poll_once()
        # 2 batches accepted, 2 dropped -> their directions go missing.
        assert queue.stats.dropped == 2
        lost = poller.backpressure_losses
        assert lost == 40 - 2 * 10
        assert poller.missed_polls == lost
        assert queue.accounting_ok()
        # The sanitizer was told: every lost push is a missing poll.
        assert sanitizer.stats.missing == lost


class TestDeferBackpressure:
    def test_deferred_batches_arrive_late_at_original_timestamps(self):
        topo = build_clos(2, 3, 2, 4)  # 4 batches/poll
        poller, store, _, queue = build_poller(
            topo, capacity=1024, batch_size=10, drain_budget=3
        )
        poller.poll_once()  # push 4, drain 3 -> backlog 1
        assert queue.pending() == 1
        poller.poll_once()  # push 4, drain 3 (tick-1 leftover first)
        assert queue.pending() == 2
        assert queue.accounting_ok()
        # The backlog still holds only original-timestamp batches; drain
        # them and check the timestamps were preserved.
        leftovers = queue.drain()
        assert [b.time_s for b in leftovers] == [1800.0, 1800.0]
        assert all(isinstance(b, TelemetryBatch) for b in leftovers)
        # Nothing lost: defer policy never drops.
        assert queue.stats.dropped == 0
        assert poller.backpressure_losses == 0
