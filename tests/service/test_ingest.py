"""IngestingPoller: batched pushes through the bounded queue.

With an ample queue and no drain budget the streaming front-end must
degenerate to the plain poller (same samples, same order); under
backpressure, dropped batches surface as missed polls and deferred
batches arrive late at their *original* timestamps.
"""

import pytest

from repro.congestion import congestion_model
from repro.faults import FaultyTransport
from repro.service.ingest import IngestingPoller, TelemetryBatch
from repro.service.queues import BoundedWorkQueue
from repro.simulation.chaos import chaos_preset
from repro.telemetry import SnmpPoller, TelemetrySanitizer, TelemetryStore
from repro.telemetry.poller import ConstantTraffic
from repro.topology import Direction, build_clos
from tests.telemetry.stored import WINDOW, column, recent_quality, samples


PACKETS = ConstantTraffic(1_000_000)


def build_poller(topo, capacity=1024, policy="defer", batch_size=10,
                 drain_budget=None):
    store = TelemetryStore(WINDOW)
    sanitizer = TelemetrySanitizer()
    queue = BoundedWorkQueue(capacity, policy=policy)
    poller = IngestingPoller(
        topo,
        store,
        traffic_fn=PACKETS,
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
            column(store, did, "corruption"),
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
        store_b = TelemetryStore(WINDOW)
        plain = SnmpPoller(
            topo_b, store_b, traffic_fn=PACKETS,
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


class PerBatchPoller(IngestingPoller):
    """The drain before batches of one timestamp were joined: sanitize
    and store every drained batch on its own."""

    def poll_once(self):
        self.time_s += self.interval_s
        self._push_batches(self._collect(self.time_s))
        for batch in self.queue.drain(self.drain_budget):
            self._store_rated(self._sanitize(batch))
        return self.time_s


class TestJoinedDrain:
    """Joining the drained batches of one timestamp into one array changes
    nothing a run can observe."""

    def side(self, cls, capacity, policy, drain_budget):
        topo = build_clos(2, 3, 2, 4)  # 40 directions, 6 batches of 7
        topo.set_corruption(("pod0/tor0", "pod0/agg0"), 1e-4)
        topo.set_corruption(("pod1/tor1", "pod1/agg0"), 1e-3, Direction.DOWN)
        store = TelemetryStore(WINDOW)
        sanitizer = TelemetrySanitizer(window=4, min_window_samples=2)
        queue = BoundedWorkQueue(capacity, policy=policy)
        model = congestion_model("incast", topo, seed=4)
        poller = cls(
            topo,
            store,
            traffic_fn=lambda dids, now, rows: model.traffic(
                dids, now, 900.0, rows=rows
            ),
            # Wraps, freezes, duplicates and missed polls: the later
            # deliveries a batch carries, whose entries the join re-bases.
            transport=FaultyTransport(chaos_preset("harsh", seed=4)),
            sanitizer=sanitizer,
            queue=queue,
            batch_size=7,
            drain_budget=drain_budget,
        )
        return topo, poller, store, sanitizer, queue

    @pytest.mark.parametrize(
        "capacity, policy, drain_budget",
        [
            (1024, "defer", None),  # ample
            (4, "defer", None),     # overflow parked, drained in the tick
            (1024, "defer", 4),     # backlog crosses ticks: mixed timestamps
            (4, "defer", 5),
            (4, "drop", None),      # dropping
            (3, "drop", 2),
        ],
    )
    def test_joined_drain_equals_per_batch_drain(
        self, capacity, policy, drain_budget
    ):
        joined = self.side(IngestingPoller, capacity, policy, drain_budget)
        single = self.side(PerBatchPoller, capacity, policy, drain_budget)
        for tick in range(40):
            if tick in (9, 21):
                for topo, *_ in (joined, single):
                    lid = list(topo.link_ids())[tick % topo.num_links]
                    (topo.disable_link if tick == 9 else topo.enable_link)(lid)
            assert joined[1].poll_once() == single[1].poll_once()
            self.check(joined, single)
        _, poller, _, sanitizer, queue = joined
        assert sanitizer.stats.samples > 0
        if drain_budget is not None:
            assert queue.pending() > 0  # a backlog did build up
        if policy == "drop":
            assert poller.backpressure_losses > 0

    def check(self, joined, single):
        topo, poller, store, sanitizer, queue = joined
        _, ref_poller, ref_store, ref_sanitizer, ref_queue = single
        assert vars(sanitizer.stats) == vars(ref_sanitizer.stats)
        assert queue.stats == ref_queue.stats
        assert queue.accounting_ok()
        assert [len(b) for b in queue._ring] == [
            len(b) for b in ref_queue._ring
        ]
        assert poller.missed_polls == ref_poller.missed_polls
        assert poller.backpressure_losses == ref_poller.backpressure_losses
        assert poller.transport.rng_state() == ref_poller.transport.rng_state()
        assert list(store.directions()) == list(ref_store.directions())
        for did in ref_store.directions():
            assert samples(store, did) == samples(ref_store, did)
            assert recent_quality(sanitizer, did) == (
                recent_quality(ref_sanitizer, did)
            )
            assert sanitizer.quarantined(did) == ref_sanitizer.quarantined(did)
        assert (
            sanitizer.quarantined_directions()
            == ref_sanitizer.quarantined_directions()
        )
