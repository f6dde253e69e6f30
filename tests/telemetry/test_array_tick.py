"""Differential tests: the array-form poll tick against the per-sample API.

``ReferencePoller`` is the pre-array poll loop, written only in terms of
the public per-sample methods (``DirectionCounters.record_interval``,
``FaultyTransport.deliver``, ``TelemetrySanitizer.ingest`` /
``observe_missing``, ``TelemetryStore.append_rates``).  Every test drives
it and the real poller over twin topologies with identical inputs and
requires identical state after every tick — sanitizer stats, every stored
series, quality windows, quarantine, missed-poll and drop counters, and
the transport RNG state (so not one draw was taken out of order).
"""

import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    CounterWrapFault,
    DuplicateSampleFault,
    FaultyTransport,
    FrozenCounterFault,
    MissedPollFault,
    TelemetryFault,
    TelemetryFaultConfig,
)
from repro.obs import ObsRecorder
from repro.obs.recorder import NULL_RECORDER
from repro.service.ingest import IngestingPoller
from repro.service.queues import DROPPED, BoundedWorkQueue
from repro.simulation.chaos import CHAOS_PRESETS, chaos_preset
from repro.telemetry import (
    CounterSnapshot,
    DirectionCounters,
    SnmpPoller,
    TelemetrySanitizer,
    TelemetryStore,
)
from repro.telemetry.poller import OpticalReading
from repro.topology import Direction, Switch, build_clos


# ---------------------------------------------------------------------- #
# The reference: the per-sample loop
# ---------------------------------------------------------------------- #


class ReferencePoller:
    """The per-sample poll loop the array tick replaced."""

    def __init__(self, topo, store, packets_fn, congestion_fn=None,
                 interval_s=900.0, transport=None, sanitizer=None,
                 attribution_fn=None, queue=None, batch_size=64,
                 drain_budget=None):
        self.topo = topo
        self.store = store
        self.packets_fn = packets_fn
        self.congestion_fn = congestion_fn or (lambda did, t: 0.0)
        self.interval_s = interval_s
        self.transport = transport
        self.sanitizer = sanitizer
        self.attribution_fn = attribution_fn
        self.queue = queue
        self.batch_size = batch_size
        self.drain_budget = drain_budget
        self.counters = {}
        self.previous = {}
        self.missed_polls = 0
        self.backpressure_losses = 0
        self.time_s = 0.0

    def poll_once(self):
        self.time_s += self.interval_s
        now = self.time_s
        deliveries = self.collect(now)
        if self.queue is None:
            self.rate_and_store(deliveries, now)
            return now
        for i in range(0, len(deliveries), self.batch_size):
            batch = (now, deliveries[i:i + self.batch_size])
            if self.queue.push(batch) == DROPPED:
                for did, _ in batch[1]:
                    self.backpressure_losses += 1
                    self.missed_polls += 1
                    if self.sanitizer is not None:
                        self.sanitizer.observe_missing(did, now)
        for time_s, batch in self.queue.drain(self.drain_budget):
            self.rate_and_store(batch, time_s)
        return now

    def collect(self, now):
        deliveries = []
        for link in self.topo.links():
            if not link.enabled:
                for direction in (Direction.UP, Direction.DOWN):
                    self.previous.pop(link.direction_id(direction), None)
                continue
            source = link
            if self.attribution_fn is not None:
                source = self.topo.link(self.attribution_fn(link.link_id))
            for direction in (Direction.UP, Direction.DOWN):
                did = link.direction_id(direction)
                packets = self.packets_fn(did, now)
                corruption = (
                    source.corruption_rate[direction] if source.enabled
                    else 0.0
                )
                congestion = self.congestion_fn(did, now)
                counters = self.counters.setdefault(
                    did, DirectionCounters(did)
                )
                counters.record_interval(packets, corruption, congestion)
                snap = counters.snapshot(now)
                delivered = (
                    [snap] if self.transport is None
                    else self.transport.deliver(did, snap)
                )
                deliveries.append((did, delivered))
        return deliveries

    def capacity(self, did):
        return self.topo.find_link(*did).capacity_gbps * 1e9 / 8.0 / 1000.0

    def rate_and_store(self, deliveries, now):
        for did, delivered in deliveries:
            if not delivered:
                self.missed_polls += 1
                if self.sanitizer is not None:
                    self.sanitizer.observe_missing(did, now)
            for snap in delivered:
                self.rate_one(did, snap)

    def rate_one(self, did, snap):
        capacity = self.capacity(did)
        if self.sanitizer is not None:
            sample = self.sanitizer.ingest(
                did, snap, capacity_pkts_per_s=capacity
            )
            if sample is not None:
                self.store.append_rates(
                    did,
                    sample.time_s,
                    corruption=sample.corruption,
                    congestion=sample.congestion,
                    utilization=sample.utilization,
                    quality=sample.quality,
                )
            return
        previous = self.previous.get(did)
        if previous is not None and snap.time_s > previous.time_s:
            interval = snap.time_s - previous.time_s
            sent = max(0, snap.total - previous.total)
            self.store.append_rates(
                did,
                snap.time_s,
                corruption=snap.corruption_rate_since(previous),
                congestion=snap.congestion_rate_since(previous),
                utilization=min(1.0, sent / (capacity * interval)),
            )
        if previous is None or snap.time_s >= previous.time_s:
            self.previous[did] = snap


# ---------------------------------------------------------------------- #
# Twin set-ups
# ---------------------------------------------------------------------- #


class Traffic:
    """Stateful traffic callables: every call advances one RNG, so the
    number *and order* of calls shows in every later value."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def packets(self, _did, _t):
        return self.rng.randrange(0, 20_000_000)

    def congestion(self, _did, _t):
        return self.rng.choice([0.0, 0.0, 1e-6, 1e-3])


def constant_packets(_did, _t):
    return 10_000_000


class GarbageFault(TelemetryFault):
    """A user-supplied fault: sometimes mangles the sample in ways no
    built-in does (non-finite, unrepresentable, non-int counters)."""

    def __init__(self, rate):
        self.rate = rate

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            if rng.random() < self.rate:
                total = rng.choice(
                    [float("nan"), 10**400, 2**60, float(sample.total)]
                )
                sample = CounterSnapshot(
                    sample.time_s, total, sample.errors, sample.drops
                )
            out.append(sample)
        return out


def custom_chain():
    """Built-ins out of config order around a user fault."""
    return [
        DuplicateSampleFault(0.1),
        MissedPollFault(0.1),
        GarbageFault(0.1),
        CounterWrapFault(),
        FrozenCounterFault(0.05, 2),
    ]


def make_transport(kind, seed):
    if kind is None:
        return None
    if kind == "custom":
        return FaultyTransport(faults=custom_chain(), seed=seed)
    if isinstance(kind, TelemetryFaultConfig):
        return FaultyTransport(copy.copy(kind))
    return FaultyTransport(chaos_preset(kind, seed=seed))


def swap_first_two(topo):
    first, second = list(topo.link_ids())[:2]
    mapping = {first: second, second: first}
    return lambda link_id: mapping.get(link_id, link_id)


class Twins:
    """The array poller and the reference over twin topologies."""

    def __init__(self, transport=None, seed=0, sanitizer=True,
                 traffic=False, miswire=False, queue=None, obs=False,
                 wrap_modulus=2**32):
        self.topos = [build_clos(2, 2, 2, 4), build_clos(2, 2, 2, 4)]
        self.sides = []
        for topo, cls in zip(self.topos, (None, ReferencePoller)):
            recorder = ObsRecorder() if obs else NULL_RECORDER
            store = TelemetryStore()
            cleaner = (
                TelemetrySanitizer(obs=recorder, window=4,
                                   min_window_samples=2,
                                   wrap_modulus=wrap_modulus)
                if sanitizer else None
            )
            source = Traffic(seed) if traffic else None
            kwargs = dict(
                packets_fn=source.packets if traffic else constant_packets,
                congestion_fn=source.congestion if traffic else None,
                transport=make_transport(transport, seed),
                sanitizer=cleaner,
                attribution_fn=swap_first_two(topo) if miswire else None,
            )
            if queue is not None:
                capacity, policy, budget = queue
                kwargs.update(
                    queue=BoundedWorkQueue(capacity, policy=policy),
                    batch_size=5,
                    drain_budget=budget,
                )
            if cls is None:
                cls = SnmpPoller if queue is None else IngestingPoller
                poller = cls(topo, store, obs=recorder, **kwargs)
            else:
                poller = cls(topo, store, **kwargs)
            self.sides.append((poller, store, cleaner, recorder))

    def apply(self, op):
        kind, index, rate = op
        for topo in self.topos:
            link_id = list(topo.link_ids())[index % topo.num_links]
            if kind == "disable":
                topo.disable_link(link_id)
            elif kind == "enable":
                topo.enable_link(link_id)
            elif kind == "corrupt":
                topo.set_corruption(
                    link_id, rate,
                    Direction.UP if index % 2 else Direction.DOWN,
                )
            elif kind == "clear":
                topo.clear_corruption(link_id)
        if kind == "optical":
            # Optical reads share the transport's RNG with the counters.
            readings = [
                side[0].transport.deliver_optical(
                    link_id, OpticalReading(0.0, -2.0, -3.0, -2.0, -3.0)
                )
                for side in self.sides
                if side[0].transport is not None
            ]
            assert [repr(r) for r in readings[:1]] == [
                repr(r) for r in readings[1:]
            ]

    def tick(self):
        times = [side[0].poll_once() for side in self.sides]
        assert times[0] == times[1]
        self.check()

    def check(self):
        (new, store, cleaner, obs), (ref, ref_store, ref_cleaner, ref_obs) = (
            self.sides
        )
        assert new.missed_polls == ref.missed_polls
        assert store.dropped_samples == ref_store.dropped_samples
        assert set(store.directions()) == set(ref_store.directions())
        assert store.num_directions() == ref_store.num_directions()
        for did in ref_store.directions():
            assert store.times(did) == ref_store.times(did)
            for series in ("corruption_series", "congestion_series",
                           "utilization_series"):
                got = getattr(store, series)(did)
                want = getattr(ref_store, series)(did)
                assert got.values.tolist() == want.values.tolist(), series
                assert got.interval_s == want.interval_s
                assert got.start_s == want.start_s
            assert store.quality_series(did) == ref_store.quality_series(did)
            assert store.last_sample(did) == ref_store.last_sample(did)
        if new.transport is not None:
            assert new.transport.polls_delivered == ref.transport.polls_delivered
            assert new.transport.polls_missed == ref.transport.polls_missed
            assert (
                new.transport._rng.getstate() == ref.transport._rng.getstate()
            )
        if cleaner is not None:
            assert vars(cleaner.stats) == vars(ref_cleaner.stats)
            dids = [
                link.direction_id(direction)
                for link in self.topos[0].links()
                for direction in (Direction.UP, Direction.DOWN)
            ]
            for did in dids:
                assert cleaner.recent_quality(did) == (
                    ref_cleaner.recent_quality(did)
                )
                assert cleaner.quarantined(did) == ref_cleaner.quarantined(did)
            assert cleaner.quarantined_directions() == (
                ref_cleaner.quarantined_directions()
            )
        if isinstance(new, IngestingPoller):
            assert new.backpressure_losses == ref.backpressure_losses
            assert new.queue.stats.as_dict() == ref.queue.stats.as_dict()
            assert new.queue.pending() == ref.queue.pending()
        if obs.enabled:
            cleaner.flush_obs_counts()
            ref_cleaner.flush_obs_counts()
            assert obs.events == ref_obs.events
            for name in ("sanitizer_samples_total",
                         "sanitizer_quarantine_transitions_total"):
                assert obs.registry.counter_total(name) == (
                    ref_obs.registry.counter_total(name)
                )
            assert obs.registry.get_value(
                "sanitizer_quarantined_directions"
            ) == ref_obs.registry.get_value("sanitizer_quarantined_directions")


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

OPS = st.lists(
    st.one_of(
        st.just(("poll", 0, 0.0)),
        st.just(("poll", 0, 0.0)),
        st.tuples(
            st.sampled_from(
                ["disable", "enable", "corrupt", "clear", "optical"]
            ),
            st.integers(0, 23),
            st.sampled_from([1e-7, 1e-5, 1e-3, 0.5]),
        ),
    ),
    min_size=4,
    max_size=30,
)

# Up to one in two, so that a reset, a freeze, a delay and a duplicate
# coincide on one row within a few ticks.
RATE = st.sampled_from([0.0, 0.05, 0.3, 0.5])

FAULT_CONFIGS = st.builds(
    TelemetryFaultConfig,
    seed=st.integers(0, 5),
    missed_poll_rate=RATE,
    wrap_32bit=st.booleans(),
    reset_rate=RATE,
    freeze_rate=RATE,
    freeze_duration_polls=st.integers(1, 5),
    duplicate_rate=RATE,
    delay_rate=RATE,
    optical_garbage_rate=RATE,
)

TRANSPORTS = st.one_of(
    st.none(),
    st.sampled_from(sorted(CHAOS_PRESETS)),
    st.just("custom"),
    FAULT_CONFIGS,
)

QUEUES = st.one_of(
    st.none(),
    st.tuples(
        st.integers(1, 12),
        st.sampled_from(["defer", "drop"]),
        st.one_of(st.none(), st.integers(1, 8)),
    ),
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(twins, ops):
    twins.tick()
    for op in ops:
        if op[0] == "poll":
            twins.tick()
        else:
            twins.apply(op)
    twins.tick()
    twins.tick()


class TestDifferential:
    @SETTINGS
    @given(
        transport=TRANSPORTS,
        seed=st.integers(0, 3),
        traffic=st.booleans(),
        miswire=st.booleans(),
        queue=QUEUES,
        obs=st.booleans(),
        ops=OPS,
    )
    def test_sanitized_tick_equals_per_sample_loop(
        self, transport, seed, traffic, miswire, queue, obs, ops
    ):
        run(
            Twins(transport, seed, traffic=traffic, miswire=miswire,
                  queue=queue, obs=obs),
            ops,
        )

    @SETTINGS
    @given(
        transport=TRANSPORTS,
        seed=st.integers(0, 3),
        traffic=st.booleans(),
        ops=OPS,
    )
    def test_raw_diff_tick_equals_per_sample_loop(
        self, transport, seed, traffic, ops
    ):
        """``sanitizer=None``: the study benches' raw differencing."""
        run(Twins(transport, seed, sanitizer=False, traffic=traffic), ops)

    @pytest.mark.parametrize("preset", sorted(CHAOS_PRESETS))
    @pytest.mark.parametrize("queue", [None, (3, "defer", 4), (2, "drop", None)])
    def test_every_preset_long_run(self, preset, queue):
        """Sixty ticks per preset with churn, long enough for rebased,
        frozen and quarantined rows to accumulate."""
        twins = Twins(preset, seed=7, traffic=True, miswire=True, queue=queue)
        rng = random.Random(11)
        for tick in range(60):
            if tick % 7 == 3:
                twins.apply(
                    (rng.choice(["disable", "corrupt"]), rng.randrange(24), 1e-4)
                )
            if tick % 7 == 6:
                twins.apply(("enable", rng.randrange(24), 0.0))
            twins.tick()

    def test_custom_chain_with_recorder(self):
        twins = Twins("custom", seed=2, traffic=True, obs=True)
        for _ in range(40):
            twins.tick()

    def test_link_added_after_the_first_poll(self):
        twins = Twins("flaky-collector", seed=1)
        twins.tick()
        twins.tick()
        for topo in twins.topos:
            topo.add_switch(Switch("pod0/agg-new", stage=1))
            topo.add_link("pod0/tor0", "pod0/agg-new")
        for _ in range(3):
            twins.tick()


class TestScalarRowsAreTheExceptions:
    def test_clean_transport_never_calls_the_per_sample_api(self, monkeypatch):
        """With a fault-free transport the tick is arrays end to end."""
        twins = Twins("none", seed=0, traffic=True)
        poller, _store, cleaner, _obs = twins.sides[0]
        calls = []
        for obj, name in (
            (poller.transport, "deliver"),
            (cleaner, "ingest"),
            (cleaner, "observe_missing"),
            (poller._store, "append_rates"),
        ):
            monkeypatch.setattr(
                obj, name,
                lambda *a, _n=name, **k: calls.append(_n),
            )
        for _ in range(5):
            poller.poll_once()
        assert calls == []

    @pytest.mark.parametrize("preset", sorted(CHAOS_PRESETS))
    def test_no_preset_calls_the_per_sample_api(self, preset, monkeypatch):
        """The chain a config builds is arrays end to end too: resets,
        freezes, held and duplicated samples, with links flapping."""
        twins = Twins(preset, seed=3, traffic=True)
        poller, store, cleaner, _obs = twins.sides[0]
        calls = []
        for obj, name in (
            (poller.transport, "deliver"),
            (cleaner, "ingest"),
            (cleaner, "observe_missing"),
            (store, "append_rates"),
        ):
            monkeypatch.setattr(
                obj, name,
                lambda *a, _n=name, **k: calls.append(_n),
            )
        for tick in range(60):
            if tick % 5 == 2:
                twins.apply(("disable", tick, 0.0))
            if tick % 5 == 4:
                twins.apply(("enable", tick - 2, 0.0))
            poller.poll_once()
        assert calls == []
        assert cleaner.stats.samples > 0
        if preset in ("harsh", "flaky-collector"):
            assert cleaner.stats.out_of_order_dropped > 0
            assert cleaner.stats.duplicates_dropped > 0


# ---------------------------------------------------------------------- #
# Fault state in columns: one copy, whoever writes it
# ---------------------------------------------------------------------- #

#: Every stateful fault fires often, so rebased, frozen and held rows
#: are all present after a few ticks.
BUSY = TelemetryFaultConfig(
    seed=4, missed_poll_rate=0.2, wrap_32bit=True, reset_rate=0.2,
    freeze_rate=0.2, freeze_duration_polls=4, duplicate_rate=0.3,
    delay_rate=0.3,
)


class DeliverOnly:
    """A transport's per-sample face: everything but ``deliver_rows``."""

    def __init__(self, transport):
        self._transport = transport

    def __getattr__(self, name):
        if name == "deliver_rows":
            raise AttributeError(name)
        return getattr(self._transport, name)


def stateful_rows(transport):
    """How many directions are rebased, frozen, holding a sample."""
    reset, freeze, _wrap, _miss, delay, _duplicate = transport._config_chain()
    return (
        int(np.count_nonzero(reset._state.known)),
        int(np.count_nonzero(freeze._state.left > 0)),
        int(np.count_nonzero(delay._state.known)),
    )


def as_lists(first, missed, later_entry, later, scalar):
    """What ``deliver_rows`` returned, as ``deliver``'s list per row."""
    if scalar is not None:
        return scalar
    lists = [
        [] if gone else [CounterSnapshot(*(c[i].item() for c in first))]
        for i, gone in enumerate(missed.tolist())
    ]
    for j, entry in enumerate(later_entry.tolist()):
        lists[entry].append(CounterSnapshot(*(c[j].item() for c in later)))
    return lists


class TestFaultStateColumns:
    @SETTINGS
    @given(config=FAULT_CONFIGS, seed=st.integers(0, 50))
    def test_deliver_rows_returns_what_deliver_returns(self, config, seed):
        """Row by row the same snapshots in the same arrival order, over
        ticks that poll a changing subset of the directions."""
        rng = random.Random(seed)
        array, scalar = FaultyTransport(config), FaultyTransport(config)
        dids = [("tor%d" % i, "agg") for i in range(12)]
        counters = np.zeros((3, len(dids)), dtype=np.int64)
        for tick in range(1, 13):
            polled = sorted(rng.sample(range(len(dids)), rng.randint(1, 12)))
            counters[0, polled] += rng.choice([10**6, 3 * 10**9])
            counters[1:, polled] += rng.randrange(50)
            ids = [dids[i] for i in polled]
            total, errors, drops = counters[:, polled]
            want = [
                scalar.deliver(did, CounterSnapshot(900.0 * tick, *row))
                for did, row in zip(ids, counters[:, polled].T.tolist())
            ]
            got = as_lists(
                *array.deliver_rows(ids, 900.0 * tick, total, errors, drops)
            )
            assert got == want
            assert array._rng.getstate() == scalar._rng.getstate()
            assert (array.polls_delivered, array.polls_missed) == (
                scalar.polls_delivered, scalar.polls_missed
            )

    @pytest.mark.parametrize("sanitizer", [True, False])
    def test_deliver_and_deliver_rows_alternate_on_one_transport(
        self, sanitizer
    ):
        twins = Twins(BUSY, traffic=True, sanitizer=sanitizer)
        poller = twins.sides[0][0]
        transport = poller.transport
        for tick in range(40):
            poller.transport = (
                transport if tick % 2 else DeliverOnly(transport)
            )
            if tick % 9 == 4:
                twins.apply(("disable", tick, 0.0))
            if tick % 9 == 7:
                twins.apply(("enable", tick - 3, 0.0))
            twins.tick()
        assert all(stateful_rows(transport))

    def test_a_deferred_direction_stays_deferred_for_the_tick(self):
        """A backwards counter under a modulus too wide for int64 defers
        to ``ingest``; the held sample that follows it in the same poll
        must wait for it, not be rated first."""
        twins = Twins(BUSY, traffic=True, wrap_modulus=2**64)
        for _ in range(30):
            twins.tick()
        stats = twins.sides[0][2].stats
        assert stats.resets_detected and stats.out_of_order_dropped

    def test_pickle_round_trip_mid_run(self):
        twins = Twins(BUSY, traffic=True)
        poller = twins.sides[0][0]
        for _ in range(6):
            twins.tick()
        before = stateful_rows(poller.transport)
        assert all(before)
        poller.transport = pickle.loads(pickle.dumps(poller.transport))
        assert stateful_rows(poller.transport) == before
        for _ in range(10):
            twins.tick()

    @pytest.mark.parametrize("state", ["frozen", "held"])
    def test_link_flaps_while_its_direction_is_frozen_or_held(self, state):
        """Fault state outlives a disable: the freeze resumes where it
        stopped and the held sample arrives, however late, once the link
        is polled again."""
        config = TelemetryFaultConfig(
            seed=1, freeze_duration_polls=5, duplicate_rate=0.5,
            **{"freeze_rate" if state == "frozen" else "delay_rate": 1.0},
        )
        twins = Twins(config)
        for _ in range(3):
            twins.tick()
        transport = twins.sides[0][0].transport
        chain = transport._config_chain()
        column = (
            chain[1]._state.left > 0 if state == "frozen"
            else chain[4]._state.known
        )
        assert column[: 2 * twins.topos[0].num_links].all()
        twins.apply(("disable", 3, 0.0))
        twins.apply(("disable", 4, 0.0))
        twins.tick()
        twins.apply(("enable", 3, 0.0))
        for _ in range(4):
            twins.tick()
        twins.apply(("enable", 4, 0.0))
        for _ in range(4):
            twins.tick()


# ---------------------------------------------------------------------- #
# Per-row sample times: a held sample is older than the tick
# ---------------------------------------------------------------------- #

DID = ("a", "b")
CAPACITY = 1e6
FRESH = CounterSnapshot(2700.0, 3_000_000, 30, 3)
HELD = CounterSnapshot(1800.0, 2_000_000, 20, 2)
#: What one poll can deliver for a direction, in arrival order.
ARRIVALS = {
    "fresh": [FRESH],
    "fresh, dup": [FRESH, FRESH],
    "fresh, held": [FRESH, HELD],
    "held, held-dup": [HELD, HELD],
}


@pytest.mark.parametrize("arrivals", sorted(ARRIVALS))
@pytest.mark.parametrize("baseline_s", [None, 900.0, 1800.0, 2700.0])
def test_rows_with_their_own_times_match_the_per_sample_api(
    arrivals, baseline_s
):
    """``ingest_rows`` / ``append_rows`` one delivery at a time against
    ``ingest`` / ``append_rates``, over baselines older than, equal to
    and newer than the samples."""
    sides = []
    for array in (True, False):
        cleaner, store = TelemetrySanitizer(), TelemetryStore()
        if baseline_s is not None:
            for time_s in (baseline_s - 900.0, baseline_s):
                sample = cleaner.ingest(
                    DID, CounterSnapshot(time_s, int(time_s * 1000), 0, 0),
                    capacity_pkts_per_s=CAPACITY,
                )
                if sample is not None:
                    store.append_rates(DID, sample.time_s, 0.0, 0.0, 0.0)
        for snap in ARRIVALS[arrivals]:
            if not array:
                sample = cleaner.ingest(
                    DID, snap, capacity_pkts_per_s=CAPACITY
                )
                if sample is not None:
                    store.append_rates(
                        DID, sample.time_s, sample.corruption,
                        sample.congestion, sample.utilization,
                        sample.quality,
                    )
                continue
            one = np.ones(1, dtype=bool)
            done = cleaner.ingest_rows(
                cleaner.rows_for([DID]),
                np.array([snap.time_s]),
                np.array([snap.total]),
                np.array([snap.errors]),
                np.array([snap.drops]),
                np.array([CAPACITY]),
                ~one,
                ~one,
            )
            assert not done.deferred.any()
            keep = done.rated
            store.append_rows(
                store.rows_for([DID])[keep],
                np.array([snap.time_s])[keep],
                done.corruption[keep],
                done.congestion[keep],
                done.utilization[keep],
                done.quality[keep],
            )
        sides.append((cleaner, store))
    (cleaner, store), (ref_cleaner, ref_store) = sides
    assert vars(cleaner.stats) == vars(ref_cleaner.stats)
    assert cleaner.recent_quality(DID) == ref_cleaner.recent_quality(DID)
    assert cleaner._prev.get(0) == ref_cleaner._prev.get(0)
    assert store.dropped_samples == ref_store.dropped_samples
    assert store.times(DID) == ref_store.times(DID)
    assert store.quality_series(DID) == ref_store.quality_series(DID)
    assert store.last_sample(DID) == ref_store.last_sample(DID)


def test_append_rows_drops_by_each_rows_own_time():
    store = TelemetryStore()
    rows = store.rows_for([("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")])
    zeros, ok = np.zeros(4), np.zeros(4, dtype=np.int8)
    first = np.full(4, 900.0)
    assert store.append_rows(rows, first, zeros, zeros, zeros, ok) == 4
    times = np.array([1800.0, 900.0, 450.0, math.nan])
    assert store.append_rows(rows, times, zeros, zeros, zeros, ok) == 1
    assert store.dropped_samples == 3
    assert store.times(("a", "b")) == [900.0, 1800.0]
    assert store.times(("c", "a")) == [900.0]


class TestCounterRange:
    def test_counter_beyond_exact_range_is_refused(self):
        topo = build_clos(1, 1, 1, 1)
        poller = SnmpPoller(
            topo, TelemetryStore(), packets_fn=lambda did, t: 2**52
        )
        poller.poll_once()
        with pytest.raises(OverflowError):
            poller.poll_once()

    def test_rate_checks_match_record_interval(self):
        topo = build_clos(1, 1, 1, 1)
        for kwargs, message in (
            (dict(packets_fn=lambda d, t: -1), "packet count"),
            (dict(packets_fn=constant_packets,
                  congestion_fn=lambda d, t: 1.5), "congestion rate 1.5"),
            (dict(packets_fn=constant_packets,
                  congestion_fn=lambda d, t: math.nan), "congestion rate nan"),
        ):
            poller = SnmpPoller(topo, TelemetryStore(), **kwargs)
            with pytest.raises(ValueError, match=message):
                poller.poll_once()
