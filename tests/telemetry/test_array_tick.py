"""Differential tests: the array-form poll tick against the per-sample
reference in :mod:`tests.telemetry.reference`.

Every test drives the real poller (array transport, sanitizer and store)
and :class:`~tests.telemetry.reference.ReferencePoller` (a dict-state
fault chain, sanitizer and store, one sample at a time) over twin
topologies with identical inputs and requires identical state after
every tick — sanitizer stats, every stored series, quality windows,
quarantine and its transitions, missed-poll and drop counters, and the
transport stream's logical state (so not one draw was taken out of
order), read without disturbing its read-ahead.
"""

import copy
import math
import pickle
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultyTransport, TelemetryFaultConfig
from repro.obs import ObsRecorder
from repro.obs.recorder import NULL_RECORDER
from repro.service.ingest import IngestingPoller
from repro.service.queues import BoundedWorkQueue
from repro.simulation.chaos import CHAOS_PRESETS, chaos_preset
from repro.telemetry import (
    CounterSnapshot,
    SnmpPoller,
    TelemetrySanitizer,
    TelemetryStore,
)
from repro.telemetry.poller import ConstantTraffic, OpticalReading
from repro.topology import Direction, Switch, build_clos
from tests.telemetry.reference import (
    PerDirectionTraffic,
    ReferencePoller,
    ReferenceSanitizer,
    ReferenceStore,
    ReferenceTransport,
)
from tests.telemetry.stored import WINDOW, recent_quality, samples as stored
from tests.telemetry.toy import toy_topology
from tests.metrics import total, value

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


def make_transport(kind, seed, cls):
    if kind is None:
        return None
    if isinstance(kind, TelemetryFaultConfig):
        return cls(copy.copy(kind))
    return cls(chaos_preset(kind, seed=seed))


class TransitionLog(ObsRecorder):
    """A recorder that also keeps every quarantine counter and gauge call
    in order, so a gauge's intermediate values can be compared too."""

    def __init__(self):
        super().__init__()
        self.log = []

    def count(self, name, value=1.0, **labels):
        if name.startswith("sanitizer_quarantine"):
            self.log.append((name, value, labels))
        super().count(name, value, **labels)

    def gauge(self, name, value, **labels):
        if name.startswith("sanitizer_quarantine"):
            self.log.append((name, value, labels))
        super().gauge(name, value, **labels)


def swap_first_two(topo):
    first, second = list(topo.link_ids())[:2]
    mapping = {first: second, second: first}
    return lambda link_id: mapping.get(link_id, link_id)


class Twins:
    """The array poller and the reference over twin topologies.

    The reference store keeps every sample; :meth:`check` compares the
    ring with its last ``WINDOW`` after every tick."""

    def __init__(self, transport=None, seed=0, traffic=False, miswire=False,
                 queue=None, obs=False):
        self.topos = [build_clos(2, 2, 2, 4), build_clos(2, 2, 2, 4)]
        self.sides = []
        for topo, reference in zip(self.topos, (False, True)):
            recorder = TransitionLog() if obs else NULL_RECORDER
            source = Traffic(seed) if traffic else None
            packets_fn = source.packets if traffic else constant_packets
            congestion_fn = source.congestion if traffic else None
            kwargs = dict(
                attribution_fn=swap_first_two(topo) if miswire else None,
            )
            if queue is not None:
                capacity, policy, budget = queue
                kwargs.update(
                    queue=BoundedWorkQueue(capacity, policy=policy),
                    batch_size=5,
                    drain_budget=budget,
                )
            # The real store is the one a run builds: the newest ``WINDOW``
            # samples of each direction.
            cleaner_cls, store, transport_cls = (
                (ReferenceSanitizer, ReferenceStore(), ReferenceTransport)
                if reference
                else (
                    partial(TelemetrySanitizer, topo),
                    TelemetryStore(topo, WINDOW),
                    partial(FaultyTransport, topo),
                )
            )
            cleaner = cleaner_cls(obs=recorder, window=4, min_window_samples=2)
            kwargs.update(
                transport=make_transport(transport, seed, transport_cls),
                sanitizer=cleaner,
            )
            if reference:
                poller = ReferencePoller(
                    topo, store, packets_fn, congestion_fn=congestion_fn,
                    **kwargs
                )
            else:
                cls = SnmpPoller if queue is None else IngestingPoller
                poller = cls(
                    topo, store,
                    traffic_fn=PerDirectionTraffic(
                        topo, packets_fn, congestion_fn
                    ),
                    obs=recorder, **kwargs,
                )
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
        for did in ref_store.directions():
            samples = ref_store.samples(did)
            assert stored(store, did) == samples[-WINDOW:]
            assert store.last_sample(did) == samples[-1]
        if new.transport is not None:
            assert new.transport.polls_delivered == ref.transport.polls_delivered
            assert new.transport.polls_missed == ref.transport.polls_missed
            assert new.transport.rng_state() == ref.transport._rng.getstate()
        if cleaner is not None:
            assert vars(cleaner.stats) == vars(ref_cleaner.stats)
            dids = [
                link.direction_id(direction)
                for link in self.topos[0].links()
                for direction in (Direction.UP, Direction.DOWN)
            ]
            for did in dids:
                assert recent_quality(cleaner, did) == (
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
            # Every quarantine the sanitizer holds was announced.
            transitions = "sanitizer_quarantine_transitions_total"
            assert (
                (value(obs.registry, transitions, transition="enter") or 0)
                - (value(obs.registry, transitions, transition="leave") or 0)
                == cleaner.quarantined_directions()
            )
            cleaner.flush_obs_counts()
            ref_cleaner.flush_obs_counts()
            assert obs.events == ref_obs.events
            assert obs.log == ref_obs.log
            assert total(obs.registry, "sanitizer_samples_total") == (
                total(ref_obs.registry, "sanitizer_samples_total")
            )


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


def churn(twins, ticks, seed=11):
    """``ticks`` polls with links disabled, corrupted and re-enabled."""
    rng = random.Random(seed)
    for tick in range(ticks):
        if tick % 7 == 3:
            twins.apply(
                (rng.choice(["disable", "corrupt"]), rng.randrange(24), 1e-4)
            )
        if tick % 7 == 6:
            twins.apply(("enable", rng.randrange(24), 0.0))
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

    @pytest.mark.parametrize("preset", sorted(CHAOS_PRESETS))
    @pytest.mark.parametrize("queue", [None, (3, "defer", 4), (2, "drop", None)])
    def test_every_preset_long_run(self, preset, queue):
        """Sixty ticks per preset with churn, long enough for rebased,
        frozen and quarantined rows to accumulate."""
        churn(Twins(preset, seed=7, traffic=True, miswire=True, queue=queue), 60)

    @pytest.mark.parametrize("preset", ["harsh", "flaky-collector"])
    @pytest.mark.parametrize("queue", [None, (2, "drop", None)])
    def test_quarantine_transitions_in_entry_order(self, preset, queue):
        """With a recorder, the transitions of a tick's waves come out as
        the per-sample loop emits them: by direction, each direction's in
        arrival order, the gauge at its running count."""
        twins = Twins(preset, seed=5, traffic=True, queue=queue, obs=True)
        churn(twins, 60)
        assert twins.sides[0][3].log

    def test_link_added_after_the_first_poll(self):
        twins = Twins("flaky-collector", seed=1)
        twins.tick()
        twins.tick()
        for topo in twins.topos:
            topo.add_switch(Switch("pod0/agg-new", stage=1))
            topo.add_link("pod0/tor0", "pod0/agg-new")
        for _ in range(3):
            twins.tick()


PER_SAMPLE_API = ("deliver", "ingest", "observe_missing", "append_rates")


def spy_per_sample_api(monkeypatch, poller, store, cleaner):
    """Replace every per-sample method with a call recorder."""
    calls = []
    for obj, name in zip(
        (poller.transport, cleaner, cleaner, store), PER_SAMPLE_API
    ):
        monkeypatch.setattr(
            obj, name, lambda *a, _n=name, **k: calls.append(_n)
        )
    return calls


class TestScalarRowsAreTheExceptions:
    @pytest.mark.parametrize("obs", [False, True])
    def test_clean_transport_never_calls_the_per_sample_api(
        self, obs, monkeypatch
    ):
        """With a fault-free transport the tick is arrays end to end."""
        twins = Twins("none", seed=0, traffic=True, obs=obs)
        poller, store, cleaner, _obs = twins.sides[0]
        calls = spy_per_sample_api(monkeypatch, poller, store, cleaner)
        for _ in range(5):
            poller.poll_once()
        assert calls == []

    @pytest.mark.parametrize("obs", [False, True])
    @pytest.mark.parametrize("preset", sorted(CHAOS_PRESETS))
    def test_no_preset_calls_the_per_sample_api(
        self, preset, obs, monkeypatch
    ):
        """Resets, freezes, held and duplicated samples, quarantines
        entered and left, links flapping: arrays end to end, recorder on
        or off."""
        twins = Twins(preset, seed=3, traffic=True, obs=obs)
        poller, store, cleaner, recorder = twins.sides[0]
        calls = spy_per_sample_api(monkeypatch, poller, store, cleaner)
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
            if obs:
                assert any(e["name"] == "quarantine" for e in recorder.events)


# ---------------------------------------------------------------------- #
# Fault state in columns
# ---------------------------------------------------------------------- #

#: Every stateful fault fires often, so rebased, frozen and held rows
#: are all present after a few ticks.
BUSY = TelemetryFaultConfig(
    seed=4, missed_poll_rate=0.2, wrap_32bit=True, reset_rate=0.2,
    freeze_rate=0.2, freeze_duration_polls=4, duplicate_rate=0.3,
    delay_rate=0.3,
)


def stateful_rows(transport):
    """How many directions are rebased, frozen, holding a sample."""
    return (
        int(np.count_nonzero(transport._rebase.known)),
        int(np.count_nonzero(transport._left > 0)),
        int(np.count_nonzero(transport._held.known)),
    )


def as_lists(first, missed, later_entry, later):
    """What ``deliver_rows`` returned, as one list per row."""
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
        """Row by row the same snapshots in the same arrival order as the
        reference chain, over ticks that poll a changing subset of the
        directions."""
        rng = random.Random(seed)
        dids = [("tor%d" % i, "agg") for i in range(12)]
        topo = toy_topology(*dids)
        array = FaultyTransport(topo, config)
        scalar = ReferenceTransport(config)
        counters = np.zeros((3, len(dids)), dtype=np.int64)
        for tick in range(1, 13):
            polled = sorted(rng.sample(range(len(dids)), rng.randint(1, 12)))
            counters[0, polled] += rng.choice([10**6, 3 * 10**9])
            counters[1:, polled] += rng.randrange(50)
            ids = [dids[i] for i in polled]
            rows = np.array([topo.direction_row(did) for did in ids])
            total, errors, drops = counters[:, polled]
            want = [
                scalar.deliver(did, CounterSnapshot(900.0 * tick, *row))
                for did, row in zip(ids, counters[:, polled].T.tolist())
            ]
            got = as_lists(
                *array.deliver_rows(rows, 900.0 * tick, total, errors, drops)
            )
            assert got == want
            assert array.rng_state() == scalar._rng.getstate()
            assert (array.polls_delivered, array.polls_missed) == (
                scalar.polls_delivered, scalar.polls_missed
            )

    def test_pickle_round_trip_mid_run(self):
        """The whole poller through pickle mid-run, with its topology,
        transport, sanitizer and store: the restored stages go on at the
        same rows, in step with the reference."""
        twins = Twins(BUSY, traffic=True)
        for _ in range(6):
            twins.tick()
        poller, _store, _cleaner, recorder = twins.sides[0]
        before = stateful_rows(poller.transport)
        assert all(before)
        twins.topos[0], poller = pickle.loads(
            pickle.dumps((twins.topos[0], poller))
        )
        twins.sides[0] = (poller, poller._store, poller.sanitizer, recorder)
        assert stateful_rows(poller.transport) == before
        twins.check()
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
        column = (
            transport._left > 0 if state == "frozen"
            else transport._held.known
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
TOY = toy_topology(DID)
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


def baseline(cleaner, did):
    """The sanitizer's diff baseline of a direction, or ``None``."""
    row = cleaner._topo.direction_row(did)
    if not cleaner._prev.known[row]:
        return None
    return CounterSnapshot(*(c.item(0) for c in cleaner._prev.take([row])))


@pytest.mark.parametrize("arrivals", sorted(ARRIVALS))
@pytest.mark.parametrize("baseline_s", [None, 900.0, 1800.0, 2700.0])
def test_rows_with_their_own_times_match_the_per_sample_api(
    arrivals, baseline_s
):
    """``ingest_rows`` / ``append_rows`` one delivery at a time against
    the reference's ``ingest`` / ``append_rates``, over baselines older
    than, equal to and newer than the samples."""
    sides = []
    for cleaner, store in (
        (TelemetrySanitizer(TOY), TelemetryStore(TOY, WINDOW)),
        (ReferenceSanitizer(), ReferenceStore()),
    ):
        if baseline_s is not None:
            for time_s in (baseline_s - 900.0, baseline_s):
                sample = cleaner.ingest(
                    DID, CounterSnapshot(time_s, int(time_s * 1000), 0, 0),
                    capacity_pkts_per_s=CAPACITY,
                )
                if sample is not None:
                    store.append_rates(DID, sample.time_s, 0.0, 0.0, 0.0)
        for snap in ARRIVALS[arrivals]:
            if isinstance(cleaner, ReferenceSanitizer):
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
            rows = np.array([TOY.direction_row(DID)])
            done = cleaner.ingest_rows(
                rows,
                np.array([snap.time_s]),
                np.array([snap.total]),
                np.array([snap.errors]),
                np.array([snap.drops]),
                np.array([CAPACITY]),
                np.zeros(1, dtype=bool),
            )
            keep = done.rated
            store.append_rows(
                rows[keep],
                np.array([snap.time_s])[keep],
                done.corruption[keep],
                done.congestion[keep],
                done.utilization[keep],
                done.quality[keep],
            )
        sides.append((cleaner, store))
    (cleaner, store), (ref_cleaner, ref_store) = sides
    assert vars(cleaner.stats) == vars(ref_cleaner.stats)
    assert recent_quality(cleaner, DID) == ref_cleaner.recent_quality(DID)
    assert baseline(cleaner, DID) == ref_cleaner.prev.get(DID)
    assert store.dropped_samples == ref_store.dropped_samples
    assert stored(store, DID) == ref_store.samples(DID)[-WINDOW:]


def test_append_rows_drops_by_each_rows_own_time():
    topo = toy_topology(("a", "b"), ("a", "c"))
    store = TelemetryStore(topo, WINDOW)
    rows = np.arange(4)  # a->b, b->a, a->c, c->a
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
            topo, TelemetryStore(topo, WINDOW),
            traffic_fn=ConstantTraffic(2**52),
            sanitizer=TelemetrySanitizer(topo),
        )
        poller.poll_once()
        with pytest.raises(OverflowError):
            poller.poll_once()

    def test_rate_checks_match_record_interval(self):
        topo = build_clos(1, 1, 1, 1)
        for fns, message in (
            ((lambda d, t: -1,), "packet count"),
            ((constant_packets, lambda d, t: 1.5), "congestion rate 1.5"),
            ((constant_packets, lambda d, t: math.nan), "congestion rate nan"),
        ):
            poller = SnmpPoller(
                topo, TelemetryStore(topo, WINDOW),
                traffic_fn=PerDirectionTraffic(topo, *fns),
                sanitizer=TelemetrySanitizer(topo),
            )
            with pytest.raises(ValueError, match=message):
                poller.poll_once()
