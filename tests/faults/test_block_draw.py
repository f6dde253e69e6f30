"""The block draw pass against the per-row loop it replaces.

``FaultyTransport._draw`` reads its draws ahead from numpy's MT19937 and
runs Python only where a fault fires and on frozen and held rows.  The
reference here is the loop it replaced: every row, every drawing fault in
order, one ``random.Random.random()`` call each until one fires.  Both are
given the same rows, frozen and held masks and rates, tick after tick, and
must name the same rows for every outcome and leave the stream at the same
place (:meth:`FaultyTransport.rng_state`, read without disturbing the
read-ahead).
"""

import itertools
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultyTransport, TelemetryFaultConfig
from repro.simulation.chaos import chaos_preset
from repro.streams import ReadAhead
from repro.telemetry import CounterSnapshot, OpticalReading
from tests.telemetry.reference import ReferenceTransport
from tests.telemetry.toy import toy_topology

STAGES = (
    "reset_rate",
    "freeze_rate",
    "missed_poll_rate",
    "delay_rate",
    "duplicate_rate",
)


def reference_draw(rng, config, frozen, held):
    """The per-row loop: one ``rng.random()`` per drawing fault, in chain
    order, until one fires; then the rest of the row's draws."""
    reset, freeze, miss, delay, duplicate = rates = [
        getattr(config, name) for name in STAGES
    ]
    fired = [], [], [], [], [], []
    reset_at, freeze_at, miss_at, stash_at, again_at, held_again_at = fired
    rand = rng.random
    for row in range(len(frozen)):
        quiet = not (frozen[row] or held[row])
        at = -1
        if quiet:
            for stage, rate in enumerate(rates):
                if rate > 0 and rand() < rate:
                    at = stage
                    break
            if at < 0:
                continue
        if at == 0 or (at < 0 and reset > 0 and rand() < reset):
            reset_at.append(row)
        if at == 1 or (
            at < 1 and freeze > 0 and not frozen[row] and rand() < freeze
        ):
            freeze_at.append(row)
        fresh = True
        if at == 2 or (at < 2 and miss > 0 and rand() < miss):
            miss_at.append(row)
            fresh = False
        if at == 3 or (
            at < 3 and delay > 0 and fresh and not held[row]
            and rand() < delay
        ):
            stash_at.append(row)
            fresh = False
        if duplicate > 0:
            if fresh and (at == 4 or rand() < duplicate):
                again_at.append(row)
            if held[row] and rand() < duplicate:
                held_again_at.append(row)
    return fired


class Pair:
    """A transport and the reference loop's stream, drawn tick by tick."""

    def __init__(self, config):
        self.transport = FaultyTransport(TOPO, config)
        self.rng = random.Random(config.seed)

    def draw(self, frozen, held, config=None, look=True):
        if config is not None:
            self.transport.config = config
        frozen = np.asarray(frozen, dtype=bool)
        held = np.asarray(held, dtype=bool)
        got = self.transport._draw(len(frozen), frozen, held)
        want = reference_draw(self.rng, self.transport.config, frozen, held)
        assert got == want
        if look:
            assert self.transport.rng_state() == self.rng.getstate()
        return got


def unread(ahead):
    """Doubles of a read-ahead's block not consumed yet."""
    return ahead._first + len(ahead._doubles) - ahead._used


def config_of(stages, rate, seed=0):
    return TelemetryFaultConfig(
        seed=seed, **{name: rate for name in stages}
    )


def masks(rng, rows, p_frozen, p_held):
    return (
        [rng.random() < p_frozen for _ in range(rows)],
        [rng.random() < p_held for _ in range(rows)],
    )


SUBSETS = [
    subset
    for size in range(1, len(STAGES) + 1)
    for subset in itertools.combinations(STAGES, size)
]


class TestEveryStageSubset:
    @pytest.mark.parametrize("rate", [0.0, 1e-9, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize(
        "stages", SUBSETS, ids=["+".join(s) for s in SUBSETS]
    )
    def test_subset_at_rate(self, stages, rate):
        pair = Pair(config_of(stages, rate, seed=len(stages)))
        rng = random.Random("+".join(stages))
        for rows in (40, 0, 1, 40, 17):
            pair.draw(*masks(rng, rows, 0.15, 0.15))
        if rate == 0.0:
            assert pair.transport._ahead is None

    @pytest.mark.parametrize(
        "stages", SUBSETS, ids=["+".join(s) for s in SUBSETS]
    )
    def test_subset_at_mixed_rates(self, stages):
        rates = (1e-9, 0.5, 0.999, 1.0, 0.05)
        config = TelemetryFaultConfig(
            seed=7, **{name: rates[i] for i, name in enumerate(stages)}
        )
        pair = Pair(config)
        rng = random.Random("mixed " + "+".join(stages))
        for rows in (30, 30, 5, 30):
            pair.draw(*masks(rng, rows, 0.2, 0.2))


class TestRows:
    @pytest.mark.parametrize("preset", ["mild", "harsh"])
    def test_rows_0_1_and_2016_and_changing(self, preset):
        pair = Pair(chaos_preset(preset, seed=3))
        rng = random.Random(3)
        for rows in (0, 1, 2016, 2016, 5, 0, 2016, 1, 1, 1500, 2016):
            pair.draw(*masks(rng, rows, 0.03, 0.02))

    @pytest.mark.parametrize("rate", [1e-9, 0.02])
    def test_quiet_runs_cross_refills(self, rate, monkeypatch):
        """Rows that change every tick leave part of the block unread at
        each refill, so the first run of the next tick starts in the old
        doubles and ends in the new ones."""
        crossed = []
        take = ReadAhead.take

        def spy(self, count):
            crossed.append(0 < unread(self) < count)
            return take(self, count)

        monkeypatch.setattr(ReadAhead, "take", spy)
        pair = Pair(config_of(STAGES[2:], rate, seed=11))
        rng = random.Random(4)
        for _ in range(40):
            pair.draw(*masks(rng, rng.randrange(1, 60), 0.0, 0.0))
        assert sum(crossed) >= 5

    def test_a_row_fires_on_the_last_double_of_the_block(self):
        """Duplicate alone: every row takes exactly one draw, so two
        ticks of n rows read the whole 2n-double block and the last row
        of the second draws its last double.  The seed is picked so that
        draw fires."""
        rows = 10
        seed = next(
            s for s in range(100)
            if [random.Random(s).random() for _ in range(2 * rows)][-1] < 0.5
        )
        pair = Pair(TelemetryFaultConfig(seed=seed, duplicate_rate=0.5))
        quiet = [False] * rows
        pair.draw(quiet, quiet, look=False)
        again_at = pair.draw(quiet, quiet, look=False)[4]
        ahead = pair.transport._ahead
        assert rows - 1 in again_at
        assert (unread(ahead), len(ahead._doubles)) == (0, 2 * rows)
        pair.draw(quiet, quiet, look=False)  # a refill, nothing carried
        assert (unread(ahead), len(ahead._doubles)) == (rows, 2 * rows)
        assert pair.transport.rng_state() == pair.rng.getstate()


class TestFrozenAndHeldRows:
    @pytest.mark.parametrize("rate", [1e-9, 0.3, 1.0])
    def test_at_both_ends_of_runs_and_next_to_each_other(self, rate):
        rows = 12
        frozen = [False] * rows
        held = [False] * rows
        for row in (0, 6, 7, 11):
            frozen[row] = True
        for row in (5, 7, 8, 11):
            held[row] = True
        pair = Pair(config_of(STAGES, rate, seed=2))
        for _ in range(6):
            pair.draw(frozen, held)
        everything = [True] * rows
        pair.draw(everything, everything)
        pair.draw(everything, [False] * rows)
        pair.draw([False] * rows, everything)

    def test_held_rows_without_a_delay_rate_take_one_more_draw(self):
        """A sample held from when delays were on: with the delay rate
        now zero the row still takes a draw for each duplicate, one more
        than the stages it draws for."""
        pair = Pair(TelemetryFaultConfig(
            seed=5, missed_poll_rate=1e-9, duplicate_rate=0.999
        ))
        for _ in range(3):
            pair.draw([False] * 20, [True] * 20)


# ---------------------------------------------------------------------- #
# Whole transport: optical reads, pickles, the zero config
# ---------------------------------------------------------------------- #

HARSH_ISH = TelemetryFaultConfig(
    seed=9, missed_poll_rate=0.1, reset_rate=0.02, freeze_rate=0.05,
    freeze_duration_polls=3, duplicate_rate=0.1, delay_rate=0.1,
    optical_garbage_rate=0.5,
)
DIDS = [("tor%d" % i, "agg%d" % (i % 3)) for i in range(40)]
TOPO = toy_topology(*DIDS)
ROWS = np.array([TOPO.direction_row(did) for did in DIDS])
READING = OpticalReading(0.0, -2.0, -3.0, -2.0, -3.0)


def tick(transport, number):
    """One ``deliver_rows`` tick of every direction, as what arrives per
    row in arrival order (a missed row's first entry means nothing)."""
    total = np.full(len(DIDS), 1000 * number, dtype=np.int64)
    first, missed, entry, later = transport.deliver_rows(
        ROWS, 900.0 * number, total, total // 100, total // 100
    )
    first, later = ([c.tolist() for c in cols] for cols in (first, later))
    rows = [
        [] if gone else [CounterSnapshot(*(c[i] for c in first))]
        for i, gone in enumerate(missed.tolist())
    ]
    for j, row in enumerate(entry.tolist()):
        rows[row].append(CounterSnapshot(*(c[j] for c in later)))
    return rows


def per_sample_tick(reference, number):
    """The same tick through the reference chain."""
    return [
        reference.deliver(
            did, CounterSnapshot(900.0 * number, 1000 * number,
                                 10 * number, 10 * number)
        )
        for did in DIDS
    ]


class TestTransport:
    def test_optical_reads_between_ticks(self):
        transport, reference = (
            FaultyTransport(TOPO, HARSH_ISH), ReferenceTransport(HARSH_ISH)
        )
        for number in range(1, 13):
            assert tick(transport, number) == per_sample_tick(
                reference, number
            )
            assert transport.rng_state() == reference._rng.getstate()
            for _ in range(number % 3):
                got = transport.deliver_optical(DIDS[0], READING)
                want = reference.deliver_optical(DIDS[0], READING)
                assert repr(got) == repr(want)
                assert transport._ahead is None
            assert transport.rng_state() == reference._rng.getstate()

    @pytest.mark.parametrize("at", [1, 2, 5])
    def test_pickle_mid_read_ahead_continues_identically(self, at):
        transport = FaultyTransport(TOPO, HARSH_ISH)
        for number in range(1, at + 1):
            tick(transport, number)
        ahead = transport._ahead
        assert 0 < unread(ahead) < len(ahead._doubles)
        state = transport.__getstate__()
        assert "_ahead" not in state
        assert state["_rng"].getstate() == transport.rng_state()
        restored = pickle.loads(pickle.dumps(transport))
        assert restored._ahead is None
        for number in range(at + 1, at + 8):
            assert tick(restored, number) == tick(transport, number)
            assert restored.rng_state() == transport.rng_state()

    def test_reading_the_state_changes_no_draw(self):
        looked = FaultyTransport(TOPO, HARSH_ISH)
        untouched = FaultyTransport(TOPO, HARSH_ISH)
        for number in range(1, 15):
            looked.rng_state()
            assert tick(looked, number) == tick(untouched, number)
        assert looked.rng_state() == untouched.rng_state()

    def test_zero_config_never_builds_the_read_ahead(self):
        transport = FaultyTransport(TOPO, TelemetryFaultConfig(seed=3))
        for number in range(1, 4):
            tick(transport, number)
        transport.deliver_optical(DIDS[0], READING)
        assert transport._ahead is None
        assert transport.rng_state() == random.Random(3).getstate()


# ---------------------------------------------------------------------- #
# Fuzz
# ---------------------------------------------------------------------- #

RATES = st.sampled_from([0.0, 0.0, 1e-9, 0.05, 0.5, 0.999, 1.0])


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50),
    ticks=st.lists(
        st.tuples(
            st.lists(RATES, min_size=5, max_size=5),
            st.integers(0, 70),
            st.floats(0.0, 0.5),
            st.floats(0.0, 0.5),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_any_rates_rows_and_masks(seed, ticks):
    """Rates that change between ticks (a row may then hold a sample
    while delays are off, or be frozen while freezes are), rows that
    come and go, and pickle round trips between ticks."""
    pair = Pair(TelemetryFaultConfig(seed=seed))
    rng = random.Random(seed)
    for rates, rows, p_frozen, p_held, round_trip in ticks:
        config = replace(
            pair.transport.config, **dict(zip(STAGES, rates))
        )
        pair.draw(*masks(rng, rows, p_frozen, p_held), config)
        if round_trip:
            pair.transport = pickle.loads(pickle.dumps(pair.transport))
