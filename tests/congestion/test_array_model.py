"""Differential tests: the array-form co-model against its per-call form.

``CongestionModel.traffic`` answers a whole poll tick from the model's
columns, reading each direction's stream a block of ticks ahead;
``utilization`` + ``loss_rate`` are the per-call form of the same process
and the reference here.  Twin models over twin topologies are driven with
identical ticks — one through the array call, one direction at a time —
and must agree bit for bit after every tick: packets, losses, the
checkpoint payload (noise state, logical draw counts, logical cached
Gaussians), and every live stream, which must stand exactly the unconsumed
part of its block ahead of the reference's (so not one draw was taken out
of order or from the wrong stream).
"""

import math
import pickle
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congestion import (
    CONGESTION_PRESETS,
    DEEP_BUFFER_K,
    SHALLOW_BUFFER_K,
    congestion_loss_rate,
    congestion_model,
    mm1k_loss,
)
from repro.congestion.losses import BLOCK_TICKS
from repro.congestion.queueing import congestion_loss_rows, one_power_cutoff
from repro.congestion.traffic import gauss_pairs
from repro.streams import random_doubles
from repro.telemetry import SnmpPoller, TelemetrySanitizer, TelemetryStore
from repro.topology import Direction, build_clos
from tests.telemetry.stored import WINDOW

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PRESETS = sorted(name for name, kw in CONGESTION_PRESETS.items() if kw)
INTERVAL_S = 900.0
#: Bound on what one direction adds to a pickled model: 9 float64 and 3
#: int64 columns (96 bytes), the cached Gaussian (at most 9), and the
#: direction's entry in the row index (two memoised strings, a tuple and a
#: small int: under 20).
BYTES_PER_DIRECTION = 128


def build(preset, seed):
    topo = build_clos(3, 2, 2, 4)
    # A deep-buffer stage, so both queue depths are in play.
    for spine in topo.spines()[:2]:
        topo.switch(spine).deep_buffer = True
    return topo, congestion_model(preset, topo, seed=seed)


def direction_ids(topo):
    """Every direction, in topology direction-row order."""
    return [
        link.direction_id(direction)
        for link in topo.links()
        for direction in (Direction.UP, Direction.DOWN)
    ]


def reference_tick(topo, model, polled, now):
    """The per-direction loop the poller used to run."""
    packets, losses = [], []
    for did in polled:
        util = model.utilization(did, now)
        line_pkts = (
            topo.find_link(*did).capacity_gbps * 1e9 / 8.0 / 1000.0 * INTERVAL_S
        )
        packets.append(int(line_pkts * util))
        losses.append(model.loss_rate(did, util))
    return packets, losses


def words(samples):
    """Mersenne Twister outputs ``samples`` utilization draws consume."""
    return 4 * ((samples + 1) // 2) + 2 * samples


def payload(model):
    """The checkpoint payload, comparable across twin topologies."""
    state = model.__getstate__()
    del state["_topo"]
    state["_rng"] = state["_rng"].getstate()
    state["_columns"] = {
        name: column.tolist() for name, column in state["_columns"].items()
    }
    state["gauss_next"] = [
        None if value is None else value.hex() for value in state["gauss_next"]
    ]
    return state


def assert_same_state(array, reference):
    """Logical positions equal, blocks left as they are: the payloads match,
    and each live stream of ``array`` stands where the reference's would
    after the ticks its block still holds."""
    assert payload(array) == payload(reference)
    samples = reference._columns["_samples"].tolist()
    assert len(array._streams) == len(samples)
    for row, stream in enumerate(array._streams):
        ahead = random.Random()
        ahead.setstate(reference._detach(row).getstate())
        left = BLOCK_TICKS - int(array._cursor[row])
        if left:
            ahead.getrandbits(
                32 * (words(samples[row] + left) - words(samples[row]))
            )
            ahead.gauss_next = None
        assert stream.getstate() == ahead.getstate(), row


def logical(model, dids):
    """Each direction's columns and logical cached Gaussian."""
    saved = model.__getstate__()
    return {
        did: (
            [column[row].item() for column in saved["_columns"].values()],
            saved["gauss_next"][row],
        )
        for did, row in saved["_row_of"].items()
        if did in dids
    }


# ---------------------------------------------------------------------- #
# The block primitives
# ---------------------------------------------------------------------- #


class Scripted(random.Random):
    """A stream whose ``random()`` returns the given uniforms in turn, so
    ``gauss`` can be fed values a real stream almost never yields."""

    def __init__(self, uniforms):
        super().__init__(0)
        self.uniforms = list(uniforms)

    def random(self):
        return self.uniforms.pop(0)


UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]),
)


class TestBlockPrimitives:
    @SETTINGS
    @given(
        seeds=st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
        offset=st.integers(0, 9),
        count=st.integers(0, 40),
    )
    def test_doubles_equal_successive_random_calls(self, seeds, offset, count):
        streams = [random.Random(seed) for seed in seeds]
        reference = [random.Random(seed) for seed in seeds]
        for stream, twin in zip(streams, reference):
            for _ in range(offset):
                stream.random()
                twin.random()
        got = random_doubles(streams, count)
        assert got.shape == (len(seeds), count)
        assert got.tolist() == [
            [twin.random() for _ in range(count)] for twin in reference
        ]
        assert [s.getstate() for s in streams] == [
            t.getstate() for t in reference
        ]

    @SETTINGS
    @given(
        pairs=st.lists(st.tuples(UNIFORMS, UNIFORMS), min_size=1, max_size=8),
        sigma=st.sampled_from([0.04, 1.0, 3.5]),
    )
    def test_pairs_equal_gauss_calls_to_the_bit(self, pairs, sigma):
        u1, u2 = (np.array(column) for column in zip(*pairs))
        first, second, cached = gauss_pairs(u1, u2, np.full(len(u1), sigma))
        want = []
        for a, b in pairs:
            stream = Scripted([a, b])
            returned = stream.gauss(0.0, sigma)
            between = stream.gauss_next
            want.append((returned, stream.gauss(0.0, sigma), between))
        got = zip(first.tolist(), second.tolist(), cached.tolist())
        # float.hex: bit for bit, the sign of zero included.
        assert [tuple(map(float.hex, row)) for row in got] == [
            tuple(map(float.hex, row)) for row in want
        ]

    def test_a_zero_variate_returns_positive_zero(self):
        """u2 = 0 makes both variates of the pair a signed zero; ``gauss``
        returns ``0.0 + z * sigma``, which is +0.0 either way."""
        first, second, cached = gauss_pairs(
            np.array([0.1]), np.array([0.0]), np.array([0.04])
        )
        assert cached.tolist()[0].hex() == "-0x0.0p+0"
        assert [first.tolist()[0].hex(), second.tolist()[0].hex()] == [
            "0x0.0p+0", "0x0.0p+0"
        ]


# ---------------------------------------------------------------------- #
# The tick against the per-call loop
# ---------------------------------------------------------------------- #


TICKS = st.lists(
    # (seed of the tick's polled subset, share of directions polled, a
    # per-call draw between ticks, the poller's direction rows given)
    st.tuples(
        st.integers(0, 2**16),
        st.sampled_from([1.0, 1.0, 1.0, 0.7, 0.1]),
        st.booleans(),
        st.booleans(),
    ),
    min_size=3 * BLOCK_TICKS,
    max_size=3 * BLOCK_TICKS + 9,
)


class TestDifferential:
    @settings(SETTINGS, max_examples=15)
    @given(
        preset=st.sampled_from(PRESETS),
        seed=st.integers(0, 5),
        ticks=TICKS,
        resume_at=st.sets(st.integers(0, 3 * BLOCK_TICKS + 8), max_size=3),
    )
    def test_array_tick_equals_per_call_loop(
        self, preset, seed, ticks, resume_at
    ):
        topo_a, array = build(preset, seed)
        topo_r, reference = build(preset, seed)
        dids = direction_ids(topo_a)
        leaver = dids[len(dids) // 2]
        now = 0.0
        for index, (subset_seed, share, per_call, by_row) in enumerate(ticks):
            now += INTERVAL_S
            rng = random.Random(subset_seed)
            # One direction leaves mid-block for three ticks and comes back.
            polled = [
                did for did in dids
                if rng.random() < share
                and not (did == leaver and 5 <= index % 23 < 8)
            ]
            rows = np.array([dids.index(did) for did in polled], dtype=np.int64)
            packets, losses = array.traffic(
                polled, now, INTERVAL_S, rows=rows if by_row else None
            )
            want_packets, want_losses = reference_tick(
                topo_r, reference, polled, now
            )
            assert packets.dtype == np.int64
            assert packets.tolist() == want_packets
            assert losses.tolist() == want_losses
            if per_call and polled:
                did = polled[subset_seed % len(polled)]
                assert array.utilization(did, now + 1.0) == (
                    reference.utilization(did, now + 1.0)
                )
            assert_same_state(array, reference)
            # A checkpoint at this phase of every block, odd or even.
            restored = pickle.loads(pickle.dumps(array, protocol=4))
            assert payload(restored) == payload(array)
            if index in resume_at:
                array = restored

    def test_both_forms_share_one_state(self):
        """A direction can be stepped through either form, in any mix."""
        topo_a, mixed = build("incast", 2)
        topo_r, reference = build("incast", 2)
        dids = direction_ids(topo_a)
        for tick in range(1, 3 * BLOCK_TICKS):
            now = tick * INTERVAL_S
            if tick % 7:
                got = mixed.traffic(dids, now, INTERVAL_S)[0].tolist()
            else:
                got = reference_tick(topo_a, mixed, dids, now)[0]
            assert got == reference_tick(topo_r, reference, dids, now)[0]
            assert_same_state(mixed, reference)

    def test_unpolled_directions_do_not_advance(self):
        topo, model = build("hotspots", 0)
        dids = direction_ids(topo)
        model.traffic(dids, 900.0, INTERVAL_S)
        before = logical(model, dids)
        model.traffic(dids[:6], 1800.0, INTERVAL_S)
        after = logical(model, dids)
        for did in dids[:6]:
            assert after[did] != before[did]
        for did in dids[6:]:
            assert after[did] == before[did]

    def test_line_rate_and_queue_depth_columns(self):
        topo, model = build("hotspots", 0)
        dids = direction_ids(topo)
        model.traffic(dids, 900.0, INTERVAL_S)
        deep = {
            did for did in dids if topo.switch(did[0]).deep_buffer
        }
        assert deep and len(deep) < len(dids)
        rows = [model._row_of[did] for did in dids]
        assert model._columns["buffer_k"][rows].tolist() == [
            DEEP_BUFFER_K if did in deep else SHALLOW_BUFFER_K for did in dids
        ]
        assert model._columns["line_pps"][rows].tolist() == [
            topo.find_link(*did).capacity_gbps * 1e9 / 8.0 / 1000.0
            for did in dids
        ]


class Counting(random.Random):
    """A stream that counts its per-call draws."""

    calls = 0

    def random(self):
        Counting.calls += 1
        return super().random()

    def gauss(self, *args):
        Counting.calls += 1
        return super().gauss(*args)


class CountingDict(dict):
    """A row index that counts its lookups."""

    lookups = 0

    def get(self, *args):
        CountingDict.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        CountingDict.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        CountingDict.lookups += 1
        return super().__contains__(key)


class TestNoPerDirectionCalls:
    def count(self, model):
        """Swap in counting streams and row index; zero the counters."""
        for row, stream in enumerate(model._streams):
            counting = Counting()
            counting.setstate(stream.getstate())
            model._streams[row] = counting
        model._row_of = CountingDict(model._row_of)
        Counting.calls = CountingDict.lookups = 0

    def test_a_tick_gathers_its_rows_and_reads_its_blocks(self, monkeypatch):
        topo, model = build("hotspots", 1)
        poller = SnmpPoller(
            topo,
            TelemetryStore(WINDOW),
            traffic_fn=partial(model.traffic, interval_s=INTERVAL_S),
            sanitizer=TelemetrySanitizer(),
        )
        poller.poll_once()  # every direction's first appearance
        directions = len(model._row_of)
        self.count(model)
        # No numpy transcendental or power on the value path: libm's only.
        for name in ("log", "sin", "cos", "exp", "power", "float_power"):
            monkeypatch.setattr(np, name, None)
        link = next(iter(topo.links())).link_id
        for tick in range(2, 3 * BLOCK_TICKS):
            if tick == 5:
                topo.disable_link(link)
            if tick == 9:
                topo.enable_link(link)  # seen before: no lookup
            poller.poll_once()
        assert (Counting.calls, CountingDict.lookups) == (0, 0)
        # A restored odd-phase model: one per-call tick per direction
        # (gauss returns the pair's cached second), then blocks again, and
        # the row index rebuilt once by name.
        assert int(model._columns["_samples"][0]) % 2
        poller = pickle.loads(pickle.dumps(poller, protocol=4))
        model = poller._traffic_fn.func.__self__
        self.count(model)
        poller.poll_once()
        assert Counting.calls == 2 * directions
        assert CountingDict.lookups == directions
        self.count(model)
        for _ in range(BLOCK_TICKS + 2):
            poller.poll_once()
        assert (Counting.calls, CountingDict.lookups) == (0, 0)


# ---------------------------------------------------------------------- #
# The loss rows
# ---------------------------------------------------------------------- #


class TestLossRows:
    @SETTINGS
    @given(
        utilization=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                # Around rho = 1, where the closed form changes branch.
                st.floats(0.92 - 1e-9, 0.92 + 1e-9),
                st.sampled_from([0.0, 0.92, 1.0, 0.92 * (1 + 1e-13)]),
                # Around the one-power cutoffs.
                st.sampled_from([SHALLOW_BUFFER_K, DEEP_BUFFER_K]).flatmap(
                    lambda k: st.floats(
                        0.92 * one_power_cutoff(k) * (1 - 1e-12),
                        0.92 * one_power_cutoff(k) * (1 + 1e-12),
                    )
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        deep=st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_equals_scalar_closed_form(self, utilization, deep):
        deep = deep[: len(utilization)]
        got = congestion_loss_rows(
            np.array(utilization),
            np.where(deep, DEEP_BUFFER_K, SHALLOW_BUFFER_K),
        )
        assert got.tolist() == [
            congestion_loss_rate(u, deep_buffer=d)
            for u, d in zip(utilization, deep)
        ]

    @pytest.mark.parametrize("buffer_k", [1, 7, SHALLOW_BUFFER_K, DEEP_BUFFER_K])
    def test_cutoff_is_the_last_load_the_second_power_cannot_move(
        self, buffer_k
    ):
        cutoff = one_power_cutoff(buffer_k)
        above = math.nextafter(cutoff, 1.0)
        assert 1.0 - math.pow(cutoff, buffer_k + 1) == 1.0
        assert 1.0 - math.pow(above, buffer_k + 1) < 1.0
        # Loads on both sides of the cutoff, as rows (headroom 1: the
        # load is the utilization) against the scalar form.
        loads = [math.nextafter(cutoff, 0.0), cutoff, above,
                 math.nextafter(above, 1.0)]
        got = congestion_loss_rows(
            np.array(loads), np.full(len(loads), buffer_k), headroom=1.0
        )
        assert got.tolist() == [mm1k_loss(rho, buffer_k) for rho in loads]
        # Just above the cutoff the second power does move the result.
        assert mm1k_loss(above, buffer_k) != (1.0 - above) * above**buffer_k


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #


class TestCheckpointState:
    def drive(self, model, dids, ticks, start=0):
        out = []
        for tick in range(start + 1, start + ticks + 1):
            packets, losses = model.traffic(dids, tick * INTERVAL_S, INTERVAL_S)
            out.append((packets.tolist(), losses.tolist()))
        return out

    @pytest.mark.parametrize("ticks", [0, 1, 2, 7])
    def test_round_trip_resumes_the_identical_sequence(self, ticks):
        topo, model = build("hotspots", 3)
        dids = direction_ids(topo)
        self.drive(model, dids, ticks)
        restored = pickle.loads(pickle.dumps(model, protocol=4))
        assert payload(restored) == payload(model)
        assert self.drive(restored, dids, 2 * BLOCK_TICKS, start=ticks) == (
            self.drive(model, dids, 2 * BLOCK_TICKS, start=ticks)
        )

    def test_payload_per_direction_is_bounded(self):
        topo, model = build("hotspots", 3)
        dids = direction_ids(topo)
        empty = len(pickle.dumps(model, protocol=4))
        self.drive(model, dids, 3)  # odd: every stream caches a Gaussian
        grown = len(pickle.dumps(model, protocol=4))
        per_direction = (grown - empty) / len(dids)
        assert 0 < per_direction <= BYTES_PER_DIRECTION
        # The generator state this replaces: 625 ints per stream.
        one_stream = len(pickle.dumps(random.Random(1), protocol=4))
        assert one_stream > 10 * BYTES_PER_DIRECTION

    def test_no_generator_state_in_the_payload(self):
        topo, model = build("hotspots", 3)
        self.drive(model, direction_ids(topo), 2)
        saved = model.__getstate__()
        assert not {"_streams", "_gauss", "_cursor"} & set(saved)
        streams = [
            value for value in saved.values()
            if isinstance(value, random.Random)
        ]
        assert streams == [model._rng]  # the model's own, one per model
