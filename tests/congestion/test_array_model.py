"""Differential tests: the array-form co-model against its per-call form.

``CongestionModel.traffic`` answers a whole poll tick from the model's
columns; ``utilization`` + ``loss_rate`` are the per-call form of the same
process and the reference here.  Twin models over twin topologies are
driven with identical ticks — one through the array call, one direction at
a time — and must agree bit for bit after every tick: packets, losses,
noise state, draw counts, and the generator state of every stream (so not
one draw was taken out of order or from the wrong stream).
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congestion import (
    CONGESTION_PRESETS,
    DEEP_BUFFER_K,
    SHALLOW_BUFFER_K,
    TrafficProfile,
    congestion_loss_rate,
    congestion_model,
)
from repro.congestion.queueing import congestion_loss_rows
from repro.topology import Direction, build_clos

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


def state(model, dids):
    """Everything a direction's future draws depend on."""
    out = {}
    for did in dids:
        if did in model._row_of:
            profile = model.profile(did)
            values = vars(profile).copy()
            out[did] = (values, values.pop("_rng").getstate())
    return out


def assert_same_state(array, reference, dids):
    got, want = state(array, dids), state(reference, dids)
    assert list(got) == list(want)  # rows were created in the same order
    for did in got:
        assert got[did] == want[did], did
    assert array._rng.getstate() == reference._rng.getstate()


TICKS = st.lists(
    # (seed of the tick's polled subset, share of directions polled)
    st.tuples(st.integers(0, 2**16), st.sampled_from([1.0, 1.0, 0.7, 0.1])),
    min_size=1,
    max_size=12,
)


class TestDifferential:
    @SETTINGS
    @given(
        preset=st.sampled_from(PRESETS),
        seed=st.integers(0, 5),
        ticks=TICKS,
        pickle_at=st.integers(0, 12),
    )
    def test_array_tick_equals_per_call_loop(
        self, preset, seed, ticks, pickle_at
    ):
        topo_a, array = build(preset, seed)
        topo_r, reference = build(preset, seed)
        dids = direction_ids(topo_a)
        now = 0.0
        for index, (subset_seed, share) in enumerate(ticks):
            now += INTERVAL_S
            rng = random.Random(subset_seed)
            polled = [did for did in dids if rng.random() < share]
            packets, losses = array.traffic(polled, now, INTERVAL_S)
            want_packets, want_losses = reference_tick(
                topo_r, reference, polled, now
            )
            assert packets.dtype == np.int64
            assert packets.tolist() == want_packets
            assert losses.tolist() == want_losses
            assert_same_state(array, reference, dids)
            if index == pickle_at:
                # A checkpoint boundary, odd Gaussian phase or even.
                array = pickle.loads(pickle.dumps(array, protocol=4))

    def test_both_forms_share_one_state(self):
        """A direction can be stepped through either form, in any mix."""
        topo_a, mixed = build("incast", 2)
        topo_r, reference = build("incast", 2)
        dids = direction_ids(topo_a)
        for tick in range(1, 9):
            now = tick * INTERVAL_S
            if tick % 3:
                got = mixed.traffic(dids, now, INTERVAL_S)[0].tolist()
            else:
                got = reference_tick(topo_a, mixed, dids, now)[0]
            assert got == reference_tick(topo_r, reference, dids, now)[0]
        assert_same_state(mixed, reference, dids)

    def test_unpolled_directions_do_not_advance(self):
        topo, model = build("hotspots", 0)
        dids = direction_ids(topo)
        model.traffic(dids, 900.0, INTERVAL_S)
        before = state(model, dids)
        model.traffic(dids[:6], 1800.0, INTERVAL_S)
        after = state(model, dids)
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


class TestLossRows:
    @SETTINGS
    @given(
        utilization=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                # Around rho = 1, where the closed form changes branch.
                st.floats(0.92 - 1e-9, 0.92 + 1e-9),
                st.sampled_from([0.0, 0.92, 1.0, 0.92 * (1 + 1e-13)]),
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
        assert state(restored, dids) == state(model, dids)
        assert self.drive(restored, dids, 5, start=ticks) == self.drive(
            model, dids, 5, start=ticks
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
        assert "_profiles" not in saved
        streams = [
            value for value in saved.values()
            if isinstance(value, random.Random)
        ]
        assert streams == [model._rng]  # the model's own, one per model


class TestTrafficProfilePickle:
    @pytest.mark.parametrize("draws", [0, 1, 2, 5, 400])
    def test_resumes_exactly_at_any_phase(self, draws):
        profile = TrafficProfile(mean=0.5, burst_probability=0.3, seed=9)
        for i in range(draws):
            profile.utilization(i * 900.0)
        blob = pickle.dumps(profile, protocol=4)
        assert len(blob) < 400
        restored = pickle.loads(blob)
        assert restored == profile
        assert restored._rng.getstate() == profile._rng.getstate()
        assert (restored._rng.gauss_next is not None) == bool(draws % 2)
        assert [restored.utilization(t) for t in (1e3, 2e3, 3e3)] == [
            profile.utilization(t) for t in (1e3, 2e3, 3e3)
        ]

    def test_inconsistent_position_is_refused(self):
        profile = TrafficProfile(seed=1)
        profile.utilization(0.0)
        saved = profile.__getstate__()
        assert saved["gauss_next"] is not None
        saved["_samples"] = 2  # an even count cannot hold a cached Gaussian
        with pytest.raises(ValueError, match="cached Gaussian"):
            TrafficProfile.__new__(TrafficProfile).__setstate__(saved)
