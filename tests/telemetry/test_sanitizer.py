"""Sanitizer tests: wrap/reset detection, clamping, quality, quarantine."""

import math
import random

import pytest

from repro.telemetry import (
    COUNTER_32BIT_MODULUS,
    CounterSnapshot,
    OpticalReading,
    SampleQuality,
    TelemetrySanitizer,
    optical_reading_plausible,
)
from tests.telemetry.reference import GarbageFault, ReferenceSanitizer
from tests.telemetry.stored import recent_quality
from tests.telemetry.toy import toy_topology
from tests.metrics import value

CAP_PPS = 5_000_000.0  # 40G at 1000B packets

#: The directions the tests name: the links a-b, c-d and x-y.
TOPO = toy_topology(("a", "b"), ("c", "d"), ("x", "y"))


def snap(t, total, errors=0, drops=0):
    return CounterSnapshot(time_s=t, total=total, errors=errors, drops=drops)


class TestWrapReset:
    def test_first_sample_seeds(self):
        s = TelemetrySanitizer(TOPO)
        assert s.ingest(("a", "b"), snap(900, 100)) is None

    def test_clean_diff_is_ok(self):
        s = TelemetrySanitizer(TOPO)
        s.ingest(("a", "b"), snap(900, 1_000_000, 100, 10), CAP_PPS)
        out = s.ingest(("a", "b"), snap(1800, 2_000_000, 300, 30), CAP_PPS)
        assert out.quality is SampleQuality.OK
        assert out.corruption == pytest.approx(200 / 1_000_000)
        assert out.congestion == pytest.approx(20 / 1_000_000)

    def test_32bit_wrap_unwrapped(self):
        s = TelemetrySanitizer(TOPO)
        m = COUNTER_32BIT_MODULUS
        before = m - 500_000
        s.ingest(("a", "b"), snap(900, before, 100), CAP_PPS)
        # True cumulative advanced by 1e6 packets, reported mod 2^32.
        after = (before + 1_000_000) % m
        out = s.ingest(("a", "b"), snap(1800, after, 200), CAP_PPS)
        assert out.quality is SampleQuality.INTERPOLATED
        assert out.corruption == pytest.approx(100 / 1_000_000)
        assert s.stats.wraps_unwrapped == 1

    def test_reset_detected(self):
        s = TelemetrySanitizer(TOPO)
        s.ingest(("a", "b"), snap(900, 5_000_000_000, 1000), CAP_PPS)
        # Reboot: counters restart near zero.  The unwrapped delta would be
        # astronomically larger than the interval's capacity -> reset.
        out = s.ingest(("a", "b"), snap(1800, 1_000_000, 10), CAP_PPS)
        assert out.quality is SampleQuality.SUSPECT
        assert s.stats.resets_detected == 1
        assert 0.0 <= out.corruption <= 1.0

    def test_frozen_counters_suspect(self):
        s = TelemetrySanitizer(TOPO)
        s.ingest(("a", "b"), snap(900, 1_000_000), CAP_PPS)
        out = s.ingest(("a", "b"), snap(1800, 1_000_000), CAP_PPS)
        assert out.quality is SampleQuality.SUSPECT
        assert s.stats.freezes_detected == 1

    def test_gap_bridged_interpolated(self):
        s = TelemetrySanitizer(TOPO, interval_s=900.0)
        s.ingest(("a", "b"), snap(900, 1_000_000, 0), CAP_PPS)
        # Two missed polls: the next diff spans 3 intervals.
        out = s.ingest(("a", "b"), snap(3600, 4_000_000, 30), CAP_PPS)
        assert out.quality is SampleQuality.INTERPOLATED
        assert out.corruption == pytest.approx(1e-5)

    def test_duplicate_and_out_of_order_discarded(self):
        s = TelemetrySanitizer(TOPO)
        s.ingest(("a", "b"), snap(900, 100), CAP_PPS)
        s.ingest(("a", "b"), snap(1800, 200), CAP_PPS)
        assert s.ingest(("a", "b"), snap(1800, 200), CAP_PPS) is None
        assert s.ingest(("a", "b"), snap(900, 100), CAP_PPS) is None
        assert s.stats.duplicates_dropped == 1
        assert s.stats.out_of_order_dropped == 1

    def test_non_finite_snapshot_suspect(self):
        s = TelemetrySanitizer(TOPO)
        out = s.ingest(("a", "b"), snap(900, float("nan")), CAP_PPS)
        assert out.quality is SampleQuality.SUSPECT


    def test_unrepresentable_counter_suspect_not_a_crash(self):
        """Regression: ``float(10**400)`` raised OverflowError out of
        ingest; a malformed push must be rated, never take the pipeline
        down."""
        s = TelemetrySanitizer(TOPO)
        s.ingest(("a", "b"), snap(900, 1_000_000), CAP_PPS)
        for bad in (
            snap(1800.0, 10**400),
            snap(1800.0, 2_000_000, errors=10**400),
            snap(10**400, 2_000_000),
        ):
            out = s.ingest(("a", "b"), bad, CAP_PPS)
            assert out.quality is SampleQuality.SUSPECT
            assert math.isfinite(out.time_s)
        assert s.stats.samples == 3
        # The baseline survived: the next clean sample diffs against it.
        out = s.ingest(("a", "b"), snap(2700, 3_000_000, 20), CAP_PPS)
        assert out.corruption == pytest.approx(1e-5)

    def test_modulus_beyond_the_columns_rejected(self):
        TelemetrySanitizer(TOPO, wrap_modulus=2**53)
        for modulus in (2**64, 2**53 + 1, 0):
            with pytest.raises(ValueError, match="wrap_modulus"):
                TelemetrySanitizer(TOPO, wrap_modulus=modulus)


#: Snapshots no device should send: a NaN counter, one no float can
#: hold, one beyond the int64 columns' exact range, a float counter, a
#: NaN and an unrepresentable time.
GARBAGE = {
    "nan-counter": snap(1800.0, float("nan")),
    "huge-counter": snap(1800.0, 10**400),
    "2**60-counter": snap(1800.0, 2**60),
    "float-counter": snap(1800.0, 2_000_000.0),
    "-2**53-counter": snap(1800.0, 2_000_000, drops=-(2**53)),
    "nan-time": snap(float("nan"), 2_000_000),
    "huge-time": snap(10**400, 2_000_000),
}


class TestGarbage:
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("bad", sorted(GARBAGE))
    def test_garbage_is_suspect_and_keeps_the_baseline(self, bad, seeded):
        bad = GARBAGE[bad]
        s = TelemetrySanitizer(TOPO)
        if seeded:
            s.ingest(("a", "b"), snap(900, 1_000_000), CAP_PPS)
        out = s.ingest(("a", "b"), bad, CAP_PPS)
        assert out.quality is SampleQuality.SUSPECT
        assert math.isfinite(out.time_s)
        assert (out.corruption, out.congestion, out.utilization) == (0, 0, 0)
        assert s.stats.samples == 1
        assert recent_quality(s, ("a", "b")) == (1, 1)
        # The baseline survived (or is still unset): the next clean
        # sample diffs against it (or seeds it).
        out = s.ingest(("a", "b"), snap(2700, 3_000_000, 20), CAP_PPS)
        if seeded:
            assert out.corruption == pytest.approx(1e-5)
        else:
            assert out is None

    def test_garbage_stream_matches_the_reference(self):
        """A counter stream a garbage fault mangles now and then, through
        ``ingest`` and the reference's: the same samples, stats, windows
        and baseline."""
        rng = random.Random(3)
        garbage = GarbageFault(0.2)
        sides = TelemetrySanitizer(TOPO), ReferenceSanitizer()
        did, total, mangled = ("x", "y"), 0, 0
        for i in range(1, 300):
            total += rng.randrange(0, 10_000_000)
            [sample] = garbage.apply(
                rng, did, [snap(900.0 * i, total, total // 10**5)]
            )
            mangled += type(sample.total) is not int or sample.total != total
            got, want = (s.ingest(did, sample, CAP_PPS) for s in sides)
            assert (got is None) == (want is None)
            if got is not None:
                assert (
                    got.time_s, got.corruption, got.congestion,
                    got.utilization, got.quality,
                ) == (
                    want.time_s, want.corruption, want.congestion,
                    want.utilization, want.quality,
                )
        new, ref = sides
        assert vars(new.stats) == vars(ref.stats)
        assert mangled > 20
        assert recent_quality(new, did) == ref.recent_quality(did)
        row = TOPO.direction_row(did)
        assert new._prev.total[row] == ref.prev[did].total


class TestPropertyStyle:
    def test_sanitized_rates_always_in_unit_interval(self):
        """Whatever garbage arrives, emitted rates stay in [0, 1]."""
        rng = random.Random(42)
        s = TelemetrySanitizer(TOPO)
        did = ("x", "y")
        t = 0.0
        for _ in range(500):
            t += rng.choice([0.0, 900.0, 900.0, 900.0, 1800.0, -900.0])
            total = rng.randrange(0, 2**33)
            errors = rng.randrange(0, 2**33)
            drops = rng.randrange(0, 2**33)
            out = s.ingest(did, snap(max(t, 0.0), total, errors, drops), CAP_PPS)
            if out is not None:
                assert 0.0 <= out.corruption <= 1.0
                assert 0.0 <= out.congestion <= 1.0
                assert 0.0 <= out.utilization <= 1.0

    def test_quality_ok_iff_no_fault(self):
        """A clean monotone stream is 100% OK; each injected fault flags
        its sample as non-OK."""
        s = TelemetrySanitizer(TOPO)
        did = ("x", "y")
        t, total = 0.0, 0
        rng = random.Random(7)
        for i in range(200):
            t += 900.0
            total += 100_000_000
            out = s.ingest(did, snap(t, total, int(total * 1e-5)), CAP_PPS)
            if out is not None:
                assert out.quality is SampleQuality.OK
        # Now inject one reset: exactly that sample is flagged.
        total = rng.randrange(1000)
        out = s.ingest(did, snap(t + 900.0, total, 0), CAP_PPS)
        assert out.quality is SampleQuality.SUSPECT


class TestQuarantine:
    def test_quarantine_trips_and_recovers(self):
        s = TelemetrySanitizer(TOPO, window=4, quarantine_threshold=0.5,
                               min_window_samples=2)
        did = ("a", "b")
        t, total = 900.0, 1_000_000
        s.ingest(did, snap(t, total), CAP_PPS)
        assert not s.quarantined(did)
        # Two missed polls in a 4-window: 2/3 degraded >= 0.5 -> quarantine.
        s.observe_missing(did, t + 900)
        s.observe_missing(did, t + 1800)
        s.ingest(did, snap(t + 2700, total + 3_000_000), CAP_PPS)
        assert s.quarantined(did)
        assert s.link_quarantined(("a", "b"))
        assert s.link_quarantined(("b", "a"))  # either direction counts
        # Clean samples push the bad ones out of the window.
        for i in range(4):
            total += 1_000_000
            s.ingest(did, snap(t + 3600 + i * 900, total), CAP_PPS)
        assert not s.quarantined(did)

    def test_min_window_guard(self):
        s = TelemetrySanitizer(TOPO, min_window_samples=3)
        s.observe_missing(("a", "b"), 900.0)
        assert not s.quarantined(("a", "b"))  # one bad sample is not enough

    def test_release_follows_recovery_order_not_entry_order(self):
        """Quarantine is per-direction state: the direction whose window
        cleans up first is released first, regardless of which direction
        was quarantined first."""
        s = TelemetrySanitizer(TOPO, window=4, quarantine_threshold=0.5,
                               min_window_samples=2)
        first, second = ("a", "b"), ("c", "d")
        # `first` enters quarantine before `second`.
        for did, start in ((first, 900.0), (second, 2700.0)):
            s.observe_missing(did, start)
            s.observe_missing(did, start + 900)
        assert s.quarantined(first) and s.quarantined(second)
        # Recovery happens in the opposite order: `second` gets clean
        # samples first and must be released while `first` still sits
        # in quarantine.
        def feed_clean(did, t0, polls):
            total = 1_000_000
            s.ingest(did, snap(t0, total), CAP_PPS)
            for i in range(1, polls + 1):
                total += 1_000_000
                s.ingest(did, snap(t0 + i * 900, total), CAP_PPS)

        feed_clean(second, 9000.0, 4)
        assert not s.quarantined(second)
        assert s.quarantined(first)
        assert s.link_quarantined(("a", "b"))
        assert not s.link_quarantined(("c", "d"))
        feed_clean(first, 18000.0, 4)
        assert not s.quarantined(first)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_a_clean_push_can_start_a_quarantine(self, recorded):
        """Seed, miss, miss, then an INTERPOLATED push: the window reaches
        ``min_window_samples`` on the clean push, and the quarantine it
        starts is the same state with a recorder or without, and is
        announced."""
        from repro.obs import ObsRecorder

        obs = ObsRecorder() if recorded else None
        s = (
            TelemetrySanitizer(TOPO, obs=obs) if recorded
            else TelemetrySanitizer(TOPO)
        )
        did = ("a", "b")
        s.ingest(did, snap(900.0, 1_000_000), CAP_PPS)
        s.observe_missing(did, 1800.0)
        s.observe_missing(did, 2700.0)
        assert not s.quarantined(did)
        out = s.ingest(did, snap(3600.0, 2_000_000), CAP_PPS)
        assert out.quality is SampleQuality.INTERPOLATED
        assert recent_quality(s, did) == (2, 3)
        assert s.quarantined(did) and s.link_quarantined(did)
        assert s.quarantined_directions() == 1
        if recorded:
            [event] = [e for e in obs.events if e["name"] == "quarantine"]
            assert (event["direction"], event["entered"]) == ("a->b", True)
            assert value(obs.registry, "sanitizer_quarantined_directions") == 1

    def test_quarantine_transitions_counted_in_order(self):
        from repro.obs import ObsRecorder

        obs = ObsRecorder()
        s = TelemetrySanitizer(TOPO, window=4, quarantine_threshold=0.5,
                               min_window_samples=2, obs=obs)
        first, second = ("a", "b"), ("c", "d")
        for did in (first, second):
            s.observe_missing(did, 900.0)
            s.observe_missing(did, 1800.0)
        reg = obs.registry
        assert value(reg,
            "sanitizer_quarantine_transitions_total", transition="enter"
        ) == 2
        assert value(reg, "sanitizer_quarantined_directions") == 2
        # Clean out one window: exactly one leave transition.
        total = 1_000_000
        s.ingest(second, snap(9000.0, total), CAP_PPS)
        for i in range(1, 5):
            total += 1_000_000
            s.ingest(second, snap(9000.0 + i * 900, total), CAP_PPS)
        assert value(reg,
            "sanitizer_quarantine_transitions_total", transition="leave"
        ) == 1
        assert value(reg, "sanitizer_quarantined_directions") == 1
        # The event stream preserves the enter/leave ordering.
        quarantine_events = [
            e for e in obs.events if e["name"] == "quarantine"
        ]
        assert [e["entered"] for e in quarantine_events] == [
            True, True, False,
        ]
        assert quarantine_events[-1]["direction"] == "c->d"


class TestOpticalPlausibility:
    def test_garbage_optics_flagged(self):
        clean = OpticalReading(0.0, -2.0, -3.0, -2.5, -3.5)
        assert optical_reading_plausible(clean)
        assert not optical_reading_plausible(
            OpticalReading(0.0, float("nan"), -3.0, -2.5, -3.5)
        )
        assert not optical_reading_plausible(
            OpticalReading(0.0, 99.9, -3.0, -2.5, -3.5)
        )
        assert not optical_reading_plausible(
            OpticalReading(0.0, -127.0, -3.0, -2.5, -3.5)
        )
