"""Tests for the fail-safe building blocks in repro.core.resilience."""

import json

import pytest

from repro.core import (
    AuditLog,
    BreakerState,
    CircuitBreaker,
    OnsetDebouncer,
    retry_with_backoff,
)
from repro.obs import ObsRecorder
from tests.metrics import total, value

LID = ("a", "b")


class TestOnsetDebouncer:
    def test_confirms_after_n_reports_and_fires_once(self):
        d = OnsetDebouncer(confirm=2, high=1e-8)
        assert not d.update(LID, 1e-6, 0.0)
        assert d.update(LID, 1e-6, 900.0)  # second consecutive report
        assert d.confirmed_count() == 1
        assert not d.update(LID, 1e-6, 1800.0)  # already fired: no re-churn

    def test_confirm_one_acts_immediately(self):
        d = OnsetDebouncer(confirm=1, high=1e-8)
        assert d.update(LID, 1e-6, 0.0)

    def test_low_rate_clears_streak(self):
        d = OnsetDebouncer(confirm=2, high=1e-8, low_factor=0.5)
        d.update(LID, 1e-6, 0.0)
        d.update(LID, 0.0, 900.0)  # below the low watermark: reset
        assert not d.update(LID, 1e-6, 1800.0)  # streak starts over
        assert d.update(LID, 1e-6, 2700.0)

    def test_hysteresis_band_keeps_confirmed_alive(self):
        d = OnsetDebouncer(confirm=1, high=1e-6, low_factor=0.5)
        assert d.update(LID, 1e-5, 0.0)
        # Rate sags into [low, high): confirmed state persists, no re-fire.
        assert not d.update(LID, 7e-7, 900.0)
        assert d.confirmed_count() == 1
        # Below low: cleared; a fresh over-threshold report re-fires.
        d.update(LID, 1e-7, 1800.0)
        assert d.confirmed_count() == 0
        assert d.update(LID, 1e-5, 2700.0)

    def test_stale_window_restarts_streak(self):
        d = OnsetDebouncer(confirm=2, window_s=3600.0, high=1e-8)
        d.update(LID, 1e-6, 0.0)
        # Next report arrives > window later: streak restarts at 1.
        assert not d.update(LID, 1e-6, 10_000.0)
        assert d.update(LID, 1e-6, 10_900.0)

    def test_clear_on_repair(self):
        d = OnsetDebouncer(confirm=1)
        d.update(LID, 1e-5, 0.0)
        d.clear(LID)
        assert d.confirmed_count() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnsetDebouncer(confirm=0)
        with pytest.raises(ValueError):
            OnsetDebouncer(low_factor=2.0)


class TestRetryWithBackoff:
    def test_returns_first_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        slept = []
        assert retry_with_backoff(flaky, attempts=3, sleep=slept.append) == "ok"
        assert len(calls) == 3
        assert slept == [1.0, 2.0]  # exponential, injectable sleep

    def test_reraises_after_exhaustion(self):
        def broken():
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            retry_with_backoff(broken, attempts=2)

    def test_unlisted_exception_not_retried(self):
        calls = []

        def boom():
            calls.append(1)
            raise KeyError("nope")

        with pytest.raises(KeyError):
            retry_with_backoff(boom, attempts=3, exceptions=(RuntimeError,))
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            retry_with_backoff(lambda: 1, attempts=0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        b = CircuitBreaker(failure_threshold=3, recovery_s=100.0)
        for t in range(2):
            b.record_failure(float(t))
            assert b.state is BreakerState.CLOSED
        b.record_failure(2.0)
        assert b.state is BreakerState.OPEN
        assert b.trips == 1
        assert not b.allow(50.0)  # still inside the recovery window

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, recovery_s=100.0)
        b.record_failure(0.0)
        assert b.allow(150.0)  # recovery window passed -> half-open probe
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.allow(151.0)

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=3, recovery_s=100.0)
        for t in range(3):
            b.record_failure(float(t))
        assert b.allow(200.0)  # probe
        b.record_failure(200.0)  # probe fails: re-open immediately
        assert b.state is BreakerState.OPEN
        assert b.trips == 2
        assert not b.allow(250.0)

    def test_success_resets_failure_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(1.0)
        assert b.state is BreakerState.CLOSED

    def test_transitions_become_labeled_counters(self):
        """Each state change is a labeled counter increment plus a
        numeric state gauge — the service dashboards key off these."""
        obs = ObsRecorder()
        b = CircuitBreaker(
            failure_threshold=1, recovery_s=100.0, obs=obs, name="shard0"
        )
        b.record_failure(0.0)          # closed -> open
        assert b.allow(150.0)          # open -> half-open probe
        b.record_failure(150.0)        # half-open -> open (re-trip)
        assert b.allow(300.0)          # open -> half-open again
        b.record_success()             # half-open -> closed
        reg = obs.registry

        def transitions(src, dst):
            return value(reg,
                "breaker_transitions_total",
                breaker="shard0",
                **{"from": src, "to": dst},
            )

        assert transitions("closed", "open") == 1
        assert transitions("open", "half_open") == 2
        assert transitions("half_open", "open") == 1  # the re-trip
        assert transitions("half_open", "closed") == 1
        assert value(reg, "breaker_state", breaker="shard0") == (
            CircuitBreaker.STATE_VALUES[BreakerState.CLOSED]
        )

    def test_half_open_re_trip_counts_a_second_trip(self):
        obs = ObsRecorder()
        b = CircuitBreaker(failure_threshold=1, recovery_s=10.0, obs=obs)
        b.record_failure(0.0)
        assert b.trips == 1
        assert b.allow(20.0)
        b.record_failure(20.0)  # probe fails -> immediate re-open
        assert b.trips == 2
        assert b.state is BreakerState.OPEN
        assert not b.allow(25.0)  # recovery clock restarted

    def test_no_transition_counter_without_state_change(self):
        obs = ObsRecorder()
        b = CircuitBreaker(failure_threshold=3, obs=obs)
        b.record_failure(0.0)  # stays closed
        b.record_success()     # stays closed
        assert total(obs.registry, "breaker_transitions_total") == 0


class TestDebouncerObs:
    def test_confirm_and_clear_transitions_counted(self):
        obs = ObsRecorder()
        d = OnsetDebouncer(
            confirm=2, high=1e-8, obs=obs, name="shard1"
        )
        d.update(LID, 1e-6, 0.0)
        d.update(LID, 1e-6, 900.0)   # confirmed
        d.clear(LID)                 # cleared (repair)
        reg = obs.registry
        assert value(reg,
            "debounce_transitions_total", debouncer="shard1", to="confirmed"
        ) == 1
        assert value(reg,
            "debounce_transitions_total", debouncer="shard1", to="cleared"
        ) == 1
        assert value(reg,
            "debounce_confirmed_links", debouncer="shard1"
        ) == 0

    def test_confirmed_links_gauge_tracks_live_set(self):
        obs = ObsRecorder()
        d = OnsetDebouncer(confirm=1, high=1e-8, obs=obs, name="d")
        d.update(("a", "b"), 1e-5, 0.0)
        d.update(("c", "d"), 1e-5, 0.0)
        assert value(obs.registry,
            "debounce_confirmed_links", debouncer="d"
        ) == 2


class TestAuditLog:
    def test_ring_bounded_counts_exact(self):
        log = AuditLog(maxlen=10)
        for i in range(100):
            log.record(float(i), "optimizer-error", detail=f"#{i}")
        log.record(100.0, "quarantined-report", link_id=LID, fail_safe=True)
        assert len(log.records()) == 10  # buffer evicted old entries...
        assert log.counts["optimizer-error"] == 100  # ...counts stay exact
        assert log.total() == 101
        assert log.records()[-1].fail_safe
        assert log.records()[-1].link_id == LID

    def test_records_are_structured(self):
        log = AuditLog()
        entry = log.record(5.0, "fast-check-error", link_id=LID, detail="x")
        assert entry.time_s == 5.0
        assert entry.event == "fast-check-error"
        assert not entry.fail_safe

    def test_evicted_counter_is_exact(self):
        log = AuditLog(maxlen=5)
        assert log.evicted == 0
        for i in range(5):
            log.record(float(i), "optimizer-error")
        assert log.evicted == 0  # exactly full, nothing out yet
        for i in range(3):
            log.record(float(5 + i), "optimizer-error")
        assert log.evicted == 3
        assert len(log.records()) == 5
        assert log.total() == 8

    def test_jsonl_header_reports_evictions(self):
        log = AuditLog(maxlen=2)
        for i in range(7):
            log.record(float(i), "quarantined-report", fail_safe=True)
        header = json.loads(next(iter(log.jsonl_lines())))
        assert header["evicted_decisions"] == 5
        assert header["buffered_decisions"] == 2
        assert header["total_decisions"] == 7
