"""Tests for the dual-clock span tracer and the recorder interface."""

import itertools

from repro.obs import NULL_RECORDER, ObsRecorder, SpanTracer
from repro.obs.recorder import NULL_SPAN


def fake_clock():
    """Deterministic wall clock: 1 ms per reading."""
    counter = itertools.count()
    return lambda: next(counter) * 1e-3


class TestNesting:
    def test_depth_reflects_nesting(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # finish order: inner first
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0

    def test_wall_durations_from_injected_clock(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("a"):
            pass
        (span,) = tracer.spans
        assert span.dur_wall_us == 1000.0  # one clock step = 1 ms

    def test_sim_time_bounds_recorded(self):
        sim_time = {"now": 0.0}
        tracer = SpanTracer(
            sim_time_fn=lambda: sim_time["now"], clock=fake_clock()
        )
        sim_time["now"] = 900.0
        with tracer.span("tick"):
            sim_time["now"] = 1800.0
        (span,) = tracer.spans
        assert span.start_sim_s == 900.0
        assert span.end_sim_s == 1800.0

    def test_attrs_via_set(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("decide", link="a-b") as span:
            span.set(outcome="disabled")
        (record,) = tracer.spans
        assert record.args == {"link": "a-b", "outcome": "disabled"}


class TestBoundedBuffer:
    def test_overflow_drops_and_counts(self):
        tracer = SpanTracer(clock=fake_clock(), max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


class TestNullRecorder:
    def test_span_returns_shared_null_span(self):
        assert NULL_RECORDER.span("anything", cat="x", attr=1) is NULL_SPAN

    def test_all_methods_are_noops(self):
        NULL_RECORDER.count("a_total", 2.0, label="x")
        NULL_RECORDER.gauge("g", 1.0)
        NULL_RECORDER.observe("h", 0.5)
        NULL_RECORDER.event("e", detail="d")
        NULL_RECORDER.set_sim_time(123.0)
        NULL_RECORDER.scrape_optimizer_stats(None)
        assert NULL_RECORDER.enabled is False

    def test_null_span_set_chains(self):
        with NULL_RECORDER.span("s") as span:
            assert span.set(a=1) is span


class TestObsRecorder:
    def test_event_carries_sim_time(self):
        obs = ObsRecorder()
        obs.set_sim_time(900.0)
        obs.event("decision", link="a-b")
        (event,) = obs.events
        assert event["sim_time_s"] == 900.0
        assert event["name"] == "decision"
        assert event["link"] == "a-b"

    def test_event_buffer_bounded(self):
        obs = ObsRecorder(max_events=2)
        for i in range(4):
            obs.event("e", i=i)
        assert len(obs.events) == 2
        assert obs.dropped_events == 2

    def test_summary_counts(self):
        obs = ObsRecorder()
        obs.count("a_total")
        with obs.span("s"):
            pass
        obs.event("e")
        summary = obs.summary()
        assert summary["metrics"] == 1
        assert summary["spans"] == 1
        assert summary["events"] == 1
