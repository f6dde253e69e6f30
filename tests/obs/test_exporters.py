"""Golden-file / schema tests for the exporter formats.

Every artifact is round-tripped through the validators in
:mod:`repro.obs.schema` — the same code the ``repro obs --validate`` CLI
and the CI artifact job run — so "well-formed" means one thing everywhere.
"""

import itertools
import json

import pytest

from repro import __version__
from repro.core.resilience import AuditLog
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    SpanTracer,
    validate_audit_jsonl,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_prometheus_text,
)
from repro.obs.exporters import (
    _escape_label,
    chrome_trace,
    events_jsonl_lines,
    prometheus_text,
)


def make_manifest() -> RunManifest:
    return RunManifest(
        command="test",
        seeds={"trace": 7},
        git_sha="a" * 40,
        topology={"digest": "b" * 64},
    )


def fake_clock():
    counter = itertools.count()
    return lambda: next(counter) * 1e-3


class TestPrometheus:
    def test_golden_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("polls_total", 3.0)
        reg.inc("checks_total", 2.0, verdict="allowed")
        reg.set_gauge("queue_depth", 4.0, queue="pool")
        text = prometheus_text(reg, make_manifest(), sim_time_s=900.0)
        assert text == (
            "# repro-obs prometheus snapshot format=1\n"
            f"# repro-version: {__version__}\n"
            f"# git-sha: {'a' * 40}\n"
            "# sim-time-s: 900\n"
            f"# topology-digest: {'b' * 64}\n"
            "# HELP checks_total checks_total\n"
            "# TYPE checks_total counter\n"
            'checks_total{verdict="allowed"} 2\n'
            "# HELP polls_total polls_total\n"
            "# TYPE polls_total counter\n"
            "polls_total 3\n"
            "# HELP queue_depth queue_depth\n"
            "# TYPE queue_depth gauge\n"
            'queue_depth{queue="pool"} 4\n'
        )
        assert validate_prometheus_text(text) == []

    def test_histogram_series(self):
        reg = MetricsRegistry()
        reg.observe("wait_seconds", 0.5)
        reg.observe("wait_seconds", 50.0)
        text = prometheus_text(reg)
        assert "# TYPE wait_seconds histogram" in text
        assert 'wait_seconds_bucket{le="+Inf"} 2' in text
        assert "wait_seconds_sum 50.5" in text
        assert "wait_seconds_count 2" in text
        assert validate_prometheus_text(text) == []

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("links_total", link='sp0"x')
        assert validate_prometheus_text(prometheus_text(reg)) == []

    def test_validator_flags_problems(self):
        assert validate_prometheus_text("") == ["empty file"]
        bad = "# repro-obs prometheus snapshot format=1\nno_type_metric 1\n"
        problems = validate_prometheus_text(bad)
        assert any("no TYPE" in p for p in problems)
        assert any("repro-version" in p for p in problems)


class TestEventsJsonl:
    def test_header_then_events(self):
        events = [
            {"type": "event", "name": "decision", "sim_time_s": 900.0},
            {"type": "event", "name": "quarantine", "sim_time_s": 1800.0},
        ]
        lines = list(events_jsonl_lines(events, make_manifest()))
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["format"] == "repro-obs-events"
        assert header["format_version"] == 1
        assert header["repro_version"] == __version__
        assert header["git_sha"] == "a" * 40
        assert header["manifest"]["seeds"] == {"trace": 7}
        assert [json.loads(l)["name"] for l in lines[1:]] == [
            "decision",
            "quarantine",
        ]
        assert validate_events_jsonl(lines) == []

    def test_validator_flags_problems(self):
        lines = list(events_jsonl_lines([{"type": "event", "name": "ok"}]))
        problems = validate_events_jsonl(lines)
        assert any("sim_time_s" in p for p in problems)
        assert validate_events_jsonl(["not json"])[0].startswith("line 1")


class TestChromeTrace:
    def test_trace_shape_and_provenance(self):
        tracer = SpanTracer(clock=fake_clock())
        with tracer.span("tick", cat="chaos"):
            with tracer.span("poll", cat="telemetry"):
                pass
        trace = chrome_trace(tracer, make_manifest())
        meta, first, second = trace["traceEvents"]
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        assert first["name"] == "poll" and first["ph"] == "X"
        assert first["cat"] == "telemetry"
        assert "sim_time_start_s" in first["args"]
        assert second["name"] == "tick"
        other = trace["otherData"]
        assert other["format_version"] == 1
        assert other["dropped_spans"] == 0
        assert other["repro_version"] == __version__
        assert other["git_sha"] == "a" * 40
        assert trace["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(trace) == []
        # Must survive a JSON round trip unchanged (what write_* emits).
        assert validate_chrome_trace(json.loads(json.dumps(trace))) == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) == ["trace is not a JSON object"]
        bad = {
            "traceEvents": [{"name": "x", "ph": "Q", "pid": 1, "tid": 1}],
            "otherData": {"repro_version": "1"},
        }
        assert any("phase" in p for p in validate_chrome_trace(bad))


class TestAuditJsonl:
    def test_header_counts_and_decisions(self):
        log = AuditLog()
        log.record(900.0, "disabled", link_id=("a", "b"), detail="corrupting")
        log.record(
            1800.0,
            "kept-enabled",
            link_id=("c", "d"),
            detail="capacity floor",
            fail_safe=True,
        )
        lines = list(log.jsonl_lines())
        header = json.loads(lines[0])
        assert header["format"] == "repro-audit"
        assert header["repro_version"] == __version__
        assert header["total_decisions"] == 2
        assert header["counts"] == {"disabled": 1, "kept-enabled": 1}
        first, second = (json.loads(l) for l in lines[1:])
        assert first["verdict"] == "disabled"
        assert first["link"] == ["a", "b"]
        assert second["verdict"] == "fail-safe-keep"
        assert second["fail_safe"] is True
        assert validate_audit_jsonl(lines) == []

    def test_write_jsonl_round_trip(self, tmp_path):
        log = AuditLog()
        log.record(10.0, "disabled", link_id=("a", "b"))
        path = log.write_jsonl(tmp_path / "audit.jsonl")
        lines = path.read_text().splitlines()
        assert validate_audit_jsonl(lines) == []

    def test_counts_survive_ring_eviction(self):
        log = AuditLog(maxlen=2)
        for i in range(5):
            log.record(float(i), "disabled")
        header = json.loads(next(iter(log.jsonl_lines())))
        assert header["total_decisions"] == 5
        assert header["buffered_decisions"] == 2


def unescape_label(value: str) -> str:
    """Invert :func:`_escape_label` (Prometheus label-value escaping).

    Escape sequences must be decoded left-to-right in one pass —
    chained ``str.replace`` calls would mangle ``\\\\n`` (an escaped
    backslash followed by ``n``) into a newline.
    """
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


class TestLabelEscapeRoundTrip:
    """_escape_label / unescape_label must be exact inverses."""

    CASES = [
        "plain",
        'quote " inside',
        "line\nbreak",
        "back\\slash",
        "\\n",  # literal backslash + n, NOT a newline
        'mix \\ then " then \n end',
        "trailing backslash \\",
        "",
    ]

    @pytest.mark.parametrize("value", CASES)
    def test_round_trip(self, value):
        assert unescape_label(_escape_label(value)) == value

    def test_escaped_backslash_n_is_not_a_newline(self):
        escaped = _escape_label("\\n")
        assert escaped == "\\\\n"
        assert unescape_label(escaped) == "\\n"

    def test_escaped_value_has_no_raw_newline_or_quote(self):
        escaped = _escape_label('a"b\nc\\d')
        assert "\n" not in escaped
        assert '"' not in escaped.replace('\\"', "")
