"""CLI tests for observability artifacts and the `repro obs` command."""

import json

import pytest

from repro.cli import main
from repro.obs.schema import (
    validate_audit_jsonl,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_prometheus_text,
)


@pytest.fixture(scope="module")
def chaos_artifacts(tmp_path_factory):
    """One short instrumented chaos run emitting every artifact."""
    out = tmp_path_factory.mktemp("chaos-artifacts")
    code = main(
        [
            "chaos", "--preset", "mild", "--days", "1", "--scale", "0.08",
            "--metrics-out", str(out / "metrics.prom"),
            "--events-out", str(out / "events.jsonl"),
            "--trace-out", str(out / "trace.json"),
            "--manifest-out", str(out / "manifest.json"),
            "--audit-out", str(out / "audit.jsonl"),
        ]
    )
    assert code == 0
    return out


class TestChaosArtifacts:
    def test_all_artifacts_written_and_valid(self, chaos_artifacts):
        out = chaos_artifacts
        prom = (out / "metrics.prom").read_text()
        assert validate_prometheus_text(prom) == []
        events = (out / "events.jsonl").read_text().splitlines()
        assert validate_events_jsonl(events) == []
        trace = json.loads((out / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        audit = (out / "audit.jsonl").read_text().splitlines()
        assert validate_audit_jsonl(audit) == []

    def test_manifest_records_command_and_seeds(self, chaos_artifacts):
        manifest = json.loads((chaos_artifacts / "manifest.json").read_text())
        assert manifest["command"] == "chaos"
        assert set(manifest["seeds"]) == {"trace", "repair", "faults"}
        assert manifest["config"]["preset"] == "mild"
        assert len(manifest["topology"]["digest"]) == 64

    def test_trace_contains_pipeline_spans(self, chaos_artifacts):
        trace = json.loads((chaos_artifacts / "trace.json").read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        for span in ("tick", "poll", "poll.sanitize", "chaos.detect"):
            assert span in names

    def test_obs_validate_accepts_artifacts(self, chaos_artifacts, capsys):
        out = chaos_artifacts
        code = main(
            [
                "obs", "--validate",
                "--metrics", str(out / "metrics.prom"),
                "--events", str(out / "events.jsonl"),
                "--trace", str(out / "trace.json"),
                "--audit", str(out / "audit.jsonl"),
            ]
        )
        assert code == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_obs_pretty_prints_audit(self, chaos_artifacts, capsys):
        code = main(["obs", "--audit", str(chaos_artifacts / "audit.jsonl")])
        assert code == 0
        assert "decisions" in capsys.readouterr().out


class TestObsCommand:
    def test_no_input_is_an_error(self, capsys):
        assert main(["obs"]) == 2

    def test_validate_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.prom"
        bad.write_text("not a prometheus file\n")
        code = main(["obs", "--validate", "--metrics", str(bad)])
        assert code == 1


class TestObsValidateNeverCrashes:
    """A file ``repro obs --validate`` exists to reject gets a verdict, not
    a traceback: ``<path>: <problem>``, no summary, exit 1."""

    def _validate(self, capsys, flag, path):
        code = main(["obs", "--validate", flag, str(path)])
        out = capsys.readouterr().out
        assert code == 1, out
        assert f"{path}: " in out
        return out

    def test_sweep_with_a_line_that_is_not_json(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.jsonl"
        header = {
            "type": "header", "format": "repro-sweep", "format_version": 1,
            "repro_version": "1", "jobs_total": 0, "grid_digest": "sha256:0",
        }
        sweep.write_text(json.dumps(header) + "\nnot json\n")
        out = self._validate(capsys, "--sweep", sweep)
        assert "line 2: invalid JSON" in out
        assert "jobs ok" not in out

    def test_events_file_of_garbage(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("garbage\n{{{\n")
        out = self._validate(capsys, "--events", events)
        assert "line 1: invalid JSON" in out
        assert "event stream:" not in out

    def test_scorecard_that_is_a_json_list(self, tmp_path, capsys):
        card = tmp_path / "health.json"
        card.write_text("[1, 2, 3]\n")
        out = self._validate(capsys, "--health", card)
        assert "scorecard is not a JSON object" in out
        assert "health scorecard (" not in out

    def test_trace_that_is_not_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text("{not json")
        out = self._validate(capsys, "--trace", trace)
        assert "unreadable" in out
        assert "chrome trace:" not in out


class TestHealthUnreadableInput:
    """``repro health`` reports a missing or truncated file, as ``repro
    obs`` does, instead of raising."""

    @pytest.mark.parametrize("flag", ["--scorecard", "--service-report"])
    @pytest.mark.parametrize(
        "content", [None, '{"type": "result", "health": {"detect'],
        ids=["missing", "truncated"],
    )
    def test_reported_and_exits_1(self, tmp_path, capsys, flag, content):
        path = tmp_path / "artifact"
        if content is not None:
            path.write_text(content)
        assert main(["health", flag, str(path)]) == 1
        assert f"{path}: unreadable (" in capsys.readouterr().out


class TestSimulateArtifacts:
    def test_metrics_and_trace_flags(self, tmp_path, capsys):
        metrics = tmp_path / "sim.prom"
        trace = tmp_path / "sim-trace.json"
        code = main(
            [
                "simulate", "--dcn", "medium", "--scale", "0.1",
                "--days", "5", "--events", "20",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        assert validate_prometheus_text(metrics.read_text()) == []
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        out = capsys.readouterr().out
        assert "optimizer:" in out

    def test_default_run_writes_nothing(self, tmp_path, capsys):
        code = main(
            [
                "simulate", "--dcn", "medium", "--scale", "0.1",
                "--days", "5", "--events", "20",
            ]
        )
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestMetricsSummaryQuantiles:
    def test_histogram_families_report_quantiles(
        self, chaos_artifacts, capsys
    ):
        code = main(["obs", "--metrics", str(chaos_artifacts / "metrics.prom")])
        assert code == 0
        out = capsys.readouterr().out
        # The chaos pipeline always observes poll batch sizes, so at
        # least one histogram family must render p50/p95/p99 bounds.
        quantile_lines = [
            line for line in out.splitlines() if "p95<=" in line
        ]
        assert quantile_lines, out
        for line in quantile_lines:
            assert "n=" in line and "sum=" in line
            assert "p50<=" in line and "p99<=" in line

    def test_synthetic_histogram_quantiles_exact(self, tmp_path, capsys):
        prom = tmp_path / "h.prom"
        prom.write_text(
            "# repro-obs prometheus snapshot format=1\n"
            "# repro-version: 0.0.0\n"
            "# HELP wait_s wait_s\n"
            "# TYPE wait_s histogram\n"
            'wait_s_bucket{job="a",le="1.0"} 50\n'
            'wait_s_bucket{job="a",le="10.0"} 95\n'
            'wait_s_bucket{job="a",le="+Inf"} 100\n'
            'wait_s_sum{job="a"} 321.5\n'
            'wait_s_count{job="a"} 100\n'
        )
        code = main(["obs", "--metrics", str(prom)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wait_s: n=100 sum=321.5 p50<=1.0 p95<=10.0 p99<=+Inf" in out
