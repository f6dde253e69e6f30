"""SLO/health determinism: scorecards and alert streams are event-time
functions of the run, so they must be byte-identical across repeated
runs, across worker counts, and across checkpoint kill/resume."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    scorecard_json,
    validate_alerts_jsonl,
    validate_health_scorecard,
)
from repro.obs.health import alert_lines_from_report
from repro.parallel import GridSpec, ParallelRunner, write_sweep_jsonl
from repro.simulation.chaos import ChaosSimulation, chaos_preset
from repro.simulation.scenarios import chaos_scenario

SERVE_FAST = [
    "--days", "0.5", "--scale", "0.06",
    "--seed", "7", "--fault-seed", "7", "--chaos-preset", "mild",
]


def _chaos_health():
    scenario = chaos_scenario(scale=0.06, duration_days=1.0, seed=3)
    result = ChaosSimulation(
        scenario, chaos_preset("mild", seed=3), seed=3
    ).kernel.run()
    return result.health


class TestRepeatedRuns:
    def test_scorecard_and_alerts_are_byte_stable(self):
        first, second = _chaos_health(), _chaos_health()
        assert scorecard_json(first) == scorecard_json(second)
        assert alert_lines_from_report(first) == alert_lines_from_report(
            second
        )

    def test_artifacts_are_schema_clean(self):
        report = _chaos_health()
        card = json.loads(scorecard_json(report))
        assert validate_health_scorecard(card) == []
        assert validate_alerts_jsonl(alert_lines_from_report(report)) == []


class TestWorkerCountInvariance:
    @pytest.fixture(scope="class")
    def grid(self):
        return GridSpec(
            presets=["medium"],
            chaos_presets=["mild"],
            capacities=[0.75],
            trace_seeds=[0, 1, 2],
            scale=0.06,
            duration_days=1.0,
            events_per_10k=400.0,
            fault_seed=0,
        )

    def test_sweep_health_rows_identical_across_jobs(self, grid, tmp_path):
        paths = []
        for jobs in (1, 2):
            sweep = ParallelRunner(jobs=jobs).run(grid.expand())
            path = tmp_path / f"jobs{jobs}.jsonl"
            write_sweep_jsonl(path, sweep, timing=False)
            paths.append(path)
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        rows = [
            json.loads(line)
            for line in paths[0].read_text().splitlines()[1:]
        ]
        health_blocks = [row.get("health") for row in rows]
        assert health_blocks and all(health_blocks)
        for block in health_blocks:
            assert "detection_latency_p95_s" in block
            assert isinstance(block["slo_ok"], bool)


class TestCheckpointResumeInvariance:
    def test_kill_resume_scorecard_and_alerts_byte_identical(
        self, tmp_path, capsys
    ):
        full_health = tmp_path / "full-health.json"
        full_alerts = tmp_path / "full-alerts.jsonl"
        assert main([
            "serve", *SERVE_FAST,
            "--checkpoint-every", "4",
            "--checkpoint-dir", str(tmp_path / "ck-full"),
            "--health-out", str(full_health),
            "--alerts-out", str(full_alerts),
        ]) == 0
        capsys.readouterr()

        ck_dir = tmp_path / "ck-stop"
        part_health = tmp_path / "part-health.json"
        part_alerts = tmp_path / "part-alerts.jsonl"
        assert main([
            "serve", *SERVE_FAST,
            "--checkpoint-every", "4",
            "--checkpoint-dir", str(ck_dir),
            "--stop-after-checkpoint", "1",
            "--health-out", str(part_health),
            "--alerts-out", str(part_alerts),
        ]) == 0
        out = capsys.readouterr().out
        assert "(partial)" in out

        # The drain-time flush is schema-clean and marked incomplete.
        partial_card = json.loads(part_health.read_text())
        assert validate_health_scorecard(partial_card) == []
        assert partial_card["complete"] is False
        assert validate_alerts_jsonl(
            part_alerts.read_text().splitlines()
        ) == []

        resumed_health = tmp_path / "resumed-health.json"
        resumed_alerts = tmp_path / "resumed-alerts.jsonl"
        assert main([
            "serve",
            "--resume-from", str(ck_dir / "checkpoint-000001.ckpt"),
            "--checkpoint-dir", str(ck_dir),
            "--health-out", str(resumed_health),
            "--alerts-out", str(resumed_alerts),
        ]) == 0
        capsys.readouterr()

        assert full_health.read_bytes() == resumed_health.read_bytes()
        assert full_alerts.read_bytes() == resumed_alerts.read_bytes()
        final_card = json.loads(resumed_health.read_text())
        assert validate_health_scorecard(final_card) == []
        assert final_card["complete"] is True
