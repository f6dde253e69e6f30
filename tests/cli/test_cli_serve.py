"""CLI: the ``repro serve`` continuous-operation command.

A tiny full run, a stop-and-resume run whose report must be
byte-identical, and checkpoint/report validation through ``repro obs``.
"""

import json

import pytest

from repro.cli import main

FAST = [
    "--days", "0.5", "--scale", "0.06",
    "--seed", "7", "--fault-seed", "7", "--chaos-preset", "mild",
]


class TestServe:
    def test_full_run_prints_summary(self, capsys):
        code = main(["serve", *FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "shard(s)" in out
        assert "accounting OK" in out
        assert "-> OK" in out

    def test_validation_error_surfaces(self):
        with pytest.raises(SystemExit):
            main(["serve", "--queue-policy", "block"])

    @pytest.mark.parametrize("flags", [
        ["--poll-interval", "0"],
        ["--days", "0"],
        ["--scale", "0"],
        ["--capacity", "1.5"],
        ["--batch-size", "0"],
        ["--queue-capacity", "0"],
        ["--audit-maxlen", "0"],
        ["--checkpoint-every", "-1"],
        ["--checkpoint-every", "0", "--checkpoint-dir", "ck"],
    ], ids=" ".join)
    def test_bad_numeric_flag_is_a_usage_error(self, flags, tmp_path, capsys):
        """ServiceConfig's and the checkpoint spacing's rules, reported
        as one usage line with exit 2: no traceback, no run."""
        flags = [str(tmp_path / f) if f == "ck" else f for f in flags]
        code = main(["serve", "--scale", "0.1", "--days", "0.05", *flags])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro serve: error: ")
        assert not (tmp_path / "ck").exists()

    def test_stop_and_resume_reports_are_byte_identical(
        self, tmp_path, capsys
    ):
        full_report = tmp_path / "full.jsonl"
        assert main([
            "serve", *FAST,
            "--checkpoint-every", "4",
            "--checkpoint-dir", str(tmp_path / "ck-full"),
            "--out", str(full_report),
        ]) == 0
        capsys.readouterr()

        resumed_report = tmp_path / "resumed.jsonl"
        ck_dir = tmp_path / "ck-stop"
        assert main([
            "serve", *FAST,
            "--checkpoint-every", "4",
            "--checkpoint-dir", str(ck_dir),
            "--stop-after-checkpoint", "1",
            "--out", str(resumed_report),
        ]) == 0
        out = capsys.readouterr().out
        assert "stopped (max-boundaries)" in out
        assert not resumed_report.exists()  # stopped early: no report yet
        checkpoint = ck_dir / "checkpoint-000001.ckpt"
        assert checkpoint.exists()

        assert main([
            "serve",
            "--resume-from", str(checkpoint),
            "--checkpoint-dir", str(ck_dir),
            "--out", str(resumed_report),
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert full_report.read_bytes() == resumed_report.read_bytes()

        # Both artifacts pass schema validation through the obs command.
        assert main([
            "obs", "--validate",
            "--checkpoint", str(checkpoint),
            "--service-report", str(full_report),
        ]) == 0
        out = capsys.readouterr().out
        assert "digest OK" in out
        assert "validation: OK" in out

    def test_obs_flags_tampered_checkpoint(self, tmp_path, capsys):
        ck_dir = tmp_path / "ck"
        assert main([
            "serve", *FAST,
            "--checkpoint-every", "4",
            "--checkpoint-dir", str(ck_dir),
            "--stop-after-checkpoint", "1",
        ]) == 0
        capsys.readouterr()
        checkpoint = ck_dir / "checkpoint-000001.ckpt"
        raw = bytearray(checkpoint.read_bytes())
        raw[-1] ^= 0xFF
        checkpoint.write_bytes(bytes(raw))
        code = main(["obs", "--validate", "--checkpoint", str(checkpoint)])
        assert code != 0
        assert "INVALID" in capsys.readouterr().out

    def test_report_is_canonical_jsonl(self, tmp_path, capsys):
        report = tmp_path / "r.jsonl"
        assert main(["serve", *FAST, "--out", str(report)]) == 0
        lines = report.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-service-report"
        assert header["config"]["seed"] == 7
        # Canonical encoding: compact separators, sorted keys.
        assert lines[0] == json.dumps(
            header, sort_keys=True, separators=(",", ":")
        )


class TestGracefulDrain:
    @pytest.mark.skipif(
        not hasattr(__import__("signal"), "SIGTERM")
        or __import__("os").name != "posix",
        reason="POSIX signals required",
    )
    def test_sigterm_mid_run_flushes_valid_artifacts(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        ck_dir = tmp_path / "ck"
        health = tmp_path / "health.json"
        alerts = tmp_path / "alerts.jsonl"
        audit = tmp_path / "audit.jsonl"
        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        # A horizon far too long to finish: the run MUST be interrupted.
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--days", "365", "--scale", "0.06",
                "--seed", "7", "--fault-seed", "7",
                "--chaos-preset", "mild",
                "--checkpoint-every", "4",
                "--checkpoint-dir", str(ck_dir),
                "--health-out", str(health),
                "--alerts-out", str(alerts),
                "--audit-out", str(audit),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            first_ckpt = ck_dir / "checkpoint-000001.ckpt"
            deadline = time.monotonic() + 120
            while not first_ckpt.exists():
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "no checkpoint in 120s"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining to the next checkpoint boundary" in out
        assert "(partial)" in out

        from repro.obs import validate_alerts_jsonl, validate_health_scorecard
        from repro.obs.schema import validate_audit_jsonl

        card = json.loads(health.read_text())
        assert validate_health_scorecard(card) == []
        assert card["complete"] is False
        assert validate_alerts_jsonl(alerts.read_text().splitlines()) == []
        assert validate_audit_jsonl(audit.read_text().splitlines()) == []
