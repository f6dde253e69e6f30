"""End-to-end tests for ``repro sweep`` and parallel ``repro simulate``."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_sweep_jsonl
from repro.simulation.results import RunResult

FAST_AXES = [
    "--strategies", "corropt,none",
    "--capacities", "0.5,0.9",
    "--seeds", "0",
    "--scale", "0.2",
    "--days", "8",
    "--events", "300",
]


class TestSweepCommand:
    def test_grid_runs_and_prints_summary(self, capsys):
        code = main(["sweep", *FAST_AXES])
        assert code == 0
        out = capsys.readouterr().out
        assert "4/4 jobs ok" in out
        assert "scenario cache" in out
        assert "corropt" in out and "none" in out
        assert "invariants" not in out  # no chaos jobs, no chaos invariants

    def test_jsonl_output_validates(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", *FAST_AXES, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert validate_sweep_jsonl(lines) == []
        header = json.loads(lines[0])
        assert header["jobs_total"] == 4

    def test_jobs_do_not_change_output_bytes(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        assert main(
            ["sweep", *FAST_AXES, "--no-timing", "--out", str(serial)]
        ) == 0
        assert main(
            ["sweep", *FAST_AXES, "--no-timing", "--jobs", "2",
             "--out", str(pooled)]
        ) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_grid_file_overrides_flags(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "strategies": ["corropt"],
            "capacities": [0.6],
            "trace_seeds": [0, 1],
            "scale": 0.2,
            "duration_days": 8.0,
            "events_per_10k": 300.0,
        }))
        code = main(["sweep", "--grid", str(grid)])
        assert code == 0
        assert "2/2 jobs ok" in capsys.readouterr().out

    def test_metrics_and_manifest_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        manifest = tmp_path / "manifest.json"
        code = main([
            "sweep", *FAST_AXES,
            "--metrics-out", str(metrics),
            "--manifest-out", str(manifest),
        ])
        assert code == 0
        assert "sweep_jobs_total" in metrics.read_text()
        data = json.loads(manifest.read_text())
        assert data["config"]["grid_digest"].startswith("sha256:")

    def test_invalid_grid_rejected_upfront(self, capsys):
        assert main([
            "sweep", "--strategies", "corropt", "--capacities", "2.0",
            "--seeds", "0",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro sweep: error: capacity")
        assert captured.out == ""

    @pytest.mark.parametrize("violated", [False, True])
    def test_chaos_grid_reports_its_invariants(
        self, violated, monkeypatch, capsys
    ):
        """A grid of chaos jobs prints one invariants line, and a run that
        violated them fails the sweep."""
        if violated:
            monkeypatch.setattr(RunResult, "invariants_ok", lambda self: False)
        code = main([
            "sweep", "--chaos-preset", "mild", "--seeds", "0:2",
            "--scale", "0.06", "--days", "0.5",
        ])
        out = capsys.readouterr().out
        if violated:
            assert code == 1
            assert "invariants: 2 of 2 runs violated -> VIOLATED" in out
        else:
            assert code == 0
            assert "invariants: 0 of 2 runs violated -> OK" in out

    def test_failures_flip_exit_code(self, capsys):
        # A watchdog timeout far below any real run forces every job into
        # a structured "timeout" failure — exercising the non-zero exit.
        code = main([
            "sweep", *FAST_AXES, "--jobs", "2", "--retries", "0",
            "--timeout", "0.05",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestObsSweepValidation:
    def test_obs_validates_sweep_stream(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        main(["sweep", *FAST_AXES, "--out", str(out)])
        capsys.readouterr()
        code = main(["obs", "--sweep", str(out), "--validate"])
        assert code == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_obs_rejects_corrupt_stream(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        main(["sweep", *FAST_AXES, "--out", str(out)])
        lines = out.read_text().splitlines()
        row = json.loads(lines[1])
        del row["series_digest"]
        lines[1] = json.dumps(row)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["obs", "--sweep", str(out), "--validate"])
        assert code == 1


class TestSimulateComparison:
    CELL = ["--scale", "0.2", "--days", "8", "--events", "300",
            "--capacity", "0.6", "--seed", "3"]

    def test_multi_strategy_comparison(self, capsys):
        code = main([
            "simulate", "--strategies", "corropt,none", "--jobs", "2",
            "--scale", "0.2", "--days", "8", "--events", "300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "corropt" in out and "none" in out
        assert "penalty" in out
        # A first strategy with a zero integral gives no ratio to print.
        assert main(["simulate", "--strategies", "corropt,switch-local"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith("(  n/a vs corropt)") for row in rows)

    def test_single_run_is_the_comparison_job(self, capsys):
        """``simulate --strategy X`` runs the job ``--strategies X`` does:
        the ``--seed`` trace with repair seed ``--seed``."""
        assert main(["simulate", "--strategy", "switch-local", *self.CELL]) == 0
        single = capsys.readouterr().out.splitlines()[2].split()[-1]
        assert main(["simulate", "--strategies", "switch-local", *self.CELL]) == 0
        compared = capsys.readouterr().out.splitlines()[1].split()[3]
        assert single == compared

    def test_matches_one_cell_sweep(self, tmp_path, capsys):
        """``simulate --strategies`` and ``sweep`` are one oracle run: the
        same cell gives the same integrals, under --penalty and
        --lg-coverage too."""
        names = "linkguardian,lg+corropt,corropt"
        assert main([
            "simulate", "--strategies", names, *self.CELL,
            "--penalty", "step", "--lg-coverage", "0.5",
        ]) == 0
        printed = [
            line.split()[3]
            for line in capsys.readouterr().out.splitlines()
            if "penalty integral" in line
        ]
        out = tmp_path / "cell.jsonl"
        assert main([
            "sweep", "--strategies", names, "--capacities", "0.6",
            "--seeds", "3", "--repair-seeds", "3", "--scale", "0.2",
            "--days", "8", "--events", "300", "--penalties", "step",
            "--lg-coverages", "0.5", "--out", str(out),
        ]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        swept = [
            f"{row['penalty_integral']:.3e}"
            for row in rows
            if row.get("type") == "result"
        ]
        assert printed == swept
        assert len(set(printed)) > 1

    def test_unknown_strategy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--strategies", "corropt,bogus", *self.CELL])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "'bogus'" in err


class TestChaosIsAOneJobSweep:
    @pytest.mark.parametrize("preset", ["mild", "harsh"])
    def test_same_job_same_series(self, preset, tmp_path, monkeypatch, capsys):
        """``repro chaos`` runs the job a one-cell chaos sweep at chaos's
        scenario (scale 0.12, 4 days, 400 events) runs: the same spec,
        the same metric series."""
        from repro.parallel import series_digest, worker

        ran = []
        execute = worker.execute_job

        def spy(spec, **kwargs):
            ran.append(execute(spec, **kwargs))
            return ran[-1]

        monkeypatch.setattr(worker, "execute_job", spy)
        assert main([
            "chaos", "--preset", preset, "--seed", "5", "--fault-seed", "9",
        ]) == 0
        out = tmp_path / "cell.jsonl"
        assert main([
            "sweep", "--chaos-preset", preset, "--seeds", "5",
            "--repair-seeds", "5", "--fault-seed", "9", "--scale", "0.12",
            "--days", "4", "--events", "400", "--out", str(out),
        ]) == 0
        (row,) = [
            json.loads(line) for line in out.read_text().splitlines()
            if json.loads(line).get("type") == "result"
        ]
        (record,) = ran
        assert record.spec.to_dict() == row["spec"]
        assert series_digest(record.result) == row["series_digest"]
