"""Smoke test of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` (it is outside
the tier-1 ``tests/`` tree on purpose: it takes about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import layers, run
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench.run", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "-m", "bench.run"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == run.NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in SPEC["end_to_end"]
    ] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == layers.PER_LAYER


def test_goldens_cover_every_workload():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert sorted(golden) == sorted(WORKLOADS)
    # The seed-0 oracle run is the committed fig17 grid.
    fig17 = json.loads(
        (ROOT / "benchmarks/results/fig17_penalty_ratio_large.json").read_text()
    )["metrics"]
    for name, ratio in golden["oracle_fig17"]["ratios"].items():
        assert ratio == fig17[name]


@pytest.fixture(scope="module")
def smoke_report():
    done = bench("--smoke", "--repeats", "1", "--seed", "7")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_report_has_every_metric(smoke_report):
    assert sorted(smoke_report["workloads"]) == sorted(WORKLOADS)
    for name, entry in smoke_report["workloads"].items():
        assert entry["ops_attempted"] > 0 and entry["ops_failed"] == 0, name
        assert entry["traced_digest"] == entry["digest"], name
        for metric in SPEC["end_to_end"]:
            got = entry["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            assert got["median"] > 0, (name, metric["name"])
        for metric in SPEC["per_layer"]:
            got = entry["per_layer"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
        assert entry["per_layer"]["trace.covered_ratio"]["value"] > 0.5, name
    for key in ("nproc", "available_cpus", "python", "numpy", "repro"):
        assert smoke_report["host"][key]


@pytest.mark.parametrize("trace", [0, 1])
def test_single_run_prints_the_contract_line(trace):
    done = bench(
        "--workload", "chaos_harsh", "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(
        "--workload", "chaos_mild", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "missing" in done.stderr
