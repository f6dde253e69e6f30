"""Chaos jobs as first-class sweep citizens.

Covers the spec/grid surface (validation, canonical-JSON back-compat),
the worker path (pool result bit-identical to a direct
:class:`ChaosSimulation` run), aggregation (chaos row block, schema
validation) and the determinism gate (jobs=1 vs jobs=N byte-identical).
"""

import dataclasses
import json

import pytest

from repro.obs.schema import validate_sweep_jsonl
from repro.parallel import JobSpec, ParallelRunner, worker_cache
from repro.parallel.aggregate import sweep_rows, write_sweep_jsonl
from repro.parallel.grid import GridSpec
from repro.parallel.spec import KNOWN_CHAOS_PRESETS
from repro.simulation import make_scenario
from repro.simulation.chaos import CHAOS_PRESETS, ChaosSimulation, chaos_preset

CHAOS_GRID = GridSpec(
    chaos_presets=["none", "mild"],
    capacities=[0.75],
    trace_seeds=[0, 1],
    scale=0.06,
    duration_days=1.0,
    events_per_10k=400.0,
)


@pytest.fixture(autouse=True)
def _cold_cache():
    worker_cache().clear()
    yield
    worker_cache().clear()


def test_known_chaos_presets_match_simulation_registry():
    """The spec-level literal must track the simulation-level registry."""
    assert set(KNOWN_CHAOS_PRESETS) == set(CHAOS_PRESETS)


def test_default_spec_canonical_json_omits_chaos_fields():
    """Pre-chaos specs keep their canonical JSON (and derived seeds)."""
    data = json.loads(JobSpec().canonical_json())
    assert "chaos_preset" not in data
    assert "fault_seed" not in data
    chaotic = JobSpec(kind="chaos", chaos_preset="mild", fault_seed=3)
    data = json.loads(chaotic.canonical_json())
    assert data["chaos_preset"] == "mild"
    assert data["fault_seed"] == 3


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="chaos"),  # chaos requires a preset
        dict(kind="chaos", chaos_preset="nope"),
        dict(kind="simulate", chaos_preset="mild"),
        dict(kind="chaos", chaos_preset="mild", technician_pool=4),
        dict(kind="chaos", chaos_preset="mild", full_repair_cycles=True),
    ],
)
def test_validate_rejects_bad_chaos_specs(bad):
    with pytest.raises(ValueError):
        JobSpec(**bad).validate()


def test_chaos_grid_expansion_order_and_fault_seed():
    grid = dataclasses.replace(CHAOS_GRID, fault_seed=7)
    specs = grid.expand()
    assert [s.kind for s in specs] == ["chaos"] * 4
    assert [(s.chaos_preset, s.trace_seed) for s in specs] == [
        ("none", 0),
        ("none", 1),
        ("mild", 0),
        ("mild", 1),
    ]
    assert all(s.fault_seed == 7 for s in specs)
    for spec in specs:
        spec.validate()
    # Chaos presets are a real axis: distinct derived seeds per preset.
    assert len({s.seed_used() for s in specs}) == 4


def test_chaos_job_matches_direct_run():
    """The pool path is bit-identical to a directly built ChaosSimulation."""
    spec = JobSpec(
        kind="chaos",
        chaos_preset="mild",
        scale=0.06,
        duration_days=1.0,
        trace_seed=0,
        events_per_10k=400.0,
        capacity=0.75,
    )
    record = ParallelRunner(jobs=1).run([spec]).records[0]
    assert record.ok

    scenario = make_scenario(
        scale=0.06,
        duration_days=1.0,
        seed=0,
        capacity=0.75,
        events_per_10k_links_per_day=400.0,
    )
    direct = ChaosSimulation(
        scenario,
        fault_config=chaos_preset("mild", seed=0),
        repair_accuracy=spec.repair_accuracy,
        service_days=spec.service_days,
        seed=spec.seed_used(),
    ).kernel.run()
    assert record.result.fingerprint() == direct.fingerprint()
    assert record.result.chaos.polls == direct.chaos.polls
    assert (
        record.result.chaos.degraded_samples == direct.chaos.degraded_samples
    )
    # Pool results are slimmed; process-local debug payloads are dropped.
    assert record.result.audit is None
    assert record.result.controller_log is None
    assert isinstance(record.result.sanitizer_stats, dict)


def test_chaos_rows_have_chaos_block_and_validate(tmp_path):
    specs = CHAOS_GRID.expand()
    sweep = ParallelRunner(jobs=1).run(specs)
    rows = sweep_rows(sweep, timing=False)
    for row in rows[1:]:
        assert row["spec"]["kind"] == "chaos"
        chaos = row["chaos"]
        assert chaos["preset"] in ("none", "mild")
        assert isinstance(chaos["invariants_ok"], bool)
        assert chaos["polls"] > 0

    path = write_sweep_jsonl(tmp_path / "chaos.jsonl", sweep, timing=False)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert validate_sweep_jsonl(lines) == []

    # A mangled chaos block must be caught by the schema validator.
    broken = json.loads(lines[1])
    broken["chaos"]["polls"] = "not-a-count"
    lines[1] = json.dumps(broken, sort_keys=True, separators=(",", ":"))
    problems = validate_sweep_jsonl(lines)
    assert any("polls" in problem for problem in problems)


def test_chaos_sweep_byte_identical_across_worker_counts():
    specs = CHAOS_GRID.expand()
    serial = ParallelRunner(jobs=1).run(specs)
    pooled = ParallelRunner(jobs=2).run(specs)
    assert sweep_rows(serial, timing=False) == sweep_rows(pooled, timing=False)
    assert [r.status for r in pooled.records] == ["ok"] * len(specs)
