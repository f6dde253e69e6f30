"""Run-level aggregation of per-job sweep outcomes.

Turns a :class:`~repro.parallel.runner.SweepResult` into:

- **JSONL rows** — one canonical, key-sorted record per job, in spec
  order.  With ``timing=False`` the stream contains no wall-clock or
  environment fields, so sweeps at different ``--jobs`` are
  byte-identical (the `parallel-determinism` CI gate);
- a **series digest** per job — SHA-256 over the exact metric change
  points, making "identical results" checkable without shipping whole
  series;
- a merged **optimizer-stats** aggregate and a run-level **metrics
  registry** (per-worker scenario-cache and job counters folded in);
- a **run manifest** stamping provenance (grid digest, repro version)
  onto every exported artifact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro._version import __version__
from repro.core.optimizer import OptimizerStats
from repro.core.penalty import ordered_sum
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.registry import MetricsRegistry
from repro.parallel.runner import SweepResult
from repro.parallel.worker import JobRecord
from repro.simulation.results import RunResult

#: Bumped when the row shape changes incompatibly.
SWEEP_FORMAT_VERSION = 1


def series_digest(result: RunResult) -> str:
    """SHA-256 over the exact metric change points of one run."""
    payload = [
        result.metrics.penalty.changes(),
        result.metrics.worst_tor_fraction.changes(),
        result.metrics.average_tor_fraction.changes(),
    ]
    canonical = json.dumps(payload, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def record_row(
    record: JobRecord, index: int, timing: bool = True
) -> Dict[str, Any]:
    """One job's canonical JSONL row."""
    row: Dict[str, Any] = {
        "type": "result",
        "job": index,
        "spec": record.spec.to_dict(),
        "seed_used": record.spec.seed_used(),
        "status": record.status,
    }
    if record.ok and record.result is not None:
        result = record.result
        metrics = result.metrics
        row.update(
            {
                "strategy_name": result.strategy_name,
                "duration_s": result.duration_s,
                "penalty_integral": result.penalty_integral,
                "mean_penalty": result.mean_penalty(),
                "onsets": metrics.onsets,
                "disabled_on_onset": metrics.disabled_on_onset,
                "kept_active_on_onset": metrics.kept_active_on_onset,
                "disabled_on_activation": metrics.disabled_on_activation,
                "repairs_completed": metrics.repairs_completed,
                "failed_repairs": metrics.failed_repairs,
                "worst_tor_fraction_min": metrics.worst_tor_fraction.min_value(),
                "series_digest": series_digest(result),
            }
        )
        if result.optimizer_stats is not None:
            row["optimizer"] = result.optimizer_stats.as_dict()
        if record.spec.lg_coverage > 0.0:
            row["lg"] = {
                "coverage": record.spec.lg_coverage,
                "protections": metrics.lg_protections,
                "effective_capacity_min": (
                    metrics.effective_capacity.min_value()
                ),
            }
        if result.chaos is not None:
            chaos = result.chaos
            row["chaos"] = {
                "preset": record.spec.chaos_preset,
                "fault_seed": record.spec.fault_seed,
                "invariants_ok": result.invariants_ok(),
                "polls": chaos.polls,
                "missed_polls": chaos.missed_polls,
                "degraded_samples": chaos.degraded_samples,
                "false_disables": chaos.false_disables,
                "missed_mitigations": chaos.missed_mitigations,
                "detections": chaos.detections,
                "detection_lag_polls": chaos.mean_detection_delay_polls(),
                "decisions_in_degraded_mode": chaos.decisions_in_degraded_mode,
                "quarantined_peak": chaos.quarantined_peak,
                "quarantine_violations": chaos.quarantine_violations,
                "capacity_violations": chaos.capacity_violations,
            }
        if result.health is not None:
            row["health"] = result.health.row()
        if getattr(result, "diagnosis", None) is not None:
            diagnosis = {
                "sensing": record.spec.sensing,
                "congestion_preset": record.spec.congestion_preset,
                "miswire_pairs": record.spec.miswire_pairs,
            }
            diagnosis.update(result.diagnosis.row())
            row["diagnosis"] = diagnosis
    if record.ok and record.payload is not None:
        row["payload"] = dict(record.payload)
    if not record.ok:
        row["error"] = dict(record.error or {})
    if timing:
        row["timing"] = {
            "wall_s": round(record.wall_s, 6),
            "attempts": record.attempts,
            "cache_hit": record.cache_hit,
            "worker_pid": record.worker_pid,
        }
    return row


def sweep_header(sweep: SweepResult, timing: bool = True) -> Dict[str, Any]:
    """The JSONL header row (provenance, grid digest, job count)."""
    digest = hashlib.sha256()
    for spec in sweep.specs:
        digest.update(spec.canonical_json().encode("utf-8"))
        digest.update(b"\n")
    header: Dict[str, Any] = {
        "type": "header",
        "format": "repro-sweep",
        "format_version": SWEEP_FORMAT_VERSION,
        "repro_version": __version__,
        "jobs_total": len(sweep.specs),
        "grid_digest": "sha256:" + digest.hexdigest(),
    }
    if timing:
        header["timing"] = {
            "jobs": sweep.jobs,
            "wall_s": round(sweep.wall_s, 6),
            "cache": dict(sweep.cache_stats),
        }
    return header


def sweep_rows(sweep: SweepResult, timing: bool = True) -> List[Dict[str, Any]]:
    """Header + per-job rows, in spec order."""
    rows = [sweep_header(sweep, timing=timing)]
    for index, record in enumerate(sweep.records):
        rows.append(record_row(record, index, timing=timing))
    return rows


def write_sweep_jsonl(
    path: Union[str, Path], sweep: SweepResult, timing: bool = True
) -> Path:
    """Write the sweep as canonical JSONL (key-sorted, one row per line)."""
    path = Path(path)
    lines = [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in sweep_rows(sweep, timing=timing)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def merge_optimizer_stats(sweep: SweepResult) -> Optional[OptimizerStats]:
    """Aggregate optimizer search effort across every ok job."""
    merged: Optional[OptimizerStats] = None
    for record in sweep.ok_records():
        result = record.result
        if result is None or result.optimizer_stats is None:
            continue
        if merged is None:
            merged = OptimizerStats()
        merged.merge(result.optimizer_stats)
    return merged


def sweep_registry(sweep: SweepResult) -> MetricsRegistry:
    """Run-level metrics merged from per-job and per-worker accounting."""
    registry = MetricsRegistry()
    for record in sweep.records:
        registry.inc(
            "sweep_jobs_total",
            status=record.status,
            strategy=record.spec.strategy,
        )
        registry.inc("sweep_job_attempts_total", float(record.attempts))
        registry.observe("sweep_job_wall_seconds", record.wall_s)
        if record.ok and record.result is not None:
            registry.observe(
                "sweep_penalty_integral",
                record.result.penalty_integral,
                strategy=record.spec.strategy,
            )
            if record.result.chaos is not None:
                registry.inc(
                    "sweep_chaos_jobs_total",
                    preset=record.spec.chaos_preset or "none",
                )
                if not record.result.invariants_ok():
                    registry.inc(
                        "sweep_chaos_invariant_violations_total",
                        preset=record.spec.chaos_preset or "none",
                    )
    for key, value in sweep.cache_stats.items():
        registry.inc(f"sweep_scenario_cache_{key}_total", float(value))
    stats = merge_optimizer_stats(sweep)
    if stats is not None:
        for key, value in stats.as_dict().items():
            registry.set_gauge(f"optimizer_stats_{key}", value, role="sweep")
    return registry


def build_sweep_manifest(
    sweep: SweepResult, config: Optional[Dict[str, Any]] = None
) -> RunManifest:
    """Provenance for the whole sweep (grid digest in lieu of topology)."""
    manifest = build_manifest("sweep", config=dict(config or {}))
    header = sweep_header(sweep, timing=False)
    manifest.config.setdefault("grid_digest", header["grid_digest"])
    manifest.config.setdefault("jobs_total", header["jobs_total"])
    seeds = sorted({spec.trace_seed for spec in sweep.specs})
    manifest.seeds["trace"] = seeds[0] if len(seeds) == 1 else -1
    return manifest


def summary_lines(sweep: SweepResult) -> List[str]:
    """Human-readable per-(preset, strategy, capacity) penalty summary."""
    groups: Dict[tuple, List[float]] = {}
    for record in sweep.ok_records():
        if record.result is None:
            continue
        spec = record.spec
        label = (
            spec.strategy
            if spec.chaos_preset is None
            else f"chaos[{spec.chaos_preset}]"
        )
        key = (spec.preset, label, spec.capacity)
        groups.setdefault(key, []).append(record.result.penalty_integral)
    lines = [
        f"sweep: {len(sweep.ok_records())}/{len(sweep.records)} jobs ok, "
        f"{sweep.jobs} worker(s), {sweep.wall_s:.2f}s wall",
    ]
    cache = sweep.cache_stats
    if cache:
        lines.append(
            f"scenario cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('misses', 0)} builds"
        )
    for (preset, strategy, capacity), values in sorted(groups.items()):
        mean = ordered_sum(values) / len(values)
        lines.append(
            f"  {preset:>7s} c={capacity:.0%} {strategy:<18s} "
            f"penalty∫ mean={mean:.3e} over {len(values)} seed(s)"
        )
    for record in sweep.failures():
        error = record.error or {}
        lines.append(
            f"  FAILED {record.spec.strategy} "
            f"({error.get('kind', '?')}: {error.get('message', '')})"
        )
    return lines
