"""Deterministic parallel campaign execution (DESIGN.md §10).

The §7 evaluation is a sweep — presets × capacities × strategies ×
seeds — and every cell is embarrassingly parallel: a fresh topology
copy, a shared immutable trace, an explicit seed.  This package turns
that structure into a process-pool execution layer whose results are
bit-identical at any worker count:

- :class:`~repro.parallel.spec.JobSpec` — picklable job descriptions
  with spec-derived seeds (:func:`~repro.parallel.spec.job_seed`);
- :class:`~repro.parallel.runner.ParallelRunner` — serial and
  process-pool backends, bounded crash retry, and a hang watchdog; a
  worker builds each scenario (topology + trace) on first touch and
  serves later jobs of the same scenario from its LRU;
- :class:`~repro.parallel.grid.GridSpec` — the declarative `repro
  sweep` grid format;
- :mod:`~repro.parallel.aggregate` — canonical JSONL output, merged
  optimizer stats and metrics, provenance manifests.
"""

from repro.parallel.aggregate import (
    build_sweep_manifest,
    merge_optimizer_stats,
    record_row,
    series_digest,
    summary_lines,
    sweep_registry,
    sweep_rows,
    write_sweep_jsonl,
)
from repro.parallel.grid import (
    GridSpec,
    calibration_grid,
    parse_float_list,
    parse_int_list,
)
from repro.parallel.runner import (
    ParallelRunner,
    SweepResult,
    available_cpus,
    run_sweep,
)
from repro.parallel.fleet import (
    FleetDCN,
    fleet_dcns,
    fleet_rollup_row,
    fleet_rows,
    fleet_specs,
    fleet_summary_lines,
    run_fleet,
    write_fleet_jsonl,
)
from repro.parallel.spec import JobSpec, job_seed
from repro.parallel.tournament import (
    TOURNAMENT_STRATEGIES,
    leaderboard_lines,
    leaderboard_rows,
    run_tournament,
    tournament_grid,
    tournament_rows,
    write_tournament_jsonl,
)
from repro.parallel.worker import (
    JobRecord,
    ScenarioCache,
    execute_job,
    worker_cache,
)

__all__ = [
    "FleetDCN",
    "GridSpec",
    "JobRecord",
    "JobSpec",
    "ParallelRunner",
    "ScenarioCache",
    "SweepResult",
    "TOURNAMENT_STRATEGIES",
    "available_cpus",
    "build_sweep_manifest",
    "calibration_grid",
    "execute_job",
    "fleet_dcns",
    "fleet_rollup_row",
    "fleet_rows",
    "fleet_specs",
    "fleet_summary_lines",
    "job_seed",
    "leaderboard_lines",
    "leaderboard_rows",
    "merge_optimizer_stats",
    "parse_float_list",
    "parse_int_list",
    "record_row",
    "run_fleet",
    "run_sweep",
    "run_tournament",
    "series_digest",
    "summary_lines",
    "sweep_registry",
    "sweep_rows",
    "tournament_grid",
    "tournament_rows",
    "worker_cache",
    "write_fleet_jsonl",
    "write_sweep_jsonl",
]
