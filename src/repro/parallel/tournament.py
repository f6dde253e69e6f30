"""Tournament campaigns: every mitigation strategy head-to-head.

A tournament is a sweep with a fixed shape — presets × capacities ×
penalty functions × LG coverages × *all* strategies × trace seeds — whose
output appends canonical ``leaderboard`` rows to the standard sweep JSONL:
within each (preset, capacity, penalty, lg_coverage) group, strategies are
ranked by mean penalty integral across trace seeds, ascending (lower
penalty wins).

Determinism contract: leaderboard rows are computed from records in spec
order and written with the same canonical JSON encoding as every other
row, so a tournament file is byte-identical across worker counts — the
``tournament-determinism`` CI gate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.penalty import ordered_sum
from repro.parallel.aggregate import sweep_rows
from repro.parallel.grid import GridSpec
from repro.parallel.runner import ParallelRunner, SweepResult
from repro.simulation.strategies import STRATEGY_NAMES

#: The default lineup: every constructible strategy.
TOURNAMENT_STRATEGIES: Tuple[str, ...] = STRATEGY_NAMES


def tournament_grid(
    presets: Optional[List[str]] = None,
    capacities: Optional[List[float]] = None,
    penalties: Optional[List[str]] = None,
    lg_coverages: Optional[List[float]] = None,
    strategies: Optional[List[str]] = None,
    trace_seeds: Optional[List[int]] = None,
    scale: float = 0.25,
    duration_days: float = 30.0,
    events_per_10k: float = 4.0,
    repair_accuracy: float = 0.8,
    strategy_knobs: Optional[Dict[str, Dict[str, float]]] = None,
) -> GridSpec:
    """The tournament cross-product as a plain :class:`GridSpec`.

    Defaults cover both regimes: c=0.75 is the paper's realistic
    constraint, where CorrOpt can afford to disable every corrupting
    link; c=0.90 is the tight-headroom regime where CorrOpt is forced
    to keep corrupting links active and LinkGuardian's masking wins.
    """
    return GridSpec(
        presets=presets or ["medium", "large"],
        strategies=list(strategies or TOURNAMENT_STRATEGIES),
        capacities=capacities or [0.75, 0.9],
        trace_seeds=trace_seeds or [0],
        scale=scale,
        duration_days=duration_days,
        events_per_10k=events_per_10k,
        repair_accuracy=repair_accuracy,
        penalties=penalties or ["linear", "tcp-throughput"],
        lg_coverages=lg_coverages if lg_coverages is not None else [0.9],
        strategy_knobs=strategy_knobs,
    )


def run_tournament(
    grid: GridSpec,
    jobs: int = 1,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
) -> SweepResult:
    """Expand and execute a tournament grid deterministically."""
    runner = ParallelRunner(
        jobs=jobs, max_retries=max_retries, timeout_s=timeout_s
    )
    return runner.run(grid.expand())


def _group_key(spec) -> Tuple[str, float, str, float]:
    return (spec.preset, spec.capacity, spec.penalty, spec.lg_coverage)


def leaderboard_rows(sweep: SweepResult) -> List[Dict[str, Any]]:
    """Canonical ``type="leaderboard"`` rows, one per scenario group.

    Within a group each strategy's penalty integrals (one per trace
    seed) are averaged in spec order; entries are ranked ascending by
    (mean, strategy name), so ties break deterministically.
    """
    groups: "Dict[Tuple, Dict[str, List[float]]]" = {}
    for record in sweep.ok_records():
        if record.result is None or record.spec.kind != "simulate":
            continue
        key = _group_key(record.spec)
        by_strategy = groups.setdefault(key, {})
        by_strategy.setdefault(record.spec.strategy, []).append(
            record.result.penalty_integral
        )
    rows: List[Dict[str, Any]] = []
    for key in sorted(groups):
        preset, capacity, penalty, lg_coverage = key
        ranked = sorted(
            (
                (ordered_sum(values) / len(values), strategy, len(values))
                for strategy, values in groups[key].items()
            ),
            key=lambda item: (item[0], item[1]),
        )
        rows.append(
            {
                "type": "leaderboard",
                "preset": preset,
                "capacity": capacity,
                "penalty": penalty,
                "lg_coverage": lg_coverage,
                "entries": [
                    {
                        "rank": position + 1,
                        "strategy": strategy,
                        "mean_penalty_integral": mean,
                        "runs": runs,
                    }
                    for position, (mean, strategy, runs) in enumerate(ranked)
                ],
            }
        )
    return rows


def tournament_rows(
    sweep: SweepResult, timing: bool = True
) -> List[Dict[str, Any]]:
    """Header + result rows + leaderboard rows, in canonical order."""
    return sweep_rows(sweep, timing=timing) + leaderboard_rows(sweep)


def write_tournament_jsonl(
    path: Union[str, Path], sweep: SweepResult, timing: bool = True
) -> Path:
    """Write the tournament as canonical JSONL (sweep format + leaderboards)."""
    path = Path(path)
    lines = [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in tournament_rows(sweep, timing=timing)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def leaderboard_lines(sweep: SweepResult) -> List[str]:
    """Human-readable leaderboard (the `repro tournament` stdout)."""
    lines: List[str] = []
    for row in leaderboard_rows(sweep):
        lines.append(
            f"{row['preset']} c={row['capacity']:.0%} "
            f"penalty={row['penalty']} lg={row['lg_coverage']:.0%}"
        )
        for entry in row["entries"]:
            lines.append(
                f"  {entry['rank']}. {entry['strategy']:<18s} "
                f"penalty∫ mean={entry['mean_penalty_integral']:.3e} "
                f"over {entry['runs']} run(s)"
            )
    if sweep.failures():
        lines.append(f"  ({len(sweep.failures())} job(s) failed)")
    return lines
