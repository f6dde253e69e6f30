"""Fleet campaigns: the paper's 15-DCN, ~350K-link study footprint.

§2 measures 15 production data centers ranging from ~4K to ~50K links
(350K monitored links in total); corruption prevalence, topology family,
and breakout-cable usage all vary across them.  ``repro fleet`` turns
that population into one deterministic campaign: one simulation job per
DCN — mixed plane-wired Clos and fat-tree topologies, a breakout-cable
fraction on some DCNs, per-DCN fault intensities spread with Table 1's
corruption-share profile — fanned out through the parallel runner and
written as canonical JSONL:
the standard sweep header and per-DCN ``result`` rows, plus one
``type="fleet"`` roll-up row with per-DCN health columns.

Determinism contract: every row is a pure function of the specs (seeds
are spec-derived), so ``--jobs 1`` and ``--jobs N`` produce
byte-identical files under ``--no-timing`` — the `fleet-determinism` CI
gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.penalty import ordered_sum
from repro.parallel.runner import ParallelRunner, SweepResult
from repro.parallel.spec import JobSpec
from repro.parallel.aggregate import sweep_rows
from repro.workloads.dcn_profiles import DCNProfile, study_profiles
from repro.workloads.generator import DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY
from repro.workloads.rates import TABLE1_CORRUPTION_SHARES

#: Study-DCN indexes built as fat-trees instead of plane-wired Clos
#: (§2's population is not architecturally uniform).
_FATTREE_INDEXES = frozenset({2, 7, 12})

#: Study-DCN indexes with breakout cabling, and the fraction of links
#: grouped into cables there (§4 root cause 5: breakout-heavy plants
#: show the weak spatial locality of corruption).
_BREAKOUT_INDEXES = frozenset({1, 5, 9, 13})
_BREAKOUT_FRACTION = 0.25


@dataclass(frozen=True)
class FleetDCN:
    """One data center of the fleet: shape plus calibrated workload.

    Attributes:
        profile: Parametric Clos shape (also sizes the fat-tree stand-in
            via :func:`~repro.simulation.scenarios.fattree_arity`).
        topo_kind: ``"clos"`` or ``"fattree"``.
        breakout_fraction: Fraction of links grouped into breakout
            cables on this DCN's topology.
        events_per_10k: Fault arrival intensity (events/10K links/day),
            calibrated per DCN.
    """

    profile: DCNProfile
    topo_kind: str = "clos"
    breakout_fraction: float = 0.0
    events_per_10k: float = DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def design_links(self) -> int:
        """Link count at the paper footprint (scale 1.0)."""
        if self.topo_kind == "fattree":
            from repro.simulation.scenarios import fattree_arity

            k = fattree_arity(self.profile, 1.0)
            return k**3 // 2
        return self.profile.approx_links


def fleet_dcns(count: int = 15) -> List[FleetDCN]:
    """The heterogeneous fleet: ``count`` study DCNs with mixed builds.

    Per-DCN fault intensities cycle through Table 1's corruption-share
    buckets so prevalence varies across the population the way §2
    observes, while staying a pure function of the DCN index.
    """
    profiles = study_profiles()
    if not 1 <= count <= len(profiles):
        raise ValueError(
            f"fleet size must be in [1, {len(profiles)}], got {count}"
        )
    dcns: List[FleetDCN] = []
    for index, profile in enumerate(profiles[:count]):
        share = TABLE1_CORRUPTION_SHARES[index % 4]
        dcns.append(
            FleetDCN(
                profile=profile,
                topo_kind=(
                    "fattree" if index in _FATTREE_INDEXES else "clos"
                ),
                breakout_fraction=(
                    _BREAKOUT_FRACTION if index in _BREAKOUT_INDEXES else 0.0
                ),
                events_per_10k=round(
                    DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY
                    * (0.5 + 3.0 * share),
                    3,
                ),
            )
        )
    return dcns


def fleet_specs(
    dcns: Sequence[FleetDCN],
    scale: float = 0.1,
    duration_days: float = 30.0,
    trace_seed: int = 0,
    capacity: float = 0.75,
    strategy: str = "corropt",
    repair_accuracy: float = 0.8,
) -> List[JobSpec]:
    """One simulate job per DCN, in fleet order."""
    specs: List[JobSpec] = []
    for dcn in dcns:
        profile = dcn.profile
        specs.append(
            JobSpec(
                kind="simulate",
                profile_shape=(
                    profile.name,
                    profile.num_pods,
                    profile.tors_per_pod,
                    profile.aggs_per_pod,
                    profile.num_spines,
                ),
                scale=scale,
                duration_days=duration_days,
                trace_seed=trace_seed,
                events_per_10k=dcn.events_per_10k,
                capacity=capacity,
                strategy=strategy,
                repair_accuracy=repair_accuracy,
                topo_kind=dcn.topo_kind,
                breakout_fraction=dcn.breakout_fraction,
            )
        )
    return specs


def run_fleet(
    dcns: Optional[Sequence[FleetDCN]] = None,
    scale: float = 0.1,
    duration_days: float = 30.0,
    trace_seed: int = 0,
    capacity: float = 0.75,
    strategy: str = "corropt",
    jobs: int = 1,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
) -> Tuple[SweepResult, List[FleetDCN]]:
    """Run the fleet campaign; returns (sweep, the fleet definition)."""
    dcns = list(dcns) if dcns is not None else fleet_dcns()
    specs = fleet_specs(
        dcns,
        scale=scale,
        duration_days=duration_days,
        trace_seed=trace_seed,
        capacity=capacity,
        strategy=strategy,
    )
    runner = ParallelRunner(
        jobs=jobs, max_retries=max_retries, timeout_s=timeout_s
    )
    return runner.run(specs), dcns


def _dcn_column(
    dcn: FleetDCN, record, capacity: float
) -> Dict[str, Any]:
    """One DCN's health-column entry for the roll-up row."""
    column: Dict[str, Any] = {
        "dcn": dcn.name,
        "topo_kind": dcn.topo_kind,
        "breakout_fraction": dcn.breakout_fraction,
        "events_per_10k": dcn.events_per_10k,
        "links_design": dcn.design_links,
        "status": record.status,
    }
    if record.ok and record.result is not None:
        result = record.result
        metrics = result.metrics
        worst_min = metrics.worst_tor_fraction.min_value()
        column.update(
            {
                "penalty_integral": result.penalty_integral,
                "mean_penalty": result.mean_penalty(),
                "onsets": metrics.onsets,
                "disabled_on_onset": metrics.disabled_on_onset,
                "repairs_completed": metrics.repairs_completed,
                "failed_repairs": metrics.failed_repairs,
                "worst_tor_fraction_min": worst_min,
                # Healthy = the capacity floor held for every ToR at all
                # times; a breach marks the DCN degraded in the roll-up.
                "healthy": bool(worst_min >= capacity),
            }
        )
    else:
        column["healthy"] = False
    return column


def fleet_rollup_row(
    sweep: SweepResult, dcns: Sequence[FleetDCN]
) -> Dict[str, Any]:
    """The canonical ``type="fleet"`` roll-up row."""
    if len(sweep.records) != len(dcns):
        raise ValueError(
            f"{len(dcns)} DCNs but {len(sweep.records)} records"
        )
    per_dcn = [
        _dcn_column(dcn, record, record.spec.capacity)
        for dcn, record in zip(dcns, sweep.records)
    ]
    ok = [col for col in per_dcn if col["status"] == "ok"]
    worst: Optional[Dict[str, Any]] = None
    for col in ok:
        if worst is None or (
            col["worst_tor_fraction_min"] < worst["worst_tor_fraction_min"]
        ):
            worst = col
    row: Dict[str, Any] = {
        "type": "fleet",
        "dcns": len(dcns),
        "ok": len(ok),
        "failed": len(per_dcn) - len(ok),
        "links_design_total": sum(col["links_design"] for col in per_dcn),
        "penalty_integral_total": ordered_sum(
            col["penalty_integral"] for col in ok
        ),
        "onsets_total": sum(col["onsets"] for col in ok),
        "repairs_total": sum(col["repairs_completed"] for col in ok),
        "health": {
            "healthy_dcns": sum(1 for col in per_dcn if col["healthy"]),
            "degraded_dcns": sum(
                1
                for col in per_dcn
                if col["status"] == "ok" and not col["healthy"]
            ),
            "failed_dcns": len(per_dcn) - len(ok),
            "worst_dcn": worst["dcn"] if worst else None,
            "worst_tor_fraction_min": (
                worst["worst_tor_fraction_min"] if worst else None
            ),
        },
        "per_dcn": per_dcn,
    }
    return row


def fleet_rows(
    sweep: SweepResult, dcns: Sequence[FleetDCN], timing: bool = True
) -> List[Dict[str, Any]]:
    """Header + per-DCN result rows (tagged ``dcn``) + the roll-up row."""
    rows = sweep_rows(sweep, timing=timing)
    for row, dcn in zip(rows[1:], dcns):
        row["dcn"] = dcn.name
    rows.append(fleet_rollup_row(sweep, dcns))
    return rows


def write_fleet_jsonl(
    path: Union[str, Path],
    sweep: SweepResult,
    dcns: Sequence[FleetDCN],
    timing: bool = True,
) -> Path:
    """Write the fleet campaign as canonical JSONL."""
    path = Path(path)
    lines = [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in fleet_rows(sweep, dcns, timing=timing)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fleet_summary_lines(
    sweep: SweepResult, dcns: Sequence[FleetDCN]
) -> List[str]:
    """Human-readable fleet table (the `repro fleet` stdout)."""
    rollup = fleet_rollup_row(sweep, dcns)
    lines = [
        f"fleet: {rollup['ok']}/{rollup['dcns']} DCNs ok, "
        f"{rollup['links_design_total']:,} design links, "
        f"{sweep.jobs} worker(s), {sweep.wall_s:.2f}s wall",
    ]
    for col in rollup["per_dcn"]:
        shape = col["topo_kind"]
        if col["breakout_fraction"]:
            shape += f"+breakout({col['breakout_fraction']:.0%})"
        if col["status"] != "ok":
            lines.append(f"  {col['dcn']:>6s} {shape:<22s} FAILED")
            continue
        health = "healthy" if col["healthy"] else "DEGRADED"
        lines.append(
            f"  {col['dcn']:>6s} {shape:<22s} "
            f"links≈{col['links_design']:>6d} "
            f"onsets={col['onsets']:>4d} "
            f"worst-ToR={col['worst_tor_fraction_min']:.3f} "
            f"penalty∫={col['penalty_integral']:.3e} {health}"
        )
    health = rollup["health"]
    lines.append(
        f"  fleet health: {health['healthy_dcns']} healthy, "
        f"{health['degraded_dcns']} degraded, "
        f"{health['failed_dcns']} failed; worst DCN "
        f"{health['worst_dcn']} at {health['worst_tor_fraction_min']}"
    )
    return lines
