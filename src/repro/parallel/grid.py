"""Declarative sweep grids: the `repro sweep` input format.

A :class:`GridSpec` is the §7-style cross-product — presets × strategies
× capacities × trace seeds — plus the scalar knobs shared by every cell.
``expand()`` flattens it into :class:`~repro.parallel.spec.JobSpec`\\ s in
a fixed nesting order (preset, capacity, penalty, strategy, LG coverage,
trace seed), so the same grid always yields the same job list, which is
what makes sweep outputs byte-comparable across worker counts.

Grids parse from CLI flags (comma lists, ``a:b`` integer ranges) or from
a JSON file (the same field names; see DESIGN.md §10).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.parallel.spec import JobSpec


def parse_int_list(text: str) -> List[int]:
    """``"0,3,7"`` → [0, 3, 7]; ``"0:4"`` → [0, 1, 2, 3]."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(part) for part in text.split(",") if part.strip()]


def parse_float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


@dataclass
class GridSpec:
    """A sweep grid; every list axis multiplies the job count.

    ``repair_seeds`` pairs with ``trace_seeds`` positionally when given
    (must be the same length); when omitted, each job derives its repair
    seed from its spec (:func:`~repro.parallel.spec.job_seed`).

    When ``chaos_presets`` is set, the grid expands to ``kind="chaos"``
    jobs (telemetry sensing through the fault-injected monitoring path)
    and the ``chaos_presets`` axis replaces the ``strategies`` axis in
    the nesting order — chaos runs always drive the hardened CorrOpt
    controller, so a strategy axis would be meaningless.
    """

    presets: List[str] = field(default_factory=lambda: ["medium"])
    strategies: List[str] = field(default_factory=lambda: ["corropt"])
    capacities: List[float] = field(default_factory=lambda: [0.75])
    trace_seeds: List[int] = field(default_factory=lambda: [0])
    repair_seeds: Optional[List[int]] = None
    scale: float = 0.25
    duration_days: float = 30.0
    events_per_10k: float = 4.0
    repair_accuracy: float = 0.8
    track_capacity: bool = True
    penalty: str = "linear"
    service_days: float = 2.0
    full_repair_cycles: bool = False
    technician_pool: Optional[int] = None
    chaos_presets: Optional[List[str]] = None
    fault_seed: int = 0
    #: Optional penalty-function *axis*; ``None`` collapses to the scalar
    #: ``penalty`` above so pre-tournament grids expand byte-identically.
    penalties: Optional[List[str]] = None
    #: Optional LG-coverage axis; ``None`` collapses to no LG (0.0).
    lg_coverages: Optional[List[float]] = None
    #: Optional per-strategy knob values, e.g.
    #: ``{"switch-local": {"sc": 0.9}}``; attached to matching jobs.
    strategy_knobs: Optional[Dict[str, Dict[str, float]]] = None
    #: Optional congestion co-model *axis* for chaos grids; ``None``
    #: collapses to no co-model so pre-diagnosis grids expand
    #: byte-identically.
    congestion_presets: Optional[List[str]] = None
    #: Miswired link pairs per chaos job (scalar; 0 = wiring map correct).
    miswire_pairs: int = 0
    #: Sensing pipeline for chaos jobs (``telemetry`` or ``voting``).
    sensing: str = "telemetry"

    def __post_init__(self):
        if self.repair_seeds is not None and len(self.repair_seeds) != len(
            self.trace_seeds
        ):
            raise ValueError(
                "repair_seeds must align 1:1 with trace_seeds "
                f"({len(self.repair_seeds)} vs {len(self.trace_seeds)})"
            )

    def expand(self) -> List[JobSpec]:
        """Flatten to jobs in (preset, capacity, penalty, strategy,
        congestion, lg-coverage, seed) order.

        Chaos grids substitute the chaos-preset axis for the strategy
        axis at the same nesting depth, so both kinds of sweep stay
        byte-comparable across worker counts for the same reason.  The
        penalty and LG-coverage axes collapse to singletons when unset,
        so grids that never touch them expand to the exact job list they
        produced before those axes existed.
        """
        specs: List[JobSpec] = []
        if self.chaos_presets is not None:
            if self.lg_coverages or self.strategy_knobs:
                raise ValueError(
                    "lg_coverages/strategy_knobs do not apply to chaos grids"
                )
            middle_axis = [("chaos", None, name) for name in self.chaos_presets]
        else:
            if (
                self.congestion_presets
                or self.miswire_pairs
                or self.sensing != "telemetry"
            ):
                raise ValueError(
                    "congestion_presets/miswire_pairs/sensing are diagnosis "
                    "axes of chaos grids (set chaos_presets)"
                )
            middle_axis = [
                ("simulate", strategy, None) for strategy in self.strategies
            ]
        penalties = self.penalties if self.penalties else [self.penalty]
        coverages = self.lg_coverages if self.lg_coverages else [0.0]
        # The congestion axis collapses to a single no-co-model cell when
        # unset, so pre-diagnosis grids expand to the exact job list (and
        # derived seeds) they had before the axis existed.
        congestions = (
            self.congestion_presets if self.congestion_presets else [None]
        )
        knob_map = self.strategy_knobs or {}
        for preset in self.presets:
            for capacity in self.capacities:
                for penalty in penalties:
                    for kind, strategy, chaos_name in middle_axis:
                        knobs = tuple(
                            sorted(knob_map.get(strategy or "", {}).items())
                        )
                        for congestion in congestions:
                            for coverage in coverages:
                                for position, trace_seed in enumerate(
                                    self.trace_seeds
                                ):
                                    repair_seed = None
                                    if self.repair_seeds is not None:
                                        repair_seed = self.repair_seeds[
                                            position
                                        ]
                                    specs.append(
                                        JobSpec(
                                            kind=kind,
                                            preset=preset,
                                            scale=self.scale,
                                            duration_days=self.duration_days,
                                            trace_seed=trace_seed,
                                            events_per_10k=(
                                                self.events_per_10k
                                            ),
                                            capacity=capacity,
                                            strategy=strategy or "corropt",
                                            penalty=penalty,
                                            repair_accuracy=(
                                                self.repair_accuracy
                                            ),
                                            repair_seed=repair_seed,
                                            track_capacity=(
                                                self.track_capacity
                                            ),
                                            service_days=self.service_days,
                                            full_repair_cycles=(
                                                self.full_repair_cycles
                                            ),
                                            technician_pool=(
                                                self.technician_pool
                                            ),
                                            chaos_preset=chaos_name,
                                            fault_seed=(
                                                self.fault_seed
                                                if chaos_name is not None
                                                else 0
                                            ),
                                            knobs=knobs,
                                            lg_coverage=coverage,
                                            congestion_preset=congestion,
                                            miswire_pairs=(
                                                self.miswire_pairs
                                                if chaos_name is not None
                                                else 0
                                            ),
                                            sensing=(
                                                self.sensing
                                                if chaos_name is not None
                                                else "telemetry"
                                            ),
                                        )
                                    )
        return specs

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GridSpec":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown grid fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "GridSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def calibration_grid(
    num_jobs: int,
    sleep_ms: float = 0.0,
    spin_ms: float = 0.0,
) -> List[JobSpec]:
    """A grid of identical-cost calibration jobs (harness benchmarks)."""
    return [
        JobSpec(
            kind="calibrate",
            trace_seed=index,  # distinguishes specs (and their tokens)
            knobs=(("sleep_ms", sleep_ms), ("spin_ms", spin_ms)),
        )
        for index in range(num_jobs)
    ]
