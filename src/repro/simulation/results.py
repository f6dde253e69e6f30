"""Unified run results shared by every sensing pipeline.

:class:`RunResult` is the one result type of oracle-sensing
(:func:`repro.simulation.scenarios.run_scenario`) and telemetry-sensing
(:mod:`repro.simulation.chaos`) runs: ``penalty_integral`` /
``mean_penalty`` / ``fingerprint`` / ``invariants_ok`` live here, and the
chaos-only payloads are optional sections that stay ``None`` for oracle
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.optimizer import OptimizerStats
from repro.simulation.metrics import ChaosMetrics, SimulationMetrics


@dataclass
class RunResult:
    """Outcome of one kernel run, whatever the sensing pipeline.

    The chaos sections (``chaos``, ``audit``, ``sanitizer_stats``,
    ``controller_log``) stay ``None`` for oracle runs.
    """

    strategy_name: str = ""
    duration_s: float = 0.0
    metrics: SimulationMetrics = field(default_factory=SimulationMetrics)
    #: Aggregated optimizer search statistics, when the strategy ran the
    #: global optimizer (None for strategies that never invoke it).
    optimizer_stats: Optional[OptimizerStats] = None
    #: Telemetry-sensing extras; ``None`` for oracle-sensing runs.
    chaos: Optional[ChaosMetrics] = None
    audit: object = None
    sanitizer_stats: object = None
    controller_log: object = None
    #: Event-time health report (:class:`repro.obs.health.HealthReport`);
    #: ``None`` for oracle-sensing runs.
    health: object = None
    #: Cause-attribution ledger (:class:`repro.core.diagnosis.
    #: DiagnosisStats`); ``None`` unless the run had a congestion
    #: co-model, a miswiring fault, or a voting localizer — absent on
    #: every historical configuration so legacy artifacts are unchanged.
    diagnosis: object = None

    @property
    def penalty_integral(self) -> float:
        """∫ penalty dt over the run (the Figure-17 comparison quantity)."""
        return self.metrics.total_penalty_integral(self.duration_s)

    def mean_penalty(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.penalty_integral / self.duration_s

    def invariants_ok(self) -> bool:
        """The chaos acceptance invariants (vacuously true without a
        chaos section): never disable on quarantined data, never sink a
        ToR below its capacity threshold."""
        if self.chaos is None:
            return True
        return (
            self.chaos.quarantine_violations == 0
            and self.chaos.capacity_violations == 0
        )

    def fingerprint(self) -> Tuple:
        """Exact metric-series identity for bit-identical comparisons."""
        return (
            tuple(self.metrics.penalty.changes()),
            tuple(self.metrics.worst_tor_fraction.changes()),
            tuple(self.metrics.average_tor_fraction.changes()),
            self.metrics.onsets,
            self.metrics.disabled_on_onset,
            self.metrics.disabled_on_activation,
            self.metrics.repairs_completed,
        )
