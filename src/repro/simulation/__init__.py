"""Event-driven mitigation simulation (§7.1's evaluation apparatus).

- :class:`~repro.simulation.engine.MitigationSimulation` — replay a
  corruption trace under a strategy + repair model;
- strategies: CorrOpt, fast-checker-only, switch-local, none, drain;
- :class:`~repro.simulation.metrics.StepSeries` — exact piecewise-constant
  penalty/capacity series;
- scenario presets for the medium/large DCNs.
"""

from repro.simulation.chaos import (
    CHAOS_PRESETS,
    ChaosSimulation,
    chaos_preset,
    run_chaos_scenario,
)
from repro.simulation.engine import MitigationSimulation, run_comparison
from repro.simulation.kernel import (
    EVENT_ONSET,
    EVENT_POLL,
    EVENT_POOL_CHECK,
    EVENT_REPAIR,
    OracleSensing,
    SensingPipeline,
    SimulationKernel,
    TelemetrySensing,
)
from repro.simulation.metrics import ChaosMetrics, SimulationMetrics, StepSeries
from repro.simulation.results import RunResult
from repro.simulation.scenarios import (
    Scenario,
    chaos_scenario,
    large_scenario,
    make_scenario,
    medium_scenario,
    run_scenario,
    standard_strategies,
)
from repro.simulation.strategies import (
    CorrOptStrategy,
    DrainStrategy,
    FastCheckerOnlyStrategy,
    MitigationStrategy,
    NoMitigationStrategy,
    SwitchLocalStrategy,
)

__all__ = [
    "CHAOS_PRESETS",
    "EVENT_ONSET",
    "EVENT_POLL",
    "EVENT_POOL_CHECK",
    "EVENT_REPAIR",
    "ChaosMetrics",
    "ChaosSimulation",
    "CorrOptStrategy",
    "DrainStrategy",
    "FastCheckerOnlyStrategy",
    "MitigationSimulation",
    "MitigationStrategy",
    "NoMitigationStrategy",
    "OracleSensing",
    "RunResult",
    "Scenario",
    "SensingPipeline",
    "SimulationKernel",
    "SimulationMetrics",
    "StepSeries",
    "SwitchLocalStrategy",
    "TelemetrySensing",
    "chaos_preset",
    "chaos_scenario",
    "large_scenario",
    "make_scenario",
    "medium_scenario",
    "run_chaos_scenario",
    "run_comparison",
    "run_scenario",
    "standard_strategies",
]
