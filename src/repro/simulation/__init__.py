"""Event-driven mitigation simulation (§7.1's evaluation apparatus).

One :class:`~repro.simulation.kernel.SimulationKernel` runs every
simulation; each run kind has one builder over it:

- :func:`~repro.simulation.scenarios.run_scenario` — replay a scenario's
  corruption trace under a strategy + repair model, oracle sensing;
- :class:`~repro.simulation.chaos.ChaosSimulation` — the same loop with
  the telemetry pipeline in it (``sim.kernel.run()``);
- strategies: the seven of :data:`~repro.simulation.strategies.STRATEGY_NAMES`;
- :class:`~repro.simulation.metrics.StepSeries` — exact piecewise-constant
  penalty/capacity series;
- scenario presets for the medium/large DCNs.

Tests and tools that need a custom topology or strategy build
``SimulationKernel(topo, duration_s, OracleSensing(trace, strategy))``
directly.
"""

from repro.simulation.chaos import (
    CHAOS_PRESETS,
    ChaosSimulation,
    chaos_preset,
)
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
    make_scenario,
    run_scenario,
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
    "make_scenario",
    "run_scenario",
]
