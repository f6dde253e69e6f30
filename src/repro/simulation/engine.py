"""The event-driven mitigation simulator (§7.1's experimental apparatus).

Replays a corruption trace against a topology under a mitigation strategy
and a repair model, recording exact (event-resolution) penalty and capacity
time series:

- corruption onsets arrive from the trace; the strategy decides whether to
  disable each newly corrupting link;
- disabled links enter repair; by default the paper's simplified model
  (repaired in 2 days with probability ``repair_accuracy``, else 4 days);
- on every activation the strategy may disable additional corrupting links
  ("Link activations allow other remaining corrupting links to be turned
  off", §5.1);
- optionally, full repair cycles are simulated (Figure 12): a failed
  repair re-enables a still-corrupting link, which is re-detected and
  re-disabled.

Since the kernel unification, :class:`MitigationSimulation` is a thin shim
composing :class:`~repro.simulation.kernel.SimulationKernel` with
:class:`~repro.simulation.kernel.OracleSensing`; the event loop, repair
scheduling and snapshot bookkeeping live in :mod:`repro.simulation.kernel`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.penalty import PenaltyFn, linear_penalty
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.simulation.kernel import DAY_S, OracleSensing, SimulationKernel
from repro.simulation.results import RunResult
from repro.simulation.strategies import MitigationStrategy
from repro.topology.graph import Topology
from repro.workloads.trace import CorruptionTrace

__all__ = [
    "DAY_S",
    "MitigationSimulation",
    "RunResult",
    "run_comparison",
]


class MitigationSimulation:
    """Replay a trace under one strategy (oracle sensing).

    Args:
        topo: Topology (mutated during the run; pass a copy to reuse).
        trace: Corruption-onset trace.
        strategy: Mitigation policy bound to ``topo``.
        repair_accuracy: First-attempt repair success probability (0.8 with
            CorrOpt recommendations, 0.5 without; §7.2).
        service_days: Ticket service time per attempt (§5.2: two days).
        penalty_fn: Penalty function ``I(f)``.
        seed: RNG seed for repair outcomes.
        track_capacity: Record ToR path-fraction series (costs one O(|E|)
            DP per state change).
        full_repair_cycles: Simulate failed repairs as re-enable →
            re-detect → re-disable cycles instead of folding them into a
            doubled service time.
        technician_pool: When set, repairs flow through a FIFO queue
            drained by this many technicians (the paper's observation that
            "the exact time needed for a fix depends on the number of
            tickets in the queue"), instead of the fixed 2-or-4-day model.
            Failed repairs resubmit the ticket for another service round.
        obs: Observability recorder; each processed event emits a span and
            per-kind counters (no-op by default).
    """

    def __init__(
        self,
        topo: Topology,
        trace: CorruptionTrace,
        strategy: MitigationStrategy,
        repair_accuracy: float = 0.8,
        service_days: float = 2.0,
        penalty_fn: PenaltyFn = linear_penalty,
        seed: int = 0,
        track_capacity: bool = True,
        full_repair_cycles: bool = False,
        technician_pool: Optional[int] = None,
        obs: Recorder = NULL_RECORDER,
    ):
        self.topo = topo
        self.trace = trace
        self.strategy = strategy
        self.pipeline = OracleSensing(
            trace,
            strategy,
            penalty_fn=penalty_fn,
            track_capacity=track_capacity,
        )
        self.kernel = SimulationKernel(
            topo,
            duration_s=trace.duration_days * DAY_S,
            pipeline=self.pipeline,
            repair_accuracy=repair_accuracy,
            service_s=service_days * DAY_S,
            seed=seed,
            full_repair_cycles=full_repair_cycles,
            technician_pool=technician_pool,
            obs=obs,
        )

    # Historic surface, delegated to the kernel/pipeline ---------------- #

    @property
    def metrics(self):
        return self.kernel.metrics

    @property
    def rng(self):
        return self.kernel.rng

    @property
    def obs(self):
        return self.kernel.obs

    @property
    def _pool(self):
        return self.kernel._pool

    @property
    def _next_pool_check(self):
        return self.kernel._next_pool_check

    @property
    def _counter(self):
        return self.pipeline._counter

    def run(self) -> RunResult:
        """Execute the full trace; returns the recorded metrics.

        Events are processed to the end of the heap — repairs landing after
        ``trace.duration_days`` still restore the topology — but the metric
        series only record samples inside the run window ``[0, duration]``,
        keeping ``StepSeries.min_value()``/``changes()`` consistent with
        ``penalty_integral`` (which clips to the same window).
        """
        return self.kernel.run()


def _comparison_task(payload) -> RunResult:
    """One strategy's comparison run (module-level so pools can pickle it)."""
    topo_factory, trace, factory, kwargs = payload
    topo = topo_factory()
    strategy = factory(topo)
    sim = MitigationSimulation(topo, trace, strategy, **kwargs)
    return sim.run()


def run_comparison(
    topo_factory,
    trace: CorruptionTrace,
    strategies: Dict[str, "StrategyFactory"],
    repair_accuracy: float = 0.8,
    seed: int = 0,
    track_capacity: bool = True,
    penalty_fn: Optional[PenaltyFn] = None,
    service_days: float = 2.0,
    full_repair_cycles: bool = False,
    technician_pool: Optional[int] = None,
    obs: Recorder = NULL_RECORDER,
    jobs: int = 1,
) -> Dict[str, RunResult]:
    """Run the same trace under several strategies on fresh topology copies.

    Args:
        topo_factory: Zero-arg callable producing a fresh topology.
        trace: Shared corruption trace.
        strategies: Mapping name → callable(topo) → strategy.
        repair_accuracy: Shared repair model (the paper isolates the
            disabling strategy by coupling both methods with the same
            repair effectiveness).
        seed: Shared repair RNG seed.
        track_capacity: Record ToR-fraction series.
        penalty_fn: Penalty function (default linear).
        service_days: Ticket service time per attempt, forwarded to every
            run (§5.2's two days by default).
        full_repair_cycles: Simulate failed repairs as re-enable →
            re-detect → re-disable cycles, forwarded to every run.
        technician_pool: Optional technician-pool size, forwarded to every
            run (ablations that vary the repair model route through here).
        obs: Observability recorder shared by every run (no-op by
            default); per-strategy work is distinguishable by the
            ``strategy`` span attribute.  Live recorders are
            serial-only — they hold process-local state that cannot be
            shipped to workers.
        jobs: Worker processes.  ``1`` (default) preserves the historic
            in-process loop bit-for-bit; ``>1`` fans strategies out via
            :class:`repro.parallel.ParallelRunner`, with results
            reassembled in ``strategies`` iteration order so the mapping
            is identical either way.

    Returns:
        Mapping name → result.
    """
    kwargs = dict(
        repair_accuracy=repair_accuracy,
        seed=seed,
        track_capacity=track_capacity,
        penalty_fn=penalty_fn or linear_penalty,
        service_days=service_days,
        full_repair_cycles=full_repair_cycles,
        technician_pool=technician_pool,
    )
    names = list(strategies)
    if jobs != 1 and len(names) > 1:
        if obs is not NULL_RECORDER:
            raise ValueError(
                "run_comparison(jobs>1) requires the default no-op "
                "recorder; live recorders are process-local"
            )
        from repro.parallel.runner import ParallelRunner

        payloads = [
            (topo_factory, trace, strategies[name], kwargs) for name in names
        ]
        runner = ParallelRunner(jobs=jobs)
        outcomes = runner.map_tasks(_comparison_task, payloads)
        return dict(zip(names, outcomes))

    results: Dict[str, RunResult] = {}
    for name, factory in strategies.items():
        topo = topo_factory()
        strategy = factory(topo)
        sim = MitigationSimulation(topo, trace, strategy, obs=obs, **kwargs)
        with obs.span("sim.run", cat="engine", strategy=name):
            results[name] = sim.run()
    return results


#: Type alias for documentation purposes.
StrategyFactory = object
