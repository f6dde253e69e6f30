"""Scenario presets for the §7 evaluations.

Bundles (topology factory, trace, constraint) the way the paper's
simulations do: medium/large DCN topologies with Oct–Dec-style corruption
traces.  A ``scale`` knob shrinks topologies shape-preservingly so tests
and CI runs stay fast; benchmarks can run closer to paper size.

:func:`run_scenario` is the one builder of an oracle-sensing run: it
pairs :class:`~repro.simulation.kernel.OracleSensing` with
:class:`~repro.simulation.kernel.SimulationKernel` for the pool worker
(which ``repro simulate`` runs too) and every campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.constraints import CapacityConstraint
from repro.core.penalty import penalty_by_name
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.simulation.kernel import DAY_S, OracleSensing, SimulationKernel
from repro.simulation.results import RunResult
from repro.simulation.strategies import build_strategy
from repro.topology.graph import Topology
from repro.workloads.dcn_profiles import DCNProfile, MEDIUM_DCN
from repro.workloads.generator import deduplicate_active, generate_trace
from repro.workloads.trace import CorruptionTrace


@dataclass
class Scenario:
    """A reproducible evaluation setting.

    Attributes:
        name: Scenario label.
        profile: DCN shape.
        scale: Topology scale factor.
        trace: Corruption trace generated for the scaled topology.
        capacity: Default per-ToR constraint (the paper's realistic regime
            is 75%).
    """

    name: str
    profile: DCNProfile
    scale: float
    trace: CorruptionTrace
    capacity: float = 0.75

    _base_topo: Topology = None  # type: ignore[assignment]

    def topo_factory(self) -> Topology:
        """A fresh, pristine copy of the scenario topology."""
        return self._base_topo.copy()

    def constraint(self) -> CapacityConstraint:
        return CapacityConstraint(self.capacity)


def fattree_arity(profile: DCNProfile, scale: float = 1.0) -> int:
    """The fat-tree ``k`` standing in for a Clos profile at ``scale``.

    Chosen so the fat-tree's pod count tracks the scaled profile's —
    the same knob :meth:`DCNProfile.build` scales — clamped to the
    smallest legal even arity.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    k = max(4, int(round(profile.num_pods * scale)))
    return k + (k % 2)


def make_scenario(
    profile: DCNProfile = MEDIUM_DCN,
    scale: float = 0.25,
    duration_days: float = 30.0,
    seed: int = 0,
    capacity: float = 0.75,
    events_per_10k_links_per_day: float = 4.0,
    dedup: bool = True,
    topo_kind: str = "clos",
    breakout_fraction: float = 0.0,
) -> Scenario:
    """Build a scenario: scaled topology + corruption trace.

    By default traces are deduplicated so each link has at most one
    outstanding fault, matching the simulator's link-lifecycle model;
    ``dedup=False`` keeps the raw generator output (the technician-pool
    ablation stresses overlapping tickets).  This is the single build
    path shared by in-process campaigns and pool workers
    (:mod:`repro.parallel.worker`).

    ``topo_kind="fattree"`` swaps the plane-wired Clos for a k-ary
    fat-tree sized via :func:`fattree_arity`; ``breakout_fraction`` > 0
    groups that fraction of links into breakout cables (deterministic
    assignment) so fleet campaigns model §4's root cause 5.
    """
    if topo_kind == "clos":
        topo = profile.build(scale=scale)
    elif topo_kind == "fattree":
        from repro.topology.fattree import build_fattree

        topo = build_fattree(fattree_arity(profile, scale), name=profile.name)
    else:
        raise ValueError(f"unknown topo_kind {topo_kind!r}")
    if breakout_fraction > 0.0:
        from repro.topology.breakout import assign_breakout_groups

        # Two links per cable: the study DCNs' per-switch fanouts are
        # modest enough that 4-wide cables would never form at their
        # default fractions.
        assign_breakout_groups(
            topo, fraction=breakout_fraction, links_per_cable=2
        )
    trace = generate_trace(
        topo,
        duration_days=duration_days,
        seed=seed,
        events_per_10k_links_per_day=events_per_10k_links_per_day,
    )
    if dedup:
        trace = deduplicate_active(trace)
    return Scenario(
        name=f"{profile.name}-x{scale}",
        profile=profile,
        scale=scale,
        trace=trace,
        capacity=capacity,
        _base_topo=topo,
    )


def chaos_scenario(**kwargs) -> Scenario:
    """Medium-DCN preset sized for closed-loop chaos runs.

    The chaos simulation (:mod:`repro.simulation.chaos`) keeps the whole
    telemetry pipeline in the loop — every link direction is polled every
    15 minutes — so a simulated day costs far more than under oracle
    sensing (:func:`run_scenario`).  This preset shrinks the horizon and
    raises the event rate so telemetry faults and mitigation decisions
    interact within a short run; everything is overridable.
    """
    defaults = dict(
        profile=MEDIUM_DCN,
        scale=0.12,
        duration_days=4.0,
        events_per_10k_links_per_day=400.0,
    )
    defaults.update(kwargs)
    return make_scenario(**defaults)


def run_scenario(
    scenario: Scenario,
    strategy_name: str = "corropt",
    repair_accuracy: float = 0.8,
    seed: int = 0,
    track_capacity: bool = True,
    obs: Recorder = NULL_RECORDER,
    lg_coverage: float = 0.0,
    penalty: str = "linear",
    knobs: Tuple[Tuple[str, float], ...] = (),
    service_days: float = 2.0,
    full_repair_cycles: bool = False,
    technician_pool: Optional[int] = None,
) -> RunResult:
    """Run one strategy over a scenario on a fresh topology copy.

    The one place an oracle-sensing run is assembled: the pool worker
    (``repro simulate`` and every sweep) and every campaign come through
    here.  Any name from
    :data:`~repro.simulation.strategies.STRATEGY_NAMES` is accepted.

    Args:
        scenario: Topology + trace + capacity.
        strategy_name: Mitigation policy.
        repair_accuracy: First-attempt repair success probability (0.8
            with CorrOpt recommendations, 0.5 without; §7.2).
        seed: Repair RNG seed.
        track_capacity: Record the ToR path-fraction series.
        obs: Observability recorder (no-op by default).
        lg_coverage: Fraction of links flagged LG-capable on the run's
            private topology copy (the scenario's base stays pristine).
        penalty: Penalty-function name ``I(f)``: the optimizer-driven
            strategies minimize it and the run integrates it.
        knobs: Per-strategy knobs as ``(name, value)`` pairs.
        service_days: Ticket service time per attempt (§5.2: two days).
        full_repair_cycles: Simulate failed repairs as re-enable →
            re-detect → re-disable cycles (Figure 12) instead of folding
            them into a doubled service time.
        technician_pool: When set, repairs flow through a FIFO queue
            drained by this many technicians instead of the fixed
            2-or-4-day model.
    """
    topo = scenario.topo_factory()
    if lg_coverage:
        topo.assign_lg_capable(lg_coverage)
    penalty_fn = penalty_by_name(penalty)
    strategy = build_strategy(
        strategy_name,
        topo,
        scenario.constraint(),
        penalty_fn=penalty_fn,
        obs=obs,
        knobs=dict(knobs) or None,
    )
    kernel = SimulationKernel(
        topo,
        duration_s=scenario.trace.duration_days * DAY_S,
        pipeline=OracleSensing(
            scenario.trace,
            strategy,
            penalty_fn=penalty_fn,
            track_capacity=track_capacity,
        ),
        repair_accuracy=repair_accuracy,
        service_s=service_days * DAY_S,
        seed=seed,
        full_repair_cycles=full_repair_cycles,
        technician_pool=technician_pool,
        obs=obs,
    )
    return kernel.run()
