"""Scenario presets for the §7 evaluations.

Bundles (topology factory, trace, constraint) the way the paper's
simulations do: medium/large DCN topologies with Oct–Dec-style corruption
traces.  A ``scale`` knob shrinks topologies shape-preservingly so tests
and CI runs stay fast; benchmarks can run closer to paper size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.constraints import CapacityConstraint
from repro.core.penalty import penalty_by_name
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.simulation.engine import MitigationSimulation
from repro.simulation.results import RunResult
from repro.simulation.strategies import (
    STRATEGY_NAMES,
    MitigationStrategy,
    build_strategy,
)
from repro.topology.graph import Topology
from repro.workloads.dcn_profiles import DCNProfile, LARGE_DCN, MEDIUM_DCN
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
    scenario = Scenario(
        name=f"{profile.name}-x{scale}",
        profile=profile,
        scale=scale,
        trace=trace,
        capacity=capacity,
    )
    scenario._base_topo = topo
    return scenario


def medium_scenario(**kwargs) -> Scenario:
    """§7.1's medium DCN (O(15K) links at scale 1.0)."""
    return make_scenario(profile=MEDIUM_DCN, **kwargs)


def large_scenario(**kwargs) -> Scenario:
    """§7.1's large DCN (O(35K) links at scale 1.0)."""
    return make_scenario(profile=LARGE_DCN, **kwargs)


def chaos_scenario(**kwargs) -> Scenario:
    """Medium-DCN preset sized for closed-loop chaos runs.

    The chaos simulation (:mod:`repro.simulation.chaos`) keeps the whole
    telemetry pipeline in the loop — every link direction is polled every
    15 minutes — so a simulated day costs far more than in the
    event-driven engine.  This preset shrinks the horizon and raises the
    event rate so telemetry faults and mitigation decisions interact
    within a short run; everything is overridable.
    """
    defaults = dict(
        profile=MEDIUM_DCN,
        scale=0.12,
        duration_days=4.0,
        events_per_10k_links_per_day=400.0,
    )
    defaults.update(kwargs)
    return make_scenario(**defaults)


@dataclass(frozen=True)
class StrategyFactory:
    """A picklable strategy constructor: ``factory(topo) → strategy``.

    Replaces the closure-based factories so comparison campaigns can ship
    factories to pool workers (``run_comparison(jobs=N)``); with a no-op
    recorder every field pickles.  Live recorders still work for serial
    runs but make the factory unpicklable — the runner rejects that
    combination explicitly.
    """

    name: str
    capacity: float
    obs: Recorder = field(default=NULL_RECORDER, compare=False)
    #: Penalty-function name fed to the strategies that run the global
    #: optimizer.  Previously ``build_strategy``'s default was always
    #: used; the name (not the callable) is stored to stay picklable.
    penalty: str = "linear"
    #: Per-strategy knobs as a sorted (name, value) tuple — hashable and
    #: picklable, unlike a dict on a frozen dataclass.
    knobs: Tuple[Tuple[str, float], ...] = ()

    def __call__(self, topo: Topology) -> MitigationStrategy:
        return build_strategy(
            self.name,
            topo,
            CapacityConstraint(self.capacity),
            penalty_fn=penalty_by_name(self.penalty),
            obs=self.obs,
            knobs=dict(self.knobs) or None,
        )


def standard_strategies(
    capacity: float,
    obs: Recorder = NULL_RECORDER,
) -> Dict[str, StrategyFactory]:
    """The paper's strategy lineup, as factories over a fresh topology."""
    return {
        name: StrategyFactory(name, capacity, obs=obs)
        for name in ("corropt", "fast-checker-only", "switch-local", "none")
    }


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
) -> RunResult:
    """Run one strategy over a scenario on a fresh topology copy.

    Any name from :data:`~repro.simulation.strategies.STRATEGY_NAMES` is
    accepted.  ``lg_coverage`` flags that fraction of links LG-capable on
    the run's private topology copy (the scenario's base stays pristine).
    """
    if strategy_name not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown strategy {strategy_name!r}; "
            f"choose from {list(STRATEGY_NAMES)}"
        )
    factory = StrategyFactory(
        strategy_name,
        scenario.capacity,
        obs=obs,
        penalty=penalty,
        knobs=tuple(sorted(knobs)),
    )
    topo = scenario.topo_factory()
    if lg_coverage:
        topo.assign_lg_capable(lg_coverage)
    strategy = factory(topo)
    sim = MitigationSimulation(
        topo,
        scenario.trace,
        strategy,
        repair_accuracy=repair_accuracy,
        seed=seed,
        track_capacity=track_capacity,
        obs=obs,
    )
    return sim.run()
