"""Closed-loop chaos simulation: CorrOpt with telemetry in the loop.

Oracle sensing (:func:`repro.simulation.scenarios.run_scenario`) hands
ground-truth corruption onsets straight to the strategy — it answers "how
good are the decisions when the inputs are perfect?".  This module answers
the harder question: **how does CorrOpt behave when its inputs lie?**

Here nothing reaches the controller except through the monitoring path:

    trace onsets → topology ground truth → SNMP counters →
    (fault-injected transport) → sanitizer → store →
    detection → hardened controller → disable / fail-safe keep

Poll-driven, 15-minute granularity.  Telemetry faults (missed polls,
wraps, resets, freezes, duplicates, delays) are injected by a
:class:`~repro.faults.telemetry_faults.FaultyTransport`; the sanitizer
rates every sample and quarantines flaky directions; the hardened
controller refuses to disable on quarantined data.

Determinism contract: with a fault config whose rates are all zero (or no
config at all) the run is bit-identical to the fault-free run — the chaos
apparatus itself must not perturb the system it observes.

:class:`ChaosSimulation` is the one builder of a batch telemetry run: it
pairs :class:`~repro.simulation.kernel.SimulationKernel` with
:class:`~repro.simulation.kernel.TelemetrySensing` (or flow voting) and
exposes both as ``kernel`` and ``pipeline``; ``sim.kernel.run()`` runs it.
Polls are scheduled heap events on the shared kernel.  The continuous
service (:mod:`repro.service`) builds through it too, handing in its
queue-fed pipeline, so a serve run and a chaos run of the same seed see
the same world.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, Optional

from repro.congestion.presets import congestion_model
from repro.faults.miswiring import MiswiringFault
from repro.faults.telemetry_faults import TelemetryFaultConfig
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.registry import require
from repro.simulation.kernel import DAY_S, SimulationKernel, TelemetrySensing
from repro.simulation.scenarios import Scenario
from repro.simulation.voting import FlowVotingSensing

#: Deterministic offsets separating the congestion / miswiring RNG
#: streams from the repair stream derived from the same run seed.
_CONGESTION_SEED_OFFSET = 7919
_MISWIRE_SEED_OFFSET = 104729

__all__ = [
    "CHAOS_PRESETS",
    "ChaosSimulation",
    "chaos_preset",
]


class ChaosSimulation:
    """Replay a scenario's trace with the telemetry pipeline in the loop.

    Args:
        scenario: Topology + trace + capacity preset.
        fault_config: Telemetry fault rates (``None`` = clean monitoring).
        repair_accuracy: First-attempt repair success probability (failed
            first attempts fold into a doubled stay, as under oracle
            sensing).
        service_days: Ticket service time per attempt.
        seed: Seed for the repair RNG (independent of the telemetry fault
            RNG so fault injection never perturbs repair outcomes).
        congestion_preset: Named congestion co-model
            (:data:`repro.congestion.presets.CONGESTION_PRESETS`);
            ``None`` / ``"none"`` keeps runs byte-identical to the
            pre-diagnosis pipeline.  The model is seeded from the run
            seed plus a fixed offset, so congestion never perturbs the
            repair RNG stream.
        miswire_pairs: Disjoint link pairs whose telemetry attribution
            is swapped (A3-style wrong inventory map), seeded the same
            way; 0 disables the fault and the probe cross-check with it.
        sensing: ``"telemetry"`` (counter-driven detection) or
            ``"voting"`` (the 007-style flow-voting localizer,
            :class:`~repro.simulation.voting.FlowVotingSensing`).
        obs: Observability recorder threaded through the whole closed loop
            (poller, sanitizer, controller, optimizer).  The default
            :data:`~repro.obs.recorder.NULL_RECORDER` preserves the
            determinism contract above bit-for-bit.
        pipeline_factory: Builds the pipeline in place of ``sensing``, as
            ``factory(trace, constraint, fault_config=, congestion_model=,
            miswiring=)``; the service hands in its ``ServiceSensing``.
    """

    def __init__(
        self,
        scenario: Scenario,
        fault_config: Optional[TelemetryFaultConfig] = None,
        repair_accuracy: float = 0.8,
        service_days: float = 2.0,
        seed: int = 0,
        congestion_preset: Optional[str] = None,
        miswire_pairs: int = 0,
        sensing: str = "telemetry",
        obs: Recorder = NULL_RECORDER,
        pipeline_factory: Optional[Callable[..., TelemetrySensing]] = None,
    ):
        require("sensing", sensing)
        topo = scenario.topo_factory()
        cmodel = None
        if congestion_preset is not None:
            cmodel = congestion_model(
                congestion_preset, topo, seed=seed + _CONGESTION_SEED_OFFSET
            )
        miswiring = None
        if miswire_pairs:
            miswiring = MiswiringFault.sample(
                topo, miswire_pairs, seed=seed + _MISWIRE_SEED_OFFSET
            )
        if pipeline_factory is None:
            pipeline_factory = (
                partial(FlowVotingSensing, vote_seed=seed)
                if sensing == "voting"
                else TelemetrySensing
            )
        self.pipeline = pipeline_factory(
            scenario.trace,
            scenario.constraint(),
            fault_config=fault_config,
            congestion_model=cmodel,
            miswiring=miswiring,
        )
        self.kernel = SimulationKernel(
            topo,
            duration_s=scenario.trace.duration_days * DAY_S,
            pipeline=self.pipeline,
            repair_accuracy=repair_accuracy,
            service_s=service_days * DAY_S,
            seed=seed,
            obs=obs,
        )


#: Named fault presets for the CLI and CI chaos-fuzz job.
CHAOS_PRESETS: Dict[str, TelemetryFaultConfig] = {
    "none": TelemetryFaultConfig(),
    "mild": TelemetryFaultConfig(
        missed_poll_rate=0.01,
        duplicate_rate=0.005,
        delay_rate=0.005,
        optical_garbage_rate=0.01,
    ),
    "harsh": TelemetryFaultConfig(
        missed_poll_rate=0.10,
        reset_rate=0.002,
        freeze_rate=0.01,
        duplicate_rate=0.02,
        delay_rate=0.02,
        wrap_32bit=True,
        optical_garbage_rate=0.05,
    ),
    "reboot-storm": TelemetryFaultConfig(reset_rate=0.02),
    "flaky-collector": TelemetryFaultConfig(
        missed_poll_rate=0.25, duplicate_rate=0.05, delay_rate=0.05
    ),
}


def chaos_preset(name: str, seed: int = 0) -> TelemetryFaultConfig:
    """Look up a preset by name, re-seeded (an unknown name is
    :func:`~repro.registry.require`'s error)."""
    require("chaos_preset", name)
    return replace(CHAOS_PRESETS[name], seed=seed)
