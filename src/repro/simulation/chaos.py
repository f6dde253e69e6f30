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
service (:mod:`repro.service`) builds its own pipeline but takes its
diagnosis layers from :func:`diagnosis_layers`, so a serve run and a chaos
run of the same seed see the same world.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.congestion.losses import CongestionModel
from repro.congestion.presets import congestion_model
from repro.faults.miswiring import MiswiringFault
from repro.faults.telemetry_faults import TelemetryFaultConfig
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.registry import require
from repro.simulation.kernel import DAY_S, SimulationKernel, TelemetrySensing
from repro.simulation.scenarios import Scenario
from repro.simulation.voting import FlowVotingSensing
from repro.topology.graph import Topology

#: Deterministic offsets separating the congestion / miswiring RNG
#: streams from the repair stream derived from the same run seed.
_CONGESTION_SEED_OFFSET = 7919
_MISWIRE_SEED_OFFSET = 104729

__all__ = [
    "CHAOS_PRESETS",
    "ChaosSimulation",
    "chaos_preset",
    "diagnosis_layers",
]


def diagnosis_layers(
    topo: Topology,
    seed: int,
    congestion_preset: Optional[str] = None,
    miswire_pairs: int = 0,
) -> Tuple[Optional[CongestionModel], Optional[MiswiringFault]]:
    """The congestion co-model and miswiring fault of a telemetry run.

    Both are seeded from the run seed plus a fixed offset, so they never
    perturb the repair RNG stream, and a batch chaos run and a service
    run of the same (seed, preset, pairs) see the same hot links and the
    same swapped cables.  ``None`` / 0 leave the layer out.
    """
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
    return cmodel, miswiring


class ChaosSimulation:
    """Replay a scenario's trace with the telemetry pipeline in the loop.

    Args:
        scenario: Topology + trace + capacity preset.
        fault_config: Telemetry fault rates (``None`` = clean monitoring).
        detection_threshold: Sanitized corruption rate at which a report
            is raised to the controller.
        packets_per_poll: Offered packets per direction per poll; sets the
            smallest observable corruption rate (1 / packets_per_poll).
        repair_accuracy: First-attempt repair success probability (failed
            first attempts fold into a doubled stay, as under oracle
            sensing).
        service_days: Ticket service time per attempt.
        seed: Seed for the repair RNG (independent of the telemetry fault
            RNG so fault injection never perturbs repair outcomes).
        poll_interval_s: Monitoring granularity.
        debounce_confirm: Consecutive confirming reports needed before the
            controller acts on an onset (1 = act immediately).
        max_decisions: Controller decision ring-buffer bound.
        audit_maxlen: Audit-log ring bound (evictions are counted
            exactly and exported as ``audit_evicted_records``).
        congestion_preset: Named congestion co-model
            (:data:`repro.congestion.presets.CONGESTION_PRESETS`);
            ``None`` / ``"none"`` keeps runs byte-identical to the
            pre-diagnosis pipeline.  The model is seeded from the run
            seed plus a fixed offset, so congestion never perturbs the
            repair RNG stream.
        miswire_pairs: Disjoint link pairs whose telemetry attribution
            is swapped (A3-style wrong inventory map); 0 disables the
            fault and the probe cross-check with it.
        sensing: ``"telemetry"`` (counter-driven detection) or
            ``"voting"`` (the 007-style flow-voting localizer,
            :class:`~repro.simulation.voting.FlowVotingSensing`).
        obs: Observability recorder threaded through the whole closed loop
            (poller, sanitizer, controller, optimizer).  The default
            :data:`~repro.obs.recorder.NULL_RECORDER` preserves the
            determinism contract above bit-for-bit.
    """

    def __init__(
        self,
        scenario: Scenario,
        fault_config: Optional[TelemetryFaultConfig] = None,
        detection_threshold: float = 1e-7,
        packets_per_poll: int = 10_000_000,
        repair_accuracy: float = 0.8,
        service_days: float = 2.0,
        seed: int = 0,
        poll_interval_s: float = 900.0,
        debounce_confirm: int = 2,
        max_decisions: int = 4096,
        audit_maxlen: int = 1024,
        slo_rules=None,
        congestion_preset: Optional[str] = None,
        miswire_pairs: int = 0,
        sensing: str = "telemetry",
        obs: Recorder = NULL_RECORDER,
    ):
        require("sensing", sensing)
        topo = scenario.topo_factory()
        cmodel, miswiring = diagnosis_layers(
            topo, seed, congestion_preset, miswire_pairs
        )
        pipeline_cls = (
            FlowVotingSensing if sensing == "voting" else TelemetrySensing
        )
        extra = {} if sensing == "telemetry" else {"vote_seed": seed}
        self.pipeline = pipeline_cls(
            scenario.trace,
            scenario.constraint(),
            fault_config=fault_config,
            detection_threshold=detection_threshold,
            packets_per_poll=packets_per_poll,
            poll_interval_s=poll_interval_s,
            debounce_confirm=debounce_confirm,
            max_decisions=max_decisions,
            audit_maxlen=audit_maxlen,
            slo_rules=slo_rules,
            congestion_model=cmodel,
            miswiring=miswiring,
            **extra,
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
    """Look up a preset by name, re-seeded."""
    if name not in CHAOS_PRESETS:
        raise ValueError(
            f"unknown chaos preset {name!r}; choose from {sorted(CHAOS_PRESETS)}"
        )
    return replace(CHAOS_PRESETS[name], seed=seed)
