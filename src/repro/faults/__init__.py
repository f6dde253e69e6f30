"""Optical-layer fault models: the five root causes of §4 (Table 2).

Each fault model emits a :class:`~repro.faults.condition.LinkCondition`
carrying the observable symptoms (power levels, per-direction corruption)
and knows which :class:`~repro.core.recommendation.RepairAction` actually
fixes it — the ground truth against which repair policies are scored.
"""

from repro.faults.condition import LinkCondition, observation_from_condition
from repro.faults.contamination import REFLECTIVE_PROBABILITY, ContaminationFault
from repro.faults.decaying_tx import DecayingTransmitterFault
from repro.faults.fiber_damage import BIDIRECTIONAL_PROBABILITY, FiberDamageFault
from repro.faults.injector import (
    AnyFault,
    FaultEvent,
    FaultInjector,
    default_rate_sampler,
)
from repro.faults.root_causes import (
    TABLE2_CONTRIBUTION_RANGE,
    TABLE2_SYMPTOM,
    RootCause,
    cause_mix_midpoint,
    repairs_that_fix,
    sample_root_cause,
)
from repro.faults.miswiring import MiswiringFault
from repro.faults.shared_component import SharedComponentFault
from repro.faults.telemetry_faults import FaultyTransport, TelemetryFaultConfig
from repro.faults.transceiver_fault import LOOSE_PROBABILITY, TransceiverFault

__all__ = [
    "AnyFault",
    "BIDIRECTIONAL_PROBABILITY",
    "ContaminationFault",
    "DecayingTransmitterFault",
    "FaultEvent",
    "FaultInjector",
    "FaultyTransport",
    "FiberDamageFault",
    "LOOSE_PROBABILITY",
    "LinkCondition",
    "MiswiringFault",
    "REFLECTIVE_PROBABILITY",
    "RootCause",
    "SharedComponentFault",
    "TABLE2_CONTRIBUTION_RANGE",
    "TABLE2_SYMPTOM",
    "TelemetryFaultConfig",
    "TransceiverFault",
    "cause_mix_midpoint",
    "default_rate_sampler",
    "observation_from_condition",
    "repairs_that_fix",
    "sample_root_cause",
]
