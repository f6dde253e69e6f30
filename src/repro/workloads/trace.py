"""Corruption traces: the input to the §7.1 mitigation simulations.

A trace is a time-ordered list of corruption onsets on a known topology,
each carrying its ground-truth fault (for the repair model) and observable
condition (for the recommendation engine).  Traces are generated
synthetically (:mod:`repro.workloads.generator`) because the paper's
Oct–Dec 2016 production traces are proprietary; the generator reproduces
their stated statistics (Table-1 rates, Poisson-ish arrivals, §3 weak
locality from shared components).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.faults.injector import FaultEvent


@dataclass
class CorruptionTrace:
    """A corruption-onset trace bound to a topology name.

    Attributes:
        dcn_name: Name of the topology the trace was generated for.
        duration_days: Trace horizon.
        events: Fault events sorted by onset time.
    """

    dcn_name: str
    duration_days: float
    events: List[FaultEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def validate(self) -> None:
        """Check time-ordering and alignment invariants."""
        previous = -1.0
        for event in self.events:
            if event.time_s < previous:
                raise ValueError("trace events out of order")
            previous = event.time_s
            if len(event.link_ids) != len(event.conditions):
                raise ValueError("event link/condition arity mismatch")
