"""Fault injection over a topology.

Draws corruption faults (root cause, affected link(s), observable
conditions) as a marked Poisson process.  Shared-component faults pick
several co-located links on one switch — the mechanism behind the weak
spatial locality measured in §3 and reproduced by Figure 4's benchmark.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.faults.condition import LinkCondition
from repro.faults.contamination import ContaminationFault
from repro.faults.decaying_tx import DecayingTransmitterFault
from repro.faults.fiber_damage import FiberDamageFault
from repro.faults.root_causes import RootCause, cause_mix_midpoint
from repro.faults.shared_component import SharedComponentFault
from repro.faults.transceiver_fault import TransceiverFault
from repro.optics.power import TECH_40G_LR4, TransceiverTech
from repro.topology.elements import LinkId
from repro.topology.graph import Topology

#: Any concrete fault model.
AnyFault = Union[
    ContaminationFault,
    DecayingTransmitterFault,
    FiberDamageFault,
    SharedComponentFault,
    TransceiverFault,
]

_FAULT_CLASSES = {
    RootCause.CONNECTOR_CONTAMINATION: ContaminationFault,
    RootCause.DAMAGED_FIBER: FiberDamageFault,
    RootCause.DECAYING_TRANSMITTER: DecayingTransmitterFault,
    RootCause.BAD_OR_LOOSE_TRANSCEIVER: TransceiverFault,
    RootCause.SHARED_COMPONENT: SharedComponentFault,
}

DAY_S = 86_400.0


def default_rate_sampler(rng: random.Random) -> float:
    """Log-uniform corruption rate in [1e-8, 1e-2].

    The calibrated Table-1 sampler lives in :mod:`repro.workloads.rates`;
    this simple default keeps the injector usable standalone.
    """
    return 10.0 ** rng.uniform(-8.0, -2.0)


@dataclass(frozen=True)
class FaultEvent:
    """One corruption fault arriving in the network.

    Frozen, with ``link_ids``/``conditions`` normalised to tuples: traces
    are shared by reference between jobs (the parallel workers' scenario
    cache hands one trace to every simulation built from it), so events
    must be immutable for "same trace → same result" to hold.

    Attributes:
        time_s: Onset time (seconds since simulation start).
        fault: The ground-truth fault model instance.
        link_ids: Affected links (one, except shared-component faults).
        conditions: Per-link observable conditions, aligned with
            ``link_ids``.
    """

    time_s: float
    fault: AnyFault
    link_ids: Sequence[LinkId]
    conditions: Sequence[LinkCondition] = ()

    def __post_init__(self):
        object.__setattr__(self, "link_ids", tuple(self.link_ids))
        object.__setattr__(self, "conditions", tuple(self.conditions))


class FaultInjector:
    """Seeded generator of fault events over a topology.

    Args:
        topo: Target topology.
        seed: RNG seed (all draws flow from one ``random.Random``).
        cause_mix: Root-cause probabilities; defaults to Table-2 midpoints.
        rate_sampler: Draws a corruption loss rate for each fault.
        tech: Optical technology assumed for symptom generation.
        events_per_day: Mean fault arrivals per day (Poisson).
    """

    def __init__(
        self,
        topo: Topology,
        seed: int = 0,
        cause_mix: Optional[Dict[RootCause, float]] = None,
        rate_sampler: Callable[[random.Random], float] = default_rate_sampler,
        tech: TransceiverTech = TECH_40G_LR4,
        events_per_day: float = 10.0,
    ):
        if events_per_day <= 0:
            raise ValueError("events_per_day must be positive")
        self._topo = topo
        self._rng = random.Random(seed)
        self.cause_mix = cause_mix or cause_mix_midpoint()
        self.rate_sampler = rate_sampler
        self.tech = tech
        self.events_per_day = events_per_day
        self._all_links: List[LinkId] = sorted(topo.link_ids())
        # Shared components (breakout cables, backplane regions) live on
        # the aggregation/spine tiers: breakout cables connect "switches
        # with different port speed" (§4), which is the agg-spine boundary,
        # not ToR uplinks.  Fall back to any switch for 2-stage gadgets.
        non_tor = sorted(
            sw.name
            for sw in topo.switches()
            if sw.stage >= 1 and topo.uplinks(sw.name)
        )
        self._shared_fault_switches: List[str] = non_tor or sorted(
            sw.name for sw in topo.switches() if topo.uplinks(sw.name)
        )

    # ------------------------------------------------------------------ #

    def _sample_cause(self) -> RootCause:
        roll = self._rng.random()
        cumulative = 0.0
        last = None
        for cause, probability in self.cause_mix.items():
            cumulative += probability
            last = cause
            if roll < cumulative:
                return cause
        return last

    def _pick_shared_links(self, wanted: int) -> List[LinkId]:
        """Pick co-located links for a shared-component fault.

        Prefers a breakout group when one exists on the chosen switch;
        otherwise takes adjacent uplinks of one switch.
        """
        switch = self._rng.choice(self._shared_fault_switches)
        uplinks = self._topo.uplinks(switch)
        groups = {
            self._topo.link(lid).breakout_group
            for lid in uplinks
            if self._topo.link(lid).breakout_group is not None
        }
        if groups:
            group = sorted(groups)[self._rng.randrange(len(groups))]
            members = self._topo.breakout_members(group)
            return members[:wanted] if wanted < len(members) else members
        # A backplane fault can hit any of the switch's ports, down-links
        # included — which keeps corruption's stage distribution unbiased
        # (§3) even though the shared *switch* sits above the ToR tier.
        ports = self._topo.switch_links(switch)
        if len(ports) <= wanted:
            return list(ports)
        start = self._rng.randrange(len(ports) - wanted + 1)
        return ports[start : start + wanted]

    def sample_fault(self, time_s: float = 0.0) -> FaultEvent:
        """Draw one fault event at ``time_s``."""
        rng = self._rng
        cause = self._sample_cause()
        rate = self.rate_sampler(rng)
        fault_cls = _FAULT_CLASSES[cause]
        fault = fault_cls.sample(rate, rng, tech=self.tech)

        if cause is RootCause.SHARED_COMPONENT:
            links = self._pick_shared_links(fault.group_size)
            fault.group_size = len(links)
            conditions = fault.group_conditions(rng)
        else:
            links = [rng.choice(self._all_links)]
            conditions = [fault.condition(rng)]
        return FaultEvent(
            time_s=time_s, fault=fault, link_ids=links, conditions=conditions
        )

    def generate(self, duration_days: float) -> List[FaultEvent]:
        """Generate a Poisson stream of fault events over ``duration_days``."""
        if duration_days < 0:
            raise ValueError("duration must be non-negative")
        events: List[FaultEvent] = []
        time_s = 0.0
        horizon_s = duration_days * DAY_S
        mean_gap_s = DAY_S / self.events_per_day
        while True:
            time_s += -mean_gap_s * math.log(1.0 - self._rng.random())
            if time_s >= horizon_s:
                break
            events.append(self.sample_fault(time_s))
        return events
