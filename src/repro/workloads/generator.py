"""Synthetic corruption-trace generation.

Combines the :class:`~repro.faults.injector.FaultInjector` (root causes,
symptoms, locality) with the Table-1 rate distribution to produce traces
statistically shaped like the paper's Oct–Dec 2016 production data.

The arrival rate is expressed per 10K links per day so traces scale with
DCN size the way the paper's aggregate loss numbers do (bigger DCNs see
proportionally more corruption events).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.injector import FaultInjector
from repro.faults.root_causes import RootCause, cause_mix_midpoint
from repro.topology.graph import Topology
from repro.workloads.rates import sample_corruption_rate
from repro.workloads.trace import CorruptionTrace

#: Default corruption-onset intensity.  §2: corruption affects only a few
#: percent of links over weeks, so a 10K-link DCN sees a handful of new
#: corrupting links per day.
DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY = 4.0


def generate_trace(
    topo: Topology,
    duration_days: float,
    seed: int = 0,
    events_per_10k_links_per_day: float = DEFAULT_EVENTS_PER_10K_LINKS_PER_DAY,
    cause_mix: Optional[Dict[RootCause, float]] = None,
) -> CorruptionTrace:
    """Generate a corruption trace for ``topo``.

    Args:
        topo: Target topology (used for link identities and locality).
        duration_days: Trace horizon, e.g. 90 for the paper's Oct–Dec window.
        seed: Seed controlling every random draw.
        events_per_10k_links_per_day: Fault arrival intensity.
        cause_mix: Root-cause probabilities (default Table-2 midpoints).

    Returns:
        A validated, time-ordered :class:`CorruptionTrace`.
    """
    if duration_days < 0:
        raise ValueError("duration must be non-negative")
    if events_per_10k_links_per_day < 0:
        raise ValueError("event rate must be non-negative")
    events_per_day = max(
        1e-9, events_per_10k_links_per_day * topo.num_links / 10_000.0
    )
    injector = FaultInjector(
        topo,
        seed=seed,
        cause_mix=cause_mix or cause_mix_midpoint(),
        rate_sampler=sample_corruption_rate,
        events_per_day=events_per_day,
    )
    trace = CorruptionTrace(
        dcn_name=topo.name,
        duration_days=duration_days,
        events=injector.generate(duration_days),
    )
    trace.validate()
    return trace


def burst_trace(
    topo: Topology,
    num_events: int,
    seed: int = 0,
    spacing_s: float = 3600.0,
) -> CorruptionTrace:
    """A dense trace of ``num_events`` evenly spaced onsets.

    Convenient for stress tests and optimizer benchmarks where we want a
    controlled number of simultaneous corrupting links rather than a
    Poisson horizon.
    """
    injector = FaultInjector(
        topo, seed=seed, rate_sampler=sample_corruption_rate
    )
    events = [
        injector.sample_fault(time_s=i * spacing_s) for i in range(num_events)
    ]
    trace = CorruptionTrace(
        dcn_name=topo.name,
        duration_days=(num_events * spacing_s) / 86_400.0,
        events=events,
    )
    trace.validate()
    return trace


def deduplicate_active(trace: CorruptionTrace) -> CorruptionTrace:
    """Drop events on links already corrupting earlier in the trace.

    Simulation engines that track link lifecycles usually want at most one
    outstanding fault per link; later onsets on a still-broken link are
    collapsed (the earlier, typically repaired-by-then fault wins).
    """
    seen = set()
    kept = []
    for event in trace.events:
        if any(lid in seen for lid in event.link_ids):
            continue
        seen.update(event.link_ids)
        kept.append(event)
    return CorruptionTrace(
        dcn_name=trace.dcn_name,
        duration_days=trace.duration_days,
        events=kept,
    )
