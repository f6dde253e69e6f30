"""Declarative job specifications for parallel campaigns.

A :class:`JobSpec` names everything one simulation run needs — preset,
scale, trace seed, strategy, capacity, repair-model knobs — without
holding any live object (no :class:`~repro.topology.graph.Topology`, no
trace).  Specs are frozen, hashable, and picklable, so they can cross
process boundaries and serve as cache keys.

Seed derivation is the determinism linchpin: when a spec does not pin an
explicit ``repair_seed``, its effective seed is :func:`job_seed` — a pure
function of the spec's canonical JSON via SHA-256.  Results therefore
depend only on the spec, never on worker count, chunking, or completion
order, and the derivation is stable across Python versions and platforms
(``repr(float)`` has been shortest-roundtrip since CPython 3.1, and
SHA-256 is SHA-256 everywhere).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

from repro.registry import (
    CHAOS_PRESETS as KNOWN_CHAOS_PRESETS,
    CONGESTION_PRESETS as KNOWN_CONGESTION_PRESETS,
    JOB_KINDS as KNOWN_KINDS,
    PENALTIES as KNOWN_PENALTIES,
    SCENARIO_PRESETS as KNOWN_PRESETS,
    SENSING_PIPELINES as KNOWN_SENSING,
    STRATEGIES as KNOWN_STRATEGIES,
    STRATEGY_KNOBS as KNOWN_STRATEGY_KNOBS,
    TOPO_KINDS as KNOWN_TOPO_KINDS,
    require,
)

# The KNOWN_* names are aliases into :mod:`repro.registry` (the single
# source of truth for every by-name preset), re-exported here because
# campaign code and tests historically import them from this module.


@dataclass(frozen=True)
class JobSpec:
    """One campaign job, fully described by value.

    Attributes:
        kind: ``"simulate"`` (default) or ``"calibrate"``.
        preset: Built-in profile name (``medium``/``large``) — ignored
            when ``profile_shape`` is given.
        profile_shape: Optional custom Clos shape
            ``(name, pods, tors_per_pod, aggs_per_pod, num_spines)`` for
            campaigns that sweep bespoke topologies.
        scale: Shape-preserving topology scale factor.
        duration_days: Trace horizon.
        trace_seed: Seed of the corruption trace generator.
        events_per_10k: Fault arrival intensity (events/10K links/day).
        dedup_trace: Collapse repeat onsets per link (what
            :func:`~repro.simulation.scenarios.make_scenario` does); the
            technician-pool ablation runs the raw trace.
        capacity: Per-ToR capacity constraint ``c``.
        strategy: Mitigation strategy name.
        penalty: Penalty-function name (``I(f)``).
        repair_accuracy: First-attempt repair success probability.
        repair_seed: Explicit repair RNG seed; ``None`` derives one from
            the spec via :func:`job_seed`.
        track_capacity: Record the ToR path-fraction series.
        service_days: Ticket service time per attempt.
        full_repair_cycles: Simulate failed repairs as re-enable cycles.
        technician_pool: Optional FIFO repair-crew size.
        chaos_preset: Telemetry-fault preset name for ``kind="chaos"``
            jobs that give no ``fault_rates`` (``None`` for every other
            kind).  Omitted from the canonical JSON when unset, so
            pre-chaos specs keep their derived seeds.
        fault_seed: Seed of the telemetry fault RNG for chaos jobs
            (independent of the repair seed so fault injection never
            perturbs repair outcomes).  Omitted from the canonical JSON
            when 0, for the same reason.
        knobs: Per-job knobs as a sorted tuple of ``(name, value)`` pairs
            (kept a tuple so the spec stays hashable).  Calibration jobs
            use them freely (spin/sleep/crash); simulate jobs may only
            carry the strategy's knobs from
            :data:`KNOWN_STRATEGY_KNOBS` — anything else is rejected.
        lg_coverage: Fraction of links flagged LinkGuardian-capable on
            the job's topology copy (simulate jobs only).  Omitted from
            the canonical JSON when 0.0, so every pre-LG spec keeps its
            derived seed.
        topo_kind: Topology family (``"clos"`` or ``"fattree"``).
            Omitted from the canonical JSON at the default, so every
            pre-fleet spec keeps its derived seed.
        breakout_fraction: Fraction of links grouped into breakout
            cables on the scenario's base topology (§4 root cause 5).
            Omitted from the canonical JSON when 0.0, likewise.
        congestion_preset: Named congestion co-model for chaos jobs
            (queue loss correlated with utilization, no FCS signature);
            ``None`` for every other kind.  Omitted from the canonical
            JSON when unset, so pre-diagnosis specs keep their derived
            seeds.
        miswire_pairs: Disjoint link pairs whose telemetry attribution
            is swapped (A3-style wrong inventory map) on chaos jobs.
            Omitted from the canonical JSON when 0, likewise.
        sensing: Sensing pipeline for chaos jobs — ``"telemetry"``
            (counter-driven) or ``"voting"`` (007-style flow voting).
            Omitted from the canonical JSON at the default, likewise.
        fault_rates: A chaos job's custom fault mix in place of a
            ``chaos_preset``: sorted ``(name, value)`` pairs of
            :class:`~repro.faults.TelemetryFaultConfig` fields.  Omitted
            from the canonical JSON when empty, likewise.
    """

    kind: str = "simulate"
    preset: str = "medium"
    profile_shape: Optional[Tuple[str, int, int, int, int]] = None
    scale: float = 0.25
    duration_days: float = 30.0
    trace_seed: int = 0
    events_per_10k: float = 4.0
    dedup_trace: bool = True
    capacity: float = 0.75
    strategy: str = "corropt"
    penalty: str = "linear"
    repair_accuracy: float = 0.8
    repair_seed: Optional[int] = None
    track_capacity: bool = True
    service_days: float = 2.0
    full_repair_cycles: bool = False
    technician_pool: Optional[int] = None
    chaos_preset: Optional[str] = None
    fault_seed: int = 0
    knobs: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)
    lg_coverage: float = 0.0
    topo_kind: str = "clos"
    breakout_fraction: float = 0.0
    congestion_preset: Optional[str] = None
    miswire_pairs: int = 0
    sensing: str = "telemetry"
    fault_rates: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise ``ValueError`` on an unrunnable spec."""
        require("kind", self.kind)
        if self.kind == "calibrate":
            return
        if self.kind == "chaos":
            if self.chaos_preset is not None:
                require("chaos_preset", self.chaos_preset)
                if self.fault_rates:
                    raise ValueError(
                        "a chaos job takes a chaos_preset or fault_rates, "
                        "not both"
                    )
            elif self.fault_rates:
                self.fault_config()  # the config checks each rate
            else:
                raise ValueError(
                    'kind="chaos" requires a chaos_preset or fault_rates'
                )
            if self.technician_pool is not None or self.full_repair_cycles:
                raise ValueError(
                    "chaos jobs use the paper repair model; technician_pool "
                    "and full_repair_cycles are not supported"
                )
            if self.congestion_preset is not None:
                require("congestion_preset", self.congestion_preset)
            if self.miswire_pairs < 0:
                raise ValueError("miswire_pairs must be non-negative")
            require("sensing", self.sensing)
        elif self.chaos_preset is not None or self.fault_rates:
            raise ValueError(
                'chaos_preset and fault_rates require kind="chaos", '
                f"not {self.kind!r}"
            )
        elif (
            self.congestion_preset is not None
            or self.miswire_pairs
            or self.sensing != "telemetry"
        ):
            raise ValueError(
                "congestion_preset, miswire_pairs and sensing are "
                f'diagnosis axes of kind="chaos" jobs, not {self.kind!r}'
            )
        if self.profile_shape is None:
            require("preset", self.preset)
        require("strategy", self.strategy)
        require("penalty", self.penalty)
        require("topo_kind", self.topo_kind)
        # Written so that NaN fails too (every comparison with it is false).
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if not 0 <= self.duration_days < math.inf:
            raise ValueError("duration must be non-negative and finite")
        if not 0 <= self.events_per_10k < math.inf:
            raise ValueError("events_per_10k must be non-negative and finite")
        if not 0.0 <= self.repair_accuracy <= 1.0:
            raise ValueError("repair accuracy outside [0, 1]")
        if not 0.0 < self.capacity <= 1.0:
            raise ValueError("capacity constraint outside (0, 1]")
        if not 0.0 <= self.lg_coverage <= 1.0:
            raise ValueError("lg_coverage outside [0, 1]")
        if not 0.0 <= self.breakout_fraction <= 1.0:
            raise ValueError("breakout_fraction outside [0, 1]")
        if self.kind == "chaos":
            if self.lg_coverage:
                raise ValueError(
                    "lg_coverage only applies to simulate jobs; chaos runs "
                    "drive the hardened CorrOpt controller"
                )
            if self.knobs:
                raise ValueError("chaos jobs take no strategy knobs")
        else:
            allowed = KNOWN_STRATEGY_KNOBS[self.strategy]
            bad = sorted(set(name for name, _ in self.knobs) - set(allowed))
            if bad:
                raise ValueError(
                    f"knobs {bad} not applicable to strategy "
                    f"{self.strategy!r}; applicable knobs: "
                    f"{sorted(allowed) or 'none'}"
                )

    # ------------------------------------------------------------------ #
    # Canonical form and seeds
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical dict (tuples become lists).

        Fields introduced after the format froze (the chaos and LG axes)
        are omitted at their defaults: every earlier spec keeps the exact
        canonical JSON — and therefore the exact derived seed — it had
        before those axes existed.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _LATE_FIELDS and value == _LATE_FIELDS[f.name]:
                continue
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        return out

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON — the hashing preimage."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def job_seed(self) -> int:
        """Spec-derived 63-bit seed; see :func:`job_seed`."""
        return job_seed(self)

    def seed_used(self) -> int:
        """The repair seed this job actually runs with."""
        if self.repair_seed is not None:
            return self.repair_seed
        return self.job_seed()

    def scenario_key(self) -> Tuple:
        """Worker-cache key: everything that shapes the topology + trace.

        Deliberately excludes capacity, strategy, and repair-model knobs —
        jobs differing only in those share one cached scenario (each job
        sets its own capacity on it) and run on per-job copies.
        """
        return (
            self.preset,
            self.profile_shape,
            self.scale,
            self.duration_days,
            self.trace_seed,
            self.events_per_10k,
            self.dedup_trace,
            self.topo_kind,
            self.breakout_fraction,
        )

    def knobs_dict(self) -> Dict[str, float]:
        return dict(self.knobs)

    def fault_config(self):
        """A chaos job's :class:`~repro.faults.TelemetryFaultConfig`: its
        preset, or else its ``fault_rates``, seeded with ``fault_seed``.
        ``ValueError`` names a preset or rate the config refuses."""
        from repro.faults import TelemetryFaultConfig
        from repro.simulation.chaos import chaos_preset

        if self.chaos_preset is not None:
            return chaos_preset(self.chaos_preset, seed=self.fault_seed)
        try:
            return TelemetryFaultConfig(
                seed=self.fault_seed, **dict(self.fault_rates)
            )
        except TypeError as exc:  # a name that is not a config field
            raise ValueError(f"fault_rates: {exc}") from None


#: Fields added after the canonical JSON froze, each left out of it at
#: this (its default) value.
_LATE_FIELDS: Dict[str, Any] = {
    "chaos_preset": None,
    "fault_seed": 0,
    "lg_coverage": 0.0,
    "topo_kind": "clos",
    "breakout_fraction": 0.0,
    "congestion_preset": None,
    "miswire_pairs": 0,
    "sensing": "telemetry",
    "fault_rates": (),
}


def job_seed(spec: JobSpec) -> int:
    """Derive a deterministic 63-bit seed from a spec.

    SHA-256 over the canonical JSON, truncated to 63 bits (kept positive
    so it round-trips through every RNG-seed signature).  Pure function
    of the spec: equal specs map to equal seeds on any worker, in any
    order, on any supported Python.
    """
    digest = hashlib.sha256(spec.canonical_json().encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
