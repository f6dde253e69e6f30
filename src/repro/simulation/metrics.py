"""Metric containers for the mitigation simulations.

The §7 evaluations reduce to a few time-series metrics:

- **total penalty per second** (Figures 14, 17, 18, 19) — a step function
  that changes only when a link is disabled/enabled or starts corrupting;
- **worst/average ToR path fraction** (Figures 15, 16; §7.3) — also a step
  function over mitigation events.

:class:`StepSeries` stores such piecewise-constant series exactly and
supports time-integration and binning, so penalties integrate with no
sampling error.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Tuple


class StepSeries:
    """A right-continuous step function recorded as (time, value) changes."""

    def __init__(self, initial_value: float = 0.0, start_s: float = 0.0):
        self._times: List[float] = [start_s]
        self._values: List[float] = [initial_value]

    def record(self, time_s: float, value: float) -> None:
        """Set the value from ``time_s`` onward.

        Equal-time updates overwrite (the last write at an instant wins);
        time must not go backwards.
        """
        if time_s < self._times[-1]:
            raise ValueError(
                f"time went backwards: {time_s} < {self._times[-1]}"
            )
        if time_s == self._times[-1]:
            self._values[-1] = value
            return
        if value == self._values[-1]:
            return  # no change; keep the series compact
        self._times.append(time_s)
        self._values.append(value)

    def value_at(self, time_s: float) -> float:
        """The value in effect at ``time_s``."""
        index = bisect_right(self._times, time_s) - 1
        return self._values[max(index, 0)]

    def integral(self, start_s: float, end_s: float) -> float:
        """∫ value dt over [start_s, end_s]."""
        if end_s < start_s:
            raise ValueError("end before start")
        total = 0.0
        times, values = self._times, self._values
        for i, value in enumerate(values):
            seg_start = max(times[i], start_s)
            seg_end = times[i + 1] if i + 1 < len(times) else end_s
            seg_end = min(seg_end, end_s)
            if seg_end > seg_start:
                total += value * (seg_end - seg_start)
        return total

    def mean(self, start_s: float, end_s: float) -> float:
        """Time-average over [start_s, end_s]."""
        if end_s <= start_s:
            return self.value_at(start_s)
        return self.integral(start_s, end_s) / (end_s - start_s)

    def binned(
        self, start_s: float, end_s: float, bin_s: float
    ) -> List[Tuple[float, float]]:
        """(bin start, time-averaged value) per bin — Figure 18's hourly
        penalty chunks."""
        if bin_s <= 0:
            raise ValueError("bin width must be positive")
        bins = []
        t = start_s
        while t < end_s:
            upper = min(t + bin_s, end_s)
            bins.append((t, self.mean(t, upper)))
            t += bin_s
        return bins

    def min_value(self) -> float:
        return min(self._values)

    def changes(self) -> List[Tuple[float, float]]:
        """All (time, value) change points."""
        return list(zip(self._times, self._values))


@dataclass
class SimulationMetrics:
    """Everything a mitigation run records.

    Attributes:
        penalty: Total penalty per second over time.
        worst_tor_fraction: Minimum ToR path fraction over time.
        average_tor_fraction: Mean ToR path fraction over time.
        onsets: Corruption onsets seen (per-link).
        disabled_on_onset: Links disabled by the onset-time check.
        kept_active_on_onset: Links the strategy had to keep active.
        disabled_on_activation: Links disabled by re-evaluation after an
            activation (the optimizer's contribution).
        repairs_completed: Links brought back after repair.
        failed_repairs: Re-disables after unsuccessful repairs
            (full-cycle mode only).
        effective_capacity: Mean *effective* ToR capacity fraction over
            time — like ``average_tor_fraction`` but weighting
            LinkGuardian-protected links by their reduced capacity.
            Stays flat at 1.0 (and is not recorded) for non-LG runs, so
            fingerprints of existing strategies are unaffected.
        lg_protections: Links placed under LinkGuardian protection.
    """

    penalty: StepSeries = field(default_factory=lambda: StepSeries(0.0))
    worst_tor_fraction: StepSeries = field(
        default_factory=lambda: StepSeries(1.0)
    )
    average_tor_fraction: StepSeries = field(
        default_factory=lambda: StepSeries(1.0)
    )
    onsets: int = 0
    disabled_on_onset: int = 0
    kept_active_on_onset: int = 0
    disabled_on_activation: int = 0
    repairs_completed: int = 0
    failed_repairs: int = 0
    effective_capacity: StepSeries = field(
        default_factory=lambda: StepSeries(1.0)
    )
    lg_protections: int = 0

    def total_penalty_integral(self, duration_s: float) -> float:
        """∫ penalty dt over the whole run — the Figure 17 numerator."""
        return self.penalty.integral(0.0, duration_s)


@dataclass
class ChaosMetrics:
    """What a telemetry-fault (chaos) run additionally records.

    These quantify mitigation quality when the monitoring itself lies:

    Attributes:
        polls: Poll ticks executed.
        missed_polls: Per-direction polls that never arrived.
        degraded_samples: Sanitized samples flagged non-OK.
        false_disables: Links disabled while their ground-truth corruption
            rate was zero (phantom corruption from bad telemetry).
        missed_mitigations: Ground-truth faults never detected by the
            telemetry pipeline by the end of the run.
        detections: Faults the pipeline did detect (first report).
        detection_delay_polls: Total polls between ground-truth onset and
            first detection, summed over ``detections``.
        decisions_in_degraded_mode: Controller decisions taken in degraded
            mode (fail-safe keeps, fallback sweeps).
        quarantined_peak: Peak number of simultaneously quarantined
            directions.
        quarantine_violations: Disables of quarantined links (the fail-safe
            invariant requires this to stay 0).
        capacity_violations: Ticks on which the worst ToR fraction fell
            below its constraint (must stay 0).
        miswires_flagged: Links flagged miswired by the active-probe
            cross-check (0 unless a miswiring fault is installed).
    """

    polls: int = 0
    missed_polls: int = 0
    degraded_samples: int = 0
    false_disables: int = 0
    missed_mitigations: int = 0
    detections: int = 0
    detection_delay_polls: float = 0.0
    decisions_in_degraded_mode: int = 0
    quarantined_peak: int = 0
    quarantine_violations: int = 0
    capacity_violations: int = 0
    miswires_flagged: int = 0

    def mean_detection_delay_polls(self) -> float:
        """Average onset→detection delay, in polls."""
        if self.detections == 0:
            return 0.0
        return self.detection_delay_polls / self.detections
