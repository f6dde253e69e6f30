"""Telemetry sanitization: turning untrusted counter reads into rated samples.

§2 could only use the production SNMP feed after filtering ("we discard
counters that are obviously wrong"), and §8 notes that monitoring stops
flowing when a link is disabled.  This module is the defensive layer that
makes those realities explicit: raw :class:`~repro.telemetry.counters.
CounterSnapshot` deliveries — possibly missing, wrapped, reset, frozen,
duplicated, or out of order — are converted into per-direction loss-rate
samples that are *always* in [0, 1] and carry a :class:`SampleQuality`
flag, so downstream consumers (the controller above all) can tell trusted
data from reconstructed or suspect data.

Directions whose recent sample quality degrades past a threshold are
**quarantined**: the fail-safe controller refuses to disable links on
quarantined telemetry ("never disable on untrusted data").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.telemetry.columns import (
    EXACT_INT,
    Baselines,
    DirectionIndex,
    grow,
)
from repro.telemetry.counters import CounterSnapshot
from repro.topology.elements import DirectionId, LinkId

#: Standard SNMP ifInErrors/ifOutDiscards width before 64-bit HC counters.
COUNTER_32BIT_MODULUS = 2**32

#: Optical power readings outside this window are physically implausible
#: for DCN transceivers (Table 2 symptoms live in roughly [-30, +5] dBm).
PLAUSIBLE_DBM_RANGE = (-40.0, 10.0)


class SampleQuality(enum.Enum):
    """Trust level of one derived telemetry sample."""

    OK = "ok"                      # clean diff of two in-order snapshots
    INTERPOLATED = "interpolated"  # value reconstructed (wrap unwrapped,
    #                                or averaged across a polling gap)
    SUSPECT = "suspect"            # reset/freeze/garbage detected; value
    #                                is a best-effort guess
    MISSING = "missing"            # the poll never arrived

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash — but C-speed, which matters for the per-sample
    # set probes and count-dict keys on the sanitizer hot path.
    __hash__ = object.__hash__

    @property
    def degraded(self) -> bool:
        """Whether this sample should count against quarantine."""
        return self in _DEGRADED_QUALITIES

    @property
    def code(self) -> int:
        """Position in :data:`QUALITY_BY_CODE`: the int8 the quality
        columns store.  Degraded qualities are the codes from
        ``SUSPECT.code`` up."""
        return _QUALITY_CODES[self]


#: Membership here is the hot-path form of :attr:`SampleQuality.degraded`
#: (a frozenset probe skips the property descriptor on per-sample paths).
_DEGRADED_QUALITIES = frozenset(
    (SampleQuality.SUSPECT, SampleQuality.MISSING)
)

#: Code → member, in definition order (OK, INTERPOLATED, SUSPECT, MISSING).
QUALITY_BY_CODE: Tuple[SampleQuality, ...] = tuple(SampleQuality)
_QUALITY_CODES = {quality: code for code, quality in enumerate(QUALITY_BY_CODE)}
_OK, _INTERPOLATED, _SUSPECT, _MISSING = range(4)


@dataclass
class SanitizedSample:
    """One per-direction sample after sanitization.

    Attributes:
        direction_id: The sampled link direction.
        time_s: Sample timestamp (delivery time for MISSING markers).
        corruption: Corruption loss rate, guaranteed in [0, 1].
        congestion: Congestion loss rate, guaranteed in [0, 1].
        utilization: Interval utilization, guaranteed in [0, 1].
        quality: Trust flag.
        note: Human-readable cause when quality is not OK.
    """

    direction_id: DirectionId
    time_s: float
    corruption: float = 0.0
    congestion: float = 0.0
    utilization: float = 0.0
    quality: SampleQuality = SampleQuality.OK
    note: str = ""


@dataclass
class SanitizerStats:
    """What the sanitizer saw and did (exact counters, never evicted)."""

    samples: int = 0
    missing: int = 0
    duplicates_dropped: int = 0
    out_of_order_dropped: int = 0
    wraps_unwrapped: int = 0
    resets_detected: int = 0
    freezes_detected: int = 0
    gaps_bridged: int = 0
    clamps: int = 0


def _finite(*values) -> bool:
    try:
        return all(math.isfinite(v) for v in values)
    except OverflowError:
        # An int too large for a float is as unusable as a NaN.
        return False


def delta_ratios(d_total, d_errors, d_drops, capacity, dt):
    """Loss and utilization ratios of counter-delta columns, unclamped.

    ``(d_errors / d_total, d_drops / d_total, d_total / (capacity * dt))``
    element-wise, with the loss ratios 0 where nothing was sent and the
    utilization 0 where no capacity is known.  The one differencing rule
    of the poll tick: the sanitizer clamps the result and counts the
    clamps, the poller's raw mode (no sanitizer) only clips it.
    """
    sent = d_total > 0
    denominator = np.where(sent, d_total, 1)
    corruption = np.where(sent, d_errors / denominator, 0.0)
    congestion = np.where(sent, d_drops / denominator, 0.0)
    rated = capacity > 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        utilization = np.where(
            rated, d_total / np.where(rated, capacity * dt, 1.0), 0.0
        )
    return corruption, congestion, utilization


@dataclass
class RatedRows:
    """What :meth:`TelemetrySanitizer.ingest_rows` did with each input row.

    All fields are aligned with the input.  ``deferred`` rows were not
    touched and must go through the per-sample API, in direction order;
    ``rated`` rows produced the sample in the four value columns.
    """

    deferred: np.ndarray
    rated: np.ndarray
    corruption: np.ndarray
    congestion: np.ndarray
    utilization: np.ndarray
    quality: np.ndarray


class TelemetrySanitizer:
    """Stateful per-direction snapshot sanitizer.

    Per-direction state (the diff baseline and a ring of the last
    ``window`` quality codes) lives in numpy columns, one row per
    direction.  :meth:`ingest` / :meth:`observe_missing` are the
    per-sample API; :meth:`ingest_rows` rates one delivery per row for a
    whole poll tick with the same arithmetic as array operations.

    Args:
        interval_s: Nominal polling interval (gap detection baseline).
        wrap_modulus: Counter width; deltas are unwrapped modulo this when
            a wrap is the plausible explanation for a backwards counter.
        window: Number of recent samples considered for quarantine.
        quarantine_threshold: Quarantine a direction when the fraction of
            degraded (SUSPECT/MISSING) samples in the window reaches this.
        min_window_samples: Quarantine needs at least this many samples in
            the window (a single bad first sample should not quarantine).
        obs: Observability recorder; every rated sample bumps a
            per-quality counter and quarantine enter/leave transitions are
            counted and emitted as events (no-op by default).
    """

    def __init__(
        self,
        interval_s: float = 900.0,
        wrap_modulus: int = COUNTER_32BIT_MODULUS,
        window: int = 8,
        quarantine_threshold: float = 0.5,
        min_window_samples: int = 3,
        obs: Recorder = NULL_RECORDER,
    ):
        if not 0.0 < quarantine_threshold <= 1.0:
            raise ValueError("quarantine threshold outside (0, 1]")
        if window < 1:
            raise ValueError("window must hold at least one sample")
        self.interval_s = interval_s
        self.wrap_modulus = wrap_modulus
        self.window = window
        self.quarantine_threshold = quarantine_threshold
        self.min_window_samples = min_window_samples
        self.obs = obs
        self.stats = SanitizerStats()
        self._index = DirectionIndex()
        self._prev = Baselines()
        # Quality ring: the last `window` codes of each row (unwritten
        # slots hold OK, which never counts as degraded) and how many
        # codes the row has been given in total.
        self._ring = np.zeros((0, window), dtype=np.int8)
        self._pushes = np.zeros(0, dtype=np.int64)
        # Observability bookkeeping, only maintained while enabled: the
        # rows last seen quarantined (churn detection) and batched
        # per-quality sample counts (flushed at scrape time so the
        # per-sample hot path stays one dict increment).
        self._quarantined_rows: set = set()
        self._quality_counts: Dict[SampleQuality, int] = {}

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def _allocate(self) -> None:
        if len(self._index) > len(self._pushes):
            rows = self._index.capacity_for(len(self._pushes))
            self._prev.resize(rows)
            self._ring = grow(self._ring, rows)
            self._pushes = grow(self._pushes, rows)

    def _row(self, direction_id: DirectionId) -> int:
        row = self._index.row(direction_id)
        self._allocate()
        return row

    def rows_for(self, direction_ids: Sequence[DirectionId]) -> np.ndarray:
        """Row numbers of ``direction_ids`` for :meth:`ingest_rows`."""
        rows = self._index.rows(direction_ids)
        self._allocate()
        return rows

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def _push_quality(
        self, direction_id: DirectionId, row: int, quality: SampleQuality
    ) -> None:
        self._ring[row, self._pushes[row] % self.window] = quality.code
        self._pushes[row] += 1
        if self.obs.enabled:
            counts = self._quality_counts
            counts[quality] = counts.get(quality, 0) + 1
            # Quarantine can only *start* when the pushed sample is
            # degraded (a clean sample never raises the degraded fraction)
            # and only *end* when the direction was quarantined, so the
            # O(window) verdict is recomputed just for those cases.
            quarantined_rows = self._quarantined_rows
            was_quarantined = row in quarantined_rows
            if was_quarantined or quality in _DEGRADED_QUALITIES:
                now_quarantined = self.quarantined(direction_id)
                if now_quarantined != was_quarantined:
                    if now_quarantined:
                        quarantined_rows.add(row)
                    else:
                        quarantined_rows.discard(row)
                    self.obs.count(
                        "sanitizer_quarantine_transitions_total",
                        transition="enter" if now_quarantined else "leave",
                    )
                    self.obs.gauge(
                        "sanitizer_quarantined_directions",
                        len(quarantined_rows),
                    )
                    self.obs.event(
                        "quarantine",
                        direction="->".join(direction_id),
                        entered=now_quarantined,
                    )

    def flush_obs_counts(self) -> None:
        """Emit the batched per-quality sample counts to the recorder."""
        if not self.obs.enabled:
            return
        counts = sorted(
            (quality.value, count)
            for quality, count in self._quality_counts.items()
        )
        for quality, count in counts:
            self.obs.count("sanitizer_samples_total", count, quality=quality)
        self._quality_counts.clear()

    def observe_missing(
        self, direction_id: DirectionId, time_s: float
    ) -> SanitizedSample:
        """Record that a poll for ``direction_id`` never arrived."""
        self.stats.missing += 1
        self._push_quality(
            direction_id, self._row(direction_id), SampleQuality.MISSING
        )
        return SanitizedSample(
            direction_id=direction_id,
            time_s=time_s,
            quality=SampleQuality.MISSING,
            note="poll missed",
        )

    def ingest(
        self,
        direction_id: DirectionId,
        snapshot: CounterSnapshot,
        capacity_pkts_per_s: float = 0.0,
    ) -> Optional[SanitizedSample]:
        """Sanitize one delivered snapshot against the previous one.

        Returns:
            A rated sample, or ``None`` when the snapshot only seeds the
            baseline or must be discarded (duplicate / out-of-order).
        """
        row = self._row(direction_id)
        if not _finite(
            snapshot.time_s, snapshot.total, snapshot.errors, snapshot.drops
        ):
            # Garbage snapshot: count it, poison the window, keep baseline.
            self.stats.samples += 1
            self._push_quality(direction_id, row, SampleQuality.SUSPECT)
            return SanitizedSample(
                direction_id=direction_id,
                time_s=snapshot.time_s if _finite(snapshot.time_s) else 0.0,
                quality=SampleQuality.SUSPECT,
                note="non-finite counter values",
            )

        previous = self._prev.get(row)
        if previous is None:
            self._prev.set(row, snapshot)
            return None  # first sample only seeds the diff baseline

        dt = snapshot.time_s - previous.time_s
        if dt == 0:
            self.stats.duplicates_dropped += 1
            self._push_quality(direction_id, row, SampleQuality.SUSPECT)
            return None
        if dt < 0:
            self.stats.out_of_order_dropped += 1
            self._push_quality(direction_id, row, SampleQuality.SUSPECT)
            return None

        self.stats.samples += 1
        quality = SampleQuality.OK
        note = ""

        d_total = snapshot.total - previous.total
        d_errors = snapshot.errors - previous.errors
        d_drops = snapshot.drops - previous.drops

        if d_total < 0 or d_errors < 0 or d_drops < 0:
            unwrapped_total = d_total % self.wrap_modulus
            plausible = self._counters_fit_modulus(
                previous, snapshot
            ) and self._wrap_plausible(
                unwrapped_total, dt, capacity_pkts_per_s
            )
            if plausible:
                # 32-bit wrap: unwrap every counter that went backwards.
                d_total = unwrapped_total
                d_errors %= self.wrap_modulus
                d_drops %= self.wrap_modulus
                quality = SampleQuality.INTERPOLATED
                note = "32-bit counter wrap unwrapped"
                self.stats.wraps_unwrapped += 1
            else:
                # Counter reset (switch reboot): the new reading restarts
                # from zero, so the post-boot values are the best estimate
                # of the interval's traffic.
                d_total = snapshot.total
                d_errors = snapshot.errors
                d_drops = snapshot.drops
                quality = SampleQuality.SUSPECT
                note = "counter reset detected"
                self.stats.resets_detected += 1
        elif d_total == 0 and capacity_pkts_per_s > 0:
            # No packet movement on a link that should carry traffic: a
            # frozen counter (or a genuinely silent interval — we cannot
            # tell, which is exactly why it is only SUSPECT).
            quality = SampleQuality.SUSPECT
            note = "frozen counters (no movement)"
            self.stats.freezes_detected += 1
        elif dt > 1.5 * self.interval_s and quality is SampleQuality.OK:
            # Rates derived across a polling gap are averages over the
            # whole gap, not one interval: usable but reconstructed.
            quality = SampleQuality.INTERPOLATED
            note = f"bridged {dt / self.interval_s:.1f}-interval gap"
            self.stats.gaps_bridged += 1

        corruption = self._ratio(d_errors, d_total)
        congestion = self._ratio(d_drops, d_total)
        utilization = 0.0
        if capacity_pkts_per_s > 0 and dt > 0:
            utilization = self._clamp(d_total / (capacity_pkts_per_s * dt))

        self._prev.set(row, snapshot)
        self._push_quality(direction_id, row, quality)
        return SanitizedSample(
            direction_id=direction_id,
            time_s=snapshot.time_s,
            corruption=corruption,
            congestion=congestion,
            utilization=utilization,
            quality=quality,
            note=note,
        )

    def ingest_rows(
        self,
        rows: np.ndarray,
        time_s: np.ndarray,
        total: np.ndarray,
        errors: np.ndarray,
        drops: np.ndarray,
        capacity_pkts_per_s: np.ndarray,
        missed: np.ndarray,
        defer: np.ndarray,
    ) -> RatedRows:
        """Array form of :meth:`ingest` / :meth:`observe_missing`.

        One delivery for each of the distinct ``rows`` (from
        :meth:`rows_for`): a snapshot taken at ``time_s[i]`` with the
        given int64 counters (all below 2**53), or, where ``missed``, no
        delivery.  A row that delivers several snapshots in one poll takes
        one call per snapshot, in arrival order.  Every row the pass
        commits ends in exactly the state the per-sample methods would
        leave it in, duplicate and out-of-order timestamps included.  It
        defers (leaves untouched, see :class:`RatedRows`) the rows the
        caller marks in ``defer`` and what the per-sample methods must
        handle themselves: non-finite timestamps, baselines the int64
        columns cannot hold, and — while a recorder is enabled — any row
        whose push could start or end a quarantine, because the
        transition events are emitted in direction order.
        """
        prev = self._prev
        missed = missed & ~defer
        delivered = ~missed & ~defer
        known = prev.known[rows]
        dt = time_s - prev.time_s[rows]
        deferred = defer | (delivered & ~np.isfinite(time_s))
        inexact = prev.inexact_rows()
        if inexact:
            deferred |= delivered & np.isin(rows, inexact)
        seeding = delivered & ~known & ~deferred
        again = delivered & known & ~deferred
        # Not newer than the baseline: counted, held against the window,
        # otherwise ignored.
        duplicate = again & (dt == 0)
        stale = again & (dt < 0)
        rated = again & (dt > 0)

        d_total = total - prev.total[rows]
        d_errors = errors - prev.errors[rows]
        d_drops = drops - prev.drops[rows]
        quality = np.where(missed, _MISSING, _OK).astype(np.int8)
        quality[duplicate | stale] = _SUSPECT
        backwards = rated & ((d_total < 0) | (d_errors < 0) | (d_drops < 0))
        wrapped = reset = backwards
        if backwards.any():
            m = self.wrap_modulus
            if m >= EXACT_INT:
                # Too wide for int64 arithmetic: the scalar path's job.
                deferred |= backwards
                rated &= ~backwards
                wrapped = reset = backwards = np.zeros_like(backwards)
            else:
                unwrapped_total = d_total % m
                fits = (
                    np.maximum.reduce(
                        (prev.total[rows], prev.errors[rows],
                         prev.drops[rows], total, errors, drops)
                    )
                    < m
                )
                plausible = fits & np.where(
                    capacity_pkts_per_s > 0,
                    unwrapped_total <= 2.0 * capacity_pkts_per_s * dt,
                    unwrapped_total < m // 4,
                )
                wrapped = backwards & plausible
                reset = backwards & ~plausible
                d_total = np.where(
                    wrapped, unwrapped_total, np.where(reset, total, d_total)
                )
                d_errors = np.where(
                    wrapped, d_errors % m, np.where(reset, errors, d_errors)
                )
                d_drops = np.where(
                    wrapped, d_drops % m, np.where(reset, drops, d_drops)
                )
        frozen = (
            rated & ~backwards & (d_total == 0) & (capacity_pkts_per_s > 0)
        )
        bridged = rated & ~backwards & ~frozen & (dt > 1.5 * self.interval_s)
        quality[wrapped | bridged] = _INTERPOLATED
        quality[reset | frozen] = _SUSPECT

        obs_enabled = self.obs.enabled
        if obs_enabled:
            risky = quality >= _SUSPECT
            if self._quarantined_rows:
                risky |= np.isin(rows, list(self._quarantined_rows))
            risky &= rated | missed | duplicate | stale
            deferred |= risky
            rated, missed, duplicate, stale = (
                mask & ~risky for mask in (rated, missed, duplicate, stale)
            )

        stats = self.stats
        stats.samples += int(np.count_nonzero(rated))
        stats.missing += int(np.count_nonzero(missed))
        stats.duplicates_dropped += int(np.count_nonzero(duplicate))
        stats.out_of_order_dropped += int(np.count_nonzero(stale))
        stats.wraps_unwrapped += int(np.count_nonzero(wrapped & rated))
        stats.resets_detected += int(np.count_nonzero(reset & rated))
        stats.freezes_detected += int(np.count_nonzero(frozen & rated))
        stats.gaps_bridged += int(np.count_nonzero(bridged & rated))

        ratios = delta_ratios(
            d_total, d_errors, d_drops, capacity_pkts_per_s, dt
        )
        clamped = []
        for ratio in ratios:
            finite = np.isfinite(ratio)
            ratio = np.where(finite, ratio, 0.0)
            stats.clamps += int(
                np.count_nonzero(
                    rated & (~finite | (ratio < 0.0) | (ratio > 1.0))
                )
            )
            clamped.append(np.clip(ratio, 0.0, 1.0))

        commit = rated | seeding
        prev.set_rows(
            rows[commit], time_s[commit], total[commit], errors[commit],
            drops[commit],
        )
        pushed = rated | missed | duplicate | stale
        pushed_rows = rows[pushed]
        self._ring[pushed_rows, self._pushes[pushed_rows] % self.window] = (
            quality[pushed]
        )
        self._pushes[pushed_rows] += 1
        if obs_enabled:
            counts = self._quality_counts
            for code, count in enumerate(
                np.bincount(quality[pushed], minlength=len(QUALITY_BY_CODE))
            ):
                if count:
                    member = QUALITY_BY_CODE[code]
                    counts[member] = counts.get(member, 0) + int(count)
        return RatedRows(deferred, rated, *clamped, quality)

    def _counters_fit_modulus(
        self, previous: CounterSnapshot, snapshot: CounterSnapshot
    ) -> bool:
        """A wrap can only explain a backwards counter on a device whose
        counters actually live below the modulus; any observed value at or
        above it proves wider counters, making a reset the only remaining
        explanation."""
        m = self.wrap_modulus
        return all(
            v < m
            for v in (
                previous.total,
                previous.errors,
                previous.drops,
                snapshot.total,
                snapshot.errors,
                snapshot.drops,
            )
        )

    def _wrap_plausible(
        self, unwrapped_total: int, dt: float, capacity_pkts_per_s: float
    ) -> bool:
        """A wrap explains a backwards counter only if the unwrapped delta
        fits in the interval's physical capacity (with 2x slack)."""
        if capacity_pkts_per_s <= 0:
            # No capacity reference: accept the wrap when the unwrapped
            # delta is small relative to the modulus (a reset to near zero
            # instead produces a delta close to the full modulus minus the
            # pre-reset value, i.e. usually large).
            return unwrapped_total < self.wrap_modulus // 4
        return unwrapped_total <= 2.0 * capacity_pkts_per_s * dt

    def _ratio(self, numerator: int, denominator: int) -> float:
        if denominator <= 0:
            return 0.0
        value = numerator / denominator
        return self._clamp(value)

    def _clamp(self, value: float) -> float:
        if not math.isfinite(value):
            self.stats.clamps += 1
            return 0.0
        if value < 0.0 or value > 1.0:
            self.stats.clamps += 1
        return min(1.0, max(0.0, value))

    # ------------------------------------------------------------------ #
    # Quarantine
    # ------------------------------------------------------------------ #

    def recent_quality(
        self, direction_id: DirectionId
    ) -> Tuple[int, int]:
        """(degraded, total) sample counts in the direction's window."""
        row = self._index.row_of.get(direction_id)
        if row is None:
            return (0, 0)
        degraded = int(np.count_nonzero(self._ring[row] >= _SUSPECT))
        return (degraded, min(int(self._pushes[row]), self.window))

    def quarantined(self, direction_id: DirectionId) -> bool:
        """Whether the direction's recent telemetry is untrustworthy."""
        degraded, total = self.recent_quality(direction_id)
        if total < self.min_window_samples:
            return False
        return degraded / total >= self.quarantine_threshold

    def link_quarantined(self, link_id: LinkId) -> bool:
        """Whether either direction of a link is quarantined."""
        a, b = link_id
        return self.quarantined((a, b)) or self.quarantined((b, a))

    def quarantined_directions(self) -> int:
        """How many directions are currently quarantined."""
        total = np.minimum(self._pushes, self.window)
        degraded = np.count_nonzero(self._ring >= _SUSPECT, axis=1)
        return int(
            np.count_nonzero(
                (total >= max(1, self.min_window_samples))
                & (degraded / np.maximum(total, 1) >= self.quarantine_threshold)
            )
        )

    def forget(self, direction_id: DirectionId) -> None:
        """Drop the diff baseline for a direction (e.g. after re-cabling).

        The quality window is kept: trust must be re-earned, not reset.
        """
        row = self._index.row_of.get(direction_id)
        if row is not None:
            self._prev.forget(row)


def optical_reading_plausible(reading) -> bool:
    """Whether every power field of an optical reading is physically sane.

    Garbage optics (NaN from a dead DOM sensor, absurd dBm from a firmware
    bug) must not reach Algorithm 1, which compares power levels against
    per-technology thresholds.
    """
    low, high = PLAUSIBLE_DBM_RANGE
    fields = (
        reading.tx_lower_dbm,
        reading.rx_lower_dbm,
        reading.tx_upper_dbm,
        reading.rx_upper_dbm,
    )
    return all(math.isfinite(v) and low <= v <= high for v in fields)
