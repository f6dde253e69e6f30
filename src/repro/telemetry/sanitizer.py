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
from typing import Optional, Sequence, Tuple

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
    # default name hash — but C-speed, for the set probes and count-dict
    # keys that take qualities.
    __hash__ = object.__hash__

    @property
    def code(self) -> int:
        """Position in :data:`QUALITY_BY_CODE`: the int8 the quality
        columns store.  Degraded qualities are the codes from
        ``SUSPECT.code`` up."""
        return _QUALITY_CODES[self]


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
    """

    direction_id: DirectionId
    time_s: float
    corruption: float = 0.0
    congestion: float = 0.0
    utilization: float = 0.0
    quality: SampleQuality = SampleQuality.OK


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


def delta_ratios(d_total, d_errors, d_drops, capacity, dt):
    """Loss and utilization ratios of counter-delta columns, unclamped.

    ``(d_errors / d_total, d_drops / d_total, d_total / (capacity * dt))``
    element-wise, with the loss ratios 0 where nothing was sent and the
    utilization 0 where no capacity is known.  The one differencing rule
    of the poll tick; the sanitizer clamps the result and counts the
    clamps.
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

    All fields are aligned with the input.  ``rated`` rows produced the
    sample in the four value columns.  ``flips`` holds +1 where the row's
    push started a quarantine, -1 where it ended one, 0 elsewhere (see
    :meth:`TelemetrySanitizer.emit_transitions`).
    """

    rated: np.ndarray
    corruption: np.ndarray
    congestion: np.ndarray
    utilization: np.ndarray
    quality: np.ndarray
    flips: np.ndarray


class TelemetrySanitizer:
    """Stateful per-direction snapshot sanitizer.

    Per-direction state (the diff baseline, a ring of the last
    ``window`` quality codes, its degraded count and the quarantine
    verdict) lives in numpy columns, one row per direction.  Every push
    re-judges its row, so the verdict is the same with a recorder or
    without.  :meth:`ingest_rows` rates one delivery per row for a whole
    poll tick; :meth:`ingest` / :meth:`observe_missing` are one-row calls
    of it.

    Args:
        interval_s: Nominal polling interval (gap detection baseline).
        wrap_modulus: Counter width, at most 2**53; deltas are unwrapped
            modulo this when a wrap is the plausible explanation for a
            backwards counter.
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
        if not 0 < wrap_modulus <= EXACT_INT:
            raise ValueError(
                f"wrap_modulus {wrap_modulus} outside (0, 2**53]: the "
                "counter columns are int64 below 2**53"
            )
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
        # slots hold OK, which never counts as degraded), how many codes
        # the row has been given in total, how many of the ring's are
        # degraded, and whether the row is quarantined.
        self._ring = np.zeros((0, window), dtype=np.int8)
        self._pushes = np.zeros(0, dtype=np.int64)
        self._degraded = np.zeros(0, dtype=np.int64)
        self._flagged = np.zeros(0, dtype=bool)
        # Per-quality sample counts, indexed by code, flushed to the
        # recorder at scrape time.
        self._quality_counts = np.zeros(len(QUALITY_BY_CODE), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def rows_for(self, direction_ids: Sequence[DirectionId]) -> np.ndarray:
        """Row numbers of ``direction_ids`` for :meth:`ingest_rows`."""
        rows = self._index.rows(direction_ids)
        if len(self._index) > len(self._pushes):
            size = self._index.capacity_for(len(self._pushes))
            self._prev.resize(size)
            self._ring = grow(self._ring, size)
            self._pushes = grow(self._pushes, size)
            self._degraded = grow(self._degraded, size)
            self._flagged = grow(self._flagged, size)
        return rows

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def flush_obs_counts(self) -> None:
        """Emit the batched per-quality sample counts to the recorder."""
        if not self.obs.enabled:
            return
        counts = sorted(
            (quality.value, int(count))
            for quality, count in zip(QUALITY_BY_CODE, self._quality_counts)
            if count
        )
        for quality, count in counts:
            self.obs.count("sanitizer_samples_total", count, quality=quality)
        self._quality_counts[:] = 0

    def emit_transitions(
        self, transitions: Sequence[Tuple[DirectionId, bool]]
    ) -> None:
        """Emit quarantine transitions ``(direction, entered)`` the passes
        since the last call flagged (:attr:`RatedRows.flips`), in the order
        given: a counter, the quarantined-directions gauge at its running
        count, and a ``quarantine`` event each."""
        obs = self.obs
        running = int(np.count_nonzero(self._flagged)) - sum(
            1 if entered else -1 for _, entered in transitions
        )
        for direction_id, entered in transitions:
            entered = bool(entered)
            running += 1 if entered else -1
            obs.count(
                "sanitizer_quarantine_transitions_total",
                transition="enter" if entered else "leave",
            )
            obs.gauge("sanitizer_quarantined_directions", running)
            obs.event(
                "quarantine",
                direction="->".join(direction_id),
                entered=entered,
            )

    def _ingest_one(
        self, direction_id, time_s, counters, capacity_pkts_per_s, missed
    ) -> RatedRows:
        done = self.ingest_rows(
            self.rows_for([direction_id]),
            np.array([time_s]),
            *(np.array([value], dtype=np.int64) for value in counters),
            np.array([capacity_pkts_per_s], dtype=np.float64),
            np.array([missed]),
        )
        if done.flips[0]:
            self.emit_transitions([(direction_id, done.flips[0] > 0)])
        return done

    def observe_missing(
        self, direction_id: DirectionId, time_s: float
    ) -> SanitizedSample:
        """Record that a poll for ``direction_id`` never arrived: a one-row
        :meth:`ingest_rows`."""
        self._ingest_one(direction_id, math.nan, (0, 0, 0), 0.0, True)
        return SanitizedSample(
            direction_id=direction_id,
            time_s=time_s,
            quality=SampleQuality.MISSING,
        )

    def ingest(
        self,
        direction_id: DirectionId,
        snapshot: CounterSnapshot,
        capacity_pkts_per_s: float = 0.0,
    ) -> Optional[SanitizedSample]:
        """Sanitize one delivered snapshot against the previous one: a
        one-row :meth:`ingest_rows`.

        A snapshot with a non-finite time, or with a counter that is not
        an int below 2**53 in magnitude, is rated SUSPECT (and counted in
        ``stats.samples``) with the baseline kept.

        Returns:
            A rated sample, or ``None`` when the snapshot only seeds the
            baseline or must be discarded (duplicate / out-of-order).
        """
        try:
            stamp = float(snapshot.time_s)
        except (OverflowError, TypeError, ValueError):
            stamp = math.nan
        counters = (snapshot.total, snapshot.errors, snapshot.drops)
        exact = all(
            isinstance(v, (int, np.integer)) and -EXACT_INT < v < EXACT_INT
            for v in counters
        )
        done = self._ingest_one(
            direction_id,
            stamp if exact else math.nan,  # NaN: garbage to the pass
            counters if exact else (0, 0, 0),
            capacity_pkts_per_s,
            False,
        )
        if not done.rated[0]:
            return None
        return SanitizedSample(
            direction_id=direction_id,
            time_s=stamp if math.isfinite(stamp) else 0.0,
            corruption=done.corruption.item(0),
            congestion=done.congestion.item(0),
            utilization=done.utilization.item(0),
            quality=QUALITY_BY_CODE[done.quality.item(0)],
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
    ) -> RatedRows:
        """Rate one delivery for each of the distinct ``rows`` (from
        :meth:`rows_for`): a snapshot taken at ``time_s[i]`` with the given
        int64 counters (below 2**53 in magnitude), or, where ``missed``, no
        delivery.  A row that delivers several snapshots in one poll takes
        one call per snapshot, in arrival order.

        Per row: a missed poll pushes MISSING; a non-finite ``time_s`` is
        garbage, rated SUSPECT with the baseline kept; the first snapshot
        only seeds the baseline; one not newer than the baseline is a
        duplicate (``dt == 0``) or out of order (``dt < 0``), dropped with
        a SUSPECT push; the rest are rated — backwards counters as a wrap
        when every value fits the modulus and the unwrapped delta fits the
        interval's capacity with 2x slack, else as a reset; zero movement
        on a link with capacity as a freeze; a diff across a polling gap
        as INTERPOLATED — and every ratio clamped to [0, 1].
        """
        prev = self._prev
        delivered = ~missed
        known = prev.known[rows]
        dt = time_s - prev.time_s[rows]
        garbage = delivered & ~np.isfinite(time_s)
        seeding = delivered & ~garbage & ~known
        again = delivered & ~garbage & known
        # Not newer than the baseline: counted, held against the window,
        # otherwise ignored.
        duplicate = again & (dt == 0)
        stale = again & (dt < 0)
        rated = again & (dt > 0)

        d_total = total - prev.total[rows]
        d_errors = errors - prev.errors[rows]
        d_drops = drops - prev.drops[rows]
        quality = np.where(missed, _MISSING, _OK).astype(np.int8)
        quality[duplicate | stale | garbage] = _SUSPECT
        backwards = rated & ((d_total < 0) | (d_errors < 0) | (d_drops < 0))
        wrapped = reset = backwards
        if backwards.any():
            m = self.wrap_modulus
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

        stats = self.stats
        stats.samples += int(np.count_nonzero(rated | garbage))
        stats.missing += int(np.count_nonzero(missed))
        stats.duplicates_dropped += int(np.count_nonzero(duplicate))
        stats.out_of_order_dropped += int(np.count_nonzero(stale))
        stats.wraps_unwrapped += int(np.count_nonzero(wrapped))
        stats.resets_detected += int(np.count_nonzero(reset))
        stats.freezes_detected += int(np.count_nonzero(frozen))
        stats.gaps_bridged += int(np.count_nonzero(bridged))

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
            clamped.append(np.where(garbage, 0.0, np.clip(ratio, 0.0, 1.0)))

        commit = rated | seeding
        prev.set_rows(
            rows[commit], time_s[commit], total[commit], errors[commit],
            drops[commit],
        )
        # Push each delivery's quality into its row's ring, keeping the
        # ring's degraded count, then re-judge every pushed row.
        pushed = rated | garbage | missed | duplicate | stale
        pushed_rows = rows[pushed]
        pushed_quality = quality[pushed]
        slots = self._pushes[pushed_rows] % self.window
        self._degraded[pushed_rows] += (pushed_quality >= _SUSPECT).astype(
            np.int64
        ) - (self._ring[pushed_rows, slots] >= _SUSPECT)
        self._ring[pushed_rows, slots] = pushed_quality
        self._pushes[pushed_rows] += 1
        self._quality_counts += np.bincount(
            pushed_quality, minlength=len(QUALITY_BY_CODE)
        )
        held = np.minimum(self._pushes[pushed_rows], self.window)
        now = (held >= self.min_window_samples) & (
            self._degraded[pushed_rows] / held >= self.quarantine_threshold
        )
        flips = np.zeros(len(rows), dtype=np.int8)
        flips[pushed] = np.subtract(
            now, self._flagged[pushed_rows], dtype=np.int8
        )
        self._flagged[pushed_rows] = now
        return RatedRows(rated | garbage, *clamped, quality, flips)

    # ------------------------------------------------------------------ #
    # Quarantine
    # ------------------------------------------------------------------ #

    def quarantined(self, direction_id: DirectionId) -> bool:
        """Whether the direction's recent telemetry is untrustworthy."""
        row = self._index.row_of.get(direction_id)
        return row is not None and bool(self._flagged[row])

    def link_quarantined(self, link_id: LinkId) -> bool:
        """Whether either direction of a link is quarantined."""
        a, b = link_id
        return self.quarantined((a, b)) or self.quarantined((b, a))

    def quarantined_directions(self) -> int:
        """How many directions are currently quarantined."""
        return int(np.count_nonzero(self._flagged))


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
