"""The per-sample telemetry path, kept as the test oracle.

An independent, dict-state implementation of what the array poll tick in
``src/`` does: a poll loop (:class:`ReferencePoller`), the fault chain
(one ``apply`` per fault, :class:`ReferenceTransport`), the sanitizer
(:class:`ReferenceSanitizer`) and the store (:class:`ReferenceStore`),
one sample at a time.  It imports only data types from ``repro``, so a
differential test compares two implementations, not one with itself.
"""

import math
import random
from collections import deque
from dataclasses import dataclass, replace

from repro.faults.telemetry_faults import TelemetryFaultConfig
from repro.telemetry.counters import CounterSnapshot
from repro.telemetry.sanitizer import SampleQuality
from repro.topology.elements import Direction

COUNTER_32BIT_MODULUS = 2**32
EXACT_INT = 2**53
DEGRADED = (SampleQuality.SUSPECT, SampleQuality.MISSING)

# ---------------------------------------------------------------------- #
# Faults
# ---------------------------------------------------------------------- #


class CounterWrapFault:
    """The device exposes 32-bit counters: values arrive modulo 2^32."""

    def __init__(self, modulus=COUNTER_32BIT_MODULUS):
        self.modulus = modulus

    def apply(self, rng, direction_id, samples):
        m = self.modulus
        return [
            replace(s, total=s.total % m, errors=s.errors % m, drops=s.drops % m)
            for s in samples
        ]


class CounterResetFault:
    """Switch reboot: the current values become the new zero point, and
    every later reading is reported relative to it."""

    def __init__(self, rate):
        self.rate = rate
        self.base = {}

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            if rng.random() < self.rate:
                self.base[direction_id] = sample
            base = self.base.get(direction_id)
            if base is None:
                out.append(sample)
            else:
                out.append(
                    replace(
                        sample,
                        total=max(0, sample.total - base.total),
                        errors=max(0, sample.errors - base.errors),
                        drops=max(0, sample.drops - base.drops),
                    )
                )
        return out


class FrozenCounterFault:
    """A wedged line card repeats stale counter values for several polls."""

    def __init__(self, rate, duration_polls=3):
        self.rate = rate
        self.duration_polls = duration_polls
        self.stale = {}
        self.left = {}

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            if self.left.get(direction_id, 0) > 0:
                self.left[direction_id] -= 1
                out.append(
                    replace(self.stale[direction_id], time_s=sample.time_s)
                )
                continue
            if rng.random() < self.rate:
                self.stale[direction_id] = sample
                self.left[direction_id] = self.duration_polls - 1
            out.append(sample)
        return out


class MissedPollFault:
    """The SNMP query times out: nothing arrives this poll."""

    def __init__(self, rate):
        self.rate = rate

    def apply(self, rng, direction_id, samples):
        if samples and rng.random() < self.rate:
            return []
        return samples


class DuplicateSampleFault:
    """The collector stores the same sample twice."""

    def __init__(self, rate):
        self.rate = rate

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            out.append(sample)
            if rng.random() < self.rate:
                out.append(sample)
        return out


class DelayedSampleFault:
    """A sample is held one poll and arrives after the next, newer one."""

    def __init__(self, rate):
        self.rate = rate
        self.held = {}

    def apply(self, rng, direction_id, samples):
        out = []
        held = self.held.pop(direction_id, None)
        for sample in samples:
            if held is None and rng.random() < self.rate:
                self.held[direction_id] = sample
                continue
            out.append(sample)
        if held is not None:
            out.append(held)
        return out


class GarbageFault:
    """Sometimes mangles a sample in ways no device should: a non-finite,
    unrepresentable, too wide or non-int counter."""

    def __init__(self, rate):
        self.rate = rate

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            if rng.random() < self.rate:
                total = rng.choice(
                    [float("nan"), 10**400, 2**60, float(sample.total)]
                )
                sample = replace(sample, total=total)
            out.append(sample)
        return out


def config_chain(config):
    """The faults a :class:`TelemetryFaultConfig` sets, in chain order:
    device-side first (they shape the values), then the collection path
    (what arrives, and when)."""
    faults = []
    if config.reset_rate > 0:
        faults.append(CounterResetFault(config.reset_rate))
    if config.freeze_rate > 0:
        faults.append(
            FrozenCounterFault(config.freeze_rate, config.freeze_duration_polls)
        )
    if config.wrap_32bit:
        faults.append(CounterWrapFault())
    if config.missed_poll_rate > 0:
        faults.append(MissedPollFault(config.missed_poll_rate))
    if config.delay_rate > 0:
        faults.append(DelayedSampleFault(config.delay_rate))
    if config.duplicate_rate > 0:
        faults.append(DuplicateSampleFault(config.duplicate_rate))
    return faults


class ReferenceTransport:
    """A fault chain over one seeded RNG, a snapshot at a time."""

    def __init__(self, config: TelemetryFaultConfig):
        self.config = config
        self._rng = random.Random(config.seed)
        self.faults = config_chain(config)
        self.polls_delivered = 0
        self.polls_missed = 0

    def deliver(self, direction_id, snapshot):
        samples = [snapshot]
        for fault in self.faults:
            samples = fault.apply(self._rng, direction_id, samples)
        if samples:
            self.polls_delivered += len(samples)
        else:
            self.polls_missed += 1
        return samples

    def deliver_optical(self, link_id, reading):
        rate = self.config.optical_garbage_rate
        if rate <= 0 or self._rng.random() >= rate:
            return reading
        fields = ["tx_lower_dbm", "rx_lower_dbm", "tx_upper_dbm", "rx_upper_dbm"]
        victim = self._rng.choice(fields)
        garbage = self._rng.choice([float("nan"), 99.9, -127.0])
        return replace(reading, **{victim: garbage})


# ---------------------------------------------------------------------- #
# Sanitizer
# ---------------------------------------------------------------------- #


@dataclass
class ReferenceStats:
    samples: int = 0
    missing: int = 0
    duplicates_dropped: int = 0
    out_of_order_dropped: int = 0
    wraps_unwrapped: int = 0
    resets_detected: int = 0
    freezes_detected: int = 0
    gaps_bridged: int = 0
    clamps: int = 0


@dataclass
class Sample:
    time_s: float
    corruption: float = 0.0
    congestion: float = 0.0
    utilization: float = 0.0
    quality: SampleQuality = SampleQuality.OK


def is_garbage(snapshot):
    """A time that is not finite, or a counter that is not an int below
    2**53 in magnitude."""
    try:
        if not math.isfinite(snapshot.time_s):
            return True
    except (OverflowError, TypeError):
        return True
    return not all(
        isinstance(v, int) and -EXACT_INT < v < EXACT_INT
        for v in (snapshot.total, snapshot.errors, snapshot.drops)
    )


class ReferenceSanitizer:
    """Per-direction dicts: the previous snapshot and a deque of the last
    ``window`` qualities."""

    def __init__(self, interval_s=900.0, wrap_modulus=COUNTER_32BIT_MODULUS,
                 window=8, quarantine_threshold=0.5, min_window_samples=3,
                 obs=None):
        self.interval_s = interval_s
        self.wrap_modulus = wrap_modulus
        self.window = window
        self.quarantine_threshold = quarantine_threshold
        self.min_window_samples = min_window_samples
        self.obs = obs
        self.stats = ReferenceStats()
        self.prev = {}
        self.recent = {}
        self.flagged = set()
        self.quality_counts = {}

    def push(self, did, quality):
        self.recent.setdefault(did, deque(maxlen=self.window)).append(quality)
        self.quality_counts[quality] = self.quality_counts.get(quality, 0) + 1
        # Every push re-judges its direction: a clean push can start a
        # quarantine too, once the window holds enough samples.
        was = did in self.flagged
        now = self.quarantined(did)
        if now == was:
            return
        (self.flagged.add if now else self.flagged.discard)(did)
        if self.obs is None or not self.obs.enabled:
            return
        self.obs.count(
            "sanitizer_quarantine_transitions_total",
            transition="enter" if now else "leave",
        )
        self.obs.gauge("sanitizer_quarantined_directions", len(self.flagged))
        self.obs.event("quarantine", direction="->".join(did), entered=now)

    def flush_obs_counts(self):
        if self.obs is None or not self.obs.enabled:
            return
        for quality, count in sorted(
            (quality.value, count)
            for quality, count in self.quality_counts.items()
        ):
            self.obs.count("sanitizer_samples_total", count, quality=quality)
        self.quality_counts.clear()

    def observe_missing(self, did, time_s):
        self.stats.missing += 1
        self.push(did, SampleQuality.MISSING)
        return Sample(time_s, quality=SampleQuality.MISSING)

    def clamp(self, value):
        if not math.isfinite(value):
            self.stats.clamps += 1
            return 0.0
        if value < 0.0 or value > 1.0:
            self.stats.clamps += 1
        return min(1.0, max(0.0, value))

    def ratio(self, numerator, denominator):
        return self.clamp(numerator / denominator) if denominator > 0 else 0.0

    def ingest(self, did, snapshot, capacity_pkts_per_s=0.0):
        if is_garbage(snapshot):
            self.stats.samples += 1
            self.push(did, SampleQuality.SUSPECT)
            try:
                time_s = float(snapshot.time_s)
            except (OverflowError, TypeError):
                time_s = math.nan
            return Sample(
                time_s if math.isfinite(time_s) else 0.0,
                quality=SampleQuality.SUSPECT,
            )
        previous = self.prev.get(did)
        if previous is None:
            self.prev[did] = snapshot
            return None
        dt = snapshot.time_s - previous.time_s
        if dt == 0:
            self.stats.duplicates_dropped += 1
            self.push(did, SampleQuality.SUSPECT)
            return None
        if dt < 0:
            self.stats.out_of_order_dropped += 1
            self.push(did, SampleQuality.SUSPECT)
            return None

        self.stats.samples += 1
        quality = SampleQuality.OK
        d_total = snapshot.total - previous.total
        d_errors = snapshot.errors - previous.errors
        d_drops = snapshot.drops - previous.drops
        if d_total < 0 or d_errors < 0 or d_drops < 0:
            m = self.wrap_modulus
            unwrapped = d_total % m
            fits = all(
                v < m
                for v in (previous.total, previous.errors, previous.drops,
                          snapshot.total, snapshot.errors, snapshot.drops)
            )
            if capacity_pkts_per_s > 0:
                plausible = unwrapped <= 2.0 * capacity_pkts_per_s * dt
            else:
                plausible = unwrapped < m // 4
            if fits and plausible:
                d_total, d_errors, d_drops = unwrapped, d_errors % m, d_drops % m
                quality = SampleQuality.INTERPOLATED
                self.stats.wraps_unwrapped += 1
            else:
                d_total = snapshot.total
                d_errors = snapshot.errors
                d_drops = snapshot.drops
                quality = SampleQuality.SUSPECT
                self.stats.resets_detected += 1
        elif d_total == 0 and capacity_pkts_per_s > 0:
            quality = SampleQuality.SUSPECT
            self.stats.freezes_detected += 1
        elif dt > 1.5 * self.interval_s:
            quality = SampleQuality.INTERPOLATED
            self.stats.gaps_bridged += 1
        corruption = self.ratio(d_errors, d_total)
        congestion = self.ratio(d_drops, d_total)
        utilization = 0.0
        if capacity_pkts_per_s > 0:
            utilization = self.clamp(d_total / (capacity_pkts_per_s * dt))
        self.prev[did] = snapshot
        self.push(did, quality)
        return Sample(
            snapshot.time_s, corruption, congestion, utilization, quality
        )

    def recent_quality(self, did):
        recent = self.recent.get(did, ())
        return sum(q in DEGRADED for q in recent), len(recent)

    def quarantined(self, did):
        degraded, total = self.recent_quality(did)
        if total < self.min_window_samples:
            return False
        return degraded / total >= self.quarantine_threshold

    def quarantined_directions(self):
        return sum(self.quarantined(did) for did in self.recent)


# ---------------------------------------------------------------------- #
# Store
# ---------------------------------------------------------------------- #


class ReferenceStore:
    """Per-direction lists of ``(time, corruption, congestion,
    utilization, quality)``."""

    def __init__(self):
        self.series = {}
        self.dropped_samples = 0

    def append_rates(self, did, time_s, corruption, congestion, utilization,
                     quality=SampleQuality.OK):
        series = self.series.setdefault(did, [])
        if not math.isfinite(time_s) or (series and time_s <= series[-1][0]):
            self.dropped_samples += 1
            return False
        series.append((time_s, corruption, congestion, utilization, quality))
        return True

    def directions(self):
        return [did for did, series in self.series.items() if series]

    def samples(self, did):
        return list(self.series.get(did, ()))


# ---------------------------------------------------------------------- #
# The poll loop
# ---------------------------------------------------------------------- #


class PerDirectionTraffic:
    """A poller ``traffic_fn`` over the reference's per-direction
    callables: ``packets_fn`` and then ``congestion_fn`` (if any) for each
    polled direction of ``topo`` in turn, so a pair that shares state per
    (direction, tick) sees its calls in the order :class:`ReferencePoller`
    makes them."""

    def __init__(self, topo, packets_fn, congestion_fn=None):
        self.topo = topo
        self.packets_fn = packets_fn
        self.congestion_fn = congestion_fn

    def __call__(self, rows, time_s):
        direction_ids = [self.topo.row_direction(row) for row in rows.tolist()]
        packets_fn, congestion_fn = self.packets_fn, self.congestion_fn
        if congestion_fn is None:
            return [packets_fn(did, time_s) for did in direction_ids], None
        offered, losses = [], []
        for did in direction_ids:
            offered.append(packets_fn(did, time_s))
            losses.append(congestion_fn(did, time_s))
        return offered, losses


class ReferencePoller:
    """The per-sample poll loop: counters, transport, sanitizer and store,
    one direction at a time, in link order, UP before DOWN.  With a ``queue`` (a bounded work queue whose ``push``
    returns ``"dropped"`` for a lost push), deliveries travel in pushes of
    ``batch_size`` directions."""

    def __init__(self, topo, store, packets_fn, sanitizer,
                 congestion_fn=None, interval_s=900.0, transport=None,
                 attribution_fn=None, queue=None, batch_size=64,
                 drain_budget=None):
        self.topo = topo
        self.store = store
        self.packets_fn = packets_fn
        self.congestion_fn = congestion_fn or (lambda did, t: 0.0)
        self.interval_s = interval_s
        self.transport = transport
        self.sanitizer = sanitizer
        self.attribution_fn = attribution_fn
        self.queue = queue
        self.batch_size = batch_size
        self.drain_budget = drain_budget
        self.counters = {}
        self.missed_polls = 0
        self.backpressure_losses = 0
        self.time_s = 0.0

    def poll_once(self):
        self.time_s += self.interval_s
        now = self.time_s
        deliveries = self.collect(now)
        if self.queue is None:
            self.rate_and_store(deliveries, now)
            return now
        for i in range(0, len(deliveries), self.batch_size):
            batch = (now, deliveries[i:i + self.batch_size])
            if self.queue.push(batch) == "dropped":
                for did, _ in batch[1]:
                    self.backpressure_losses += 1
                    self.missed_polls += 1
                    self.sanitizer.observe_missing(did, now)
        for time_s, batch in self.queue.drain(self.drain_budget):
            self.rate_and_store(batch, time_s)
        return now

    def count(self, did, packets, corruption, congestion):
        """Advance a direction's cumulative counters by one interval."""
        if packets < 0:
            raise ValueError("packet count cannot be negative")
        for name, rate in (("corruption", corruption),
                           ("congestion", congestion)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")
        total, errors, drops = self.counters.get(did, (0, 0, 0))
        total += packets
        errors += int(packets * corruption + 0.5)
        drops += int(packets * congestion + 0.5)
        self.counters[did] = total, errors, drops
        return total, errors, drops

    def collect(self, now):
        deliveries = []
        for link in self.topo.links():
            if not link.enabled:
                continue
            source = link
            if self.attribution_fn is not None:
                source = self.topo.link(self.attribution_fn(link.link_id))
            for direction in (Direction.UP, Direction.DOWN):
                did = link.direction_id(direction)
                packets = self.packets_fn(did, now)
                corruption = (
                    source.corruption_rate[direction] if source.enabled
                    else 0.0
                )
                congestion = self.congestion_fn(did, now)
                snap = CounterSnapshot(
                    now, *self.count(did, packets, corruption, congestion)
                )
                delivered = (
                    [snap] if self.transport is None
                    else self.transport.deliver(did, snap)
                )
                deliveries.append((did, delivered))
        return deliveries

    def capacity(self, did):
        return self.topo.find_link(*did).capacity_gbps * 1e9 / 8.0 / 1000.0

    def rate_and_store(self, deliveries, now):
        for did, delivered in deliveries:
            if not delivered:
                self.missed_polls += 1
                self.sanitizer.observe_missing(did, now)
            for snap in delivered:
                self.rate_one(did, snap)

    def rate_one(self, did, snap):
        sample = self.sanitizer.ingest(
            did, snap, capacity_pkts_per_s=self.capacity(did)
        )
        if sample is not None:
            self.store.append_rates(
                did, sample.time_s, sample.corruption, sample.congestion,
                sample.utilization, sample.quality,
            )
