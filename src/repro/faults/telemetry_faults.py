"""Telemetry-path fault models: making the monitoring itself lie.

The paper's CorrOpt consumes production SNMP telemetry that is *not* clean
(§2 discards obviously-wrong counters; §8 notes monitoring stops when links
are disabled), and related systems (007, A3) treat noisy, incomplete drop
telemetry as the hard part.  This module injects those realities into the
polling path so the rest of the pipeline can be tested against them:

- **missed polls** — the SNMP query times out, nothing arrives;
- **32-bit counter wraps** — the device reports counters mod 2^32;
- **counter resets** — a switch reboot restarts counters from zero;
- **frozen counters** — a wedged line card reports stale values;
- **duplicated samples** — the collector stores a sample twice;
- **out-of-order samples** — a delayed sample arrives after a newer one;
- **garbage optical power** — NaN / absurd dBm from a dead DOM sensor.

Faults are seeded, composable, and wired into
:class:`~repro.telemetry.poller.SnmpPoller` through a *transport shim*:
the poller hands each raw :class:`~repro.telemetry.counters.
CounterSnapshot` to ``transport.deliver``, which returns the list of
snapshots that actually reach the collector (empty = missed poll, two =
duplicate or late sample).  The happy path (``transport=None``) never
touches this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.columns import EXACT_INT
from repro.telemetry.counters import CounterSnapshot
from repro.telemetry.poller import OpticalReading
from repro.telemetry.sanitizer import COUNTER_32BIT_MODULUS
from repro.topology.elements import DirectionId, LinkId


@dataclass
class TelemetryFaultConfig:
    """Rates of each telemetry fault, all default-off.

    Rates are per-(direction, poll) probabilities in [0, 1];
    ``wrap_32bit`` is a device property (counters always reported modulo
    2^32), not a probabilistic event.
    """

    seed: int = 0
    missed_poll_rate: float = 0.0
    wrap_32bit: bool = False
    reset_rate: float = 0.0
    freeze_rate: float = 0.0
    freeze_duration_polls: int = 3
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    optical_garbage_rate: float = 0.0

    def __post_init__(self):
        for name in (
            "missed_poll_rate",
            "reset_rate",
            "freeze_rate",
            "duplicate_rate",
            "delay_rate",
            "optical_garbage_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} {value} outside [0, 1]")
        if self.freeze_duration_polls < 1:
            raise ValueError("freeze duration must be >= 1 poll")

    def any_enabled(self) -> bool:
        """Whether any fault can ever fire under this config."""
        return self.wrap_32bit or any(
            getattr(self, name) > 0.0
            for name in (
                "missed_poll_rate",
                "reset_rate",
                "freeze_rate",
                "duplicate_rate",
                "delay_rate",
                "optical_garbage_rate",
            )
        )


class TelemetryFault:
    """One composable fault over a stream of delivered snapshots.

    ``apply`` receives the snapshots that would be delivered this poll for
    one direction (after upstream faults) and returns what actually gets
    through.  Implementations keep per-direction state so effects like
    resets persist across polls.
    """

    def apply(
        self,
        rng: random.Random,
        direction_id: DirectionId,
        samples: List[CounterSnapshot],
    ) -> List[CounterSnapshot]:
        raise NotImplementedError


class CounterWrapFault(TelemetryFault):
    """The device exposes 32-bit counters: values arrive modulo 2^32."""

    def __init__(self, modulus: int = COUNTER_32BIT_MODULUS):
        self.modulus = modulus

    def apply(self, rng, direction_id, samples):
        m = self.modulus
        return [
            replace(s, total=s.total % m, errors=s.errors % m, drops=s.drops % m)
            for s in samples
        ]


class CounterResetFault(TelemetryFault):
    """Switch reboot: counters restart from zero and stay rebased.

    On trigger, the current cumulative values become the new zero point;
    every later reading for that direction is reported relative to it
    (until the next reboot moves the base again).
    """

    def __init__(self, rate: float):
        self.rate = rate
        self._base: Dict[DirectionId, CounterSnapshot] = {}

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            if rng.random() < self.rate:
                self._base[direction_id] = sample
            base = self._base.get(direction_id)
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


class FrozenCounterFault(TelemetryFault):
    """A wedged line card repeats stale counter values for several polls."""

    def __init__(self, rate: float, duration_polls: int = 3):
        self.rate = rate
        self.duration_polls = duration_polls
        self._frozen: Dict[DirectionId, CounterSnapshot] = {}
        self._remaining: Dict[DirectionId, int] = {}

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            remaining = self._remaining.get(direction_id, 0)
            if remaining > 0:
                stale = self._frozen[direction_id]
                self._remaining[direction_id] = remaining - 1
                # Stale values, current timestamp: exactly what a wedged
                # ASIC looks like to the collector.
                out.append(replace(stale, time_s=sample.time_s))
                continue
            if rng.random() < self.rate:
                self._frozen[direction_id] = sample
                self._remaining[direction_id] = self.duration_polls - 1
            out.append(sample)
        return out


class MissedPollFault(TelemetryFault):
    """The SNMP query times out: nothing arrives this poll."""

    def __init__(self, rate: float):
        self.rate = rate

    def apply(self, rng, direction_id, samples):
        if samples and rng.random() < self.rate:
            return []
        return samples


class DuplicateSampleFault(TelemetryFault):
    """The collector stores the same sample twice."""

    def __init__(self, rate: float):
        self.rate = rate

    def apply(self, rng, direction_id, samples):
        out = []
        for sample in samples:
            out.append(sample)
            if rng.random() < self.rate:
                out.append(sample)
        return out


class DelayedSampleFault(TelemetryFault):
    """A sample is held one poll and arrives *after* a newer one.

    When triggered, the current sample is stashed and nothing is delivered;
    on the next poll the fresh sample goes first and the stale one follows
    — an out-of-order arrival at the consumer.
    """

    def __init__(self, rate: float):
        self.rate = rate
        self._held: Dict[DirectionId, CounterSnapshot] = {}

    def apply(self, rng, direction_id, samples):
        out = []
        held = self._held.pop(direction_id, None)
        for sample in samples:
            if held is None and rng.random() < self.rate:
                self._held[direction_id] = sample
                continue
            out.append(sample)
        if held is not None:
            out.append(held)  # after the newer sample: out of order
        return out


#: The built-in faults in the order ``TelemetryFaultConfig`` chains them;
#: :meth:`FaultyTransport.deliver_rows` has an array form for exactly
#: these, in exactly this order.
_CONFIG_ORDER = (
    CounterResetFault,
    FrozenCounterFault,
    CounterWrapFault,
    MissedPollFault,
    DelayedSampleFault,
    DuplicateSampleFault,
)


class _Replay:
    """Stands in for the transport RNG while one row re-runs through the
    scalar chain: hands back the draws :meth:`FaultyTransport.deliver_rows`
    already took for that row, then draws from the live RNG."""

    def __init__(self, rng: random.Random, drawn: List[float]):
        self._rng = rng
        self._drawn = drawn[::-1]

    def random(self) -> float:
        if self._drawn:
            return self._drawn.pop()
        return self._rng.random()


class FaultyTransport:
    """Chains seeded telemetry faults behind the poller's transport hook.

    Args:
        config: Fault rates (a convenience over passing ``faults``).
        faults: Explicit fault chain; overrides ``config`` when given.
        seed: RNG seed when ``faults`` is given without a config.

    All randomness flows from one ``random.Random``, so a run is fully
    reproducible given (seed, poll order).  A config with every rate at
    zero installs *no* faults and draws *no* random numbers: delivery is
    bit-identical to running without a transport at all.
    """

    def __init__(
        self,
        config: Optional[TelemetryFaultConfig] = None,
        faults: Optional[Sequence[TelemetryFault]] = None,
        seed: int = 0,
    ):
        self.config = config
        self._rng = random.Random(config.seed if config is not None else seed)
        if faults is not None:
            self._faults = list(faults)
        elif config is not None:
            self._faults = self._faults_from_config(config)
        else:
            self._faults = []
        self.polls_delivered = 0
        self.polls_missed = 0

    @staticmethod
    def _faults_from_config(
        config: TelemetryFaultConfig,
    ) -> List[TelemetryFault]:
        faults: List[TelemetryFault] = []
        # Device-side faults first (they shape the counter values), then
        # collection-path faults (they shape what arrives, and when).
        if config.reset_rate > 0:
            faults.append(CounterResetFault(config.reset_rate))
        if config.freeze_rate > 0:
            faults.append(
                FrozenCounterFault(
                    config.freeze_rate, config.freeze_duration_polls
                )
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

    # ------------------------------------------------------------------ #

    def deliver(
        self, direction_id: DirectionId, snapshot: CounterSnapshot
    ) -> List[CounterSnapshot]:
        """Run one raw snapshot through the fault chain."""
        samples = [snapshot]
        for fault in self._faults:
            samples = fault.apply(self._rng, direction_id, samples)
        if samples:
            self.polls_delivered += len(samples)
        else:
            self.polls_missed += 1
        return samples

    def _config_chain(self) -> Optional[List[Optional[TelemetryFault]]]:
        """The chain laid out over :data:`_CONFIG_ORDER` (``None`` for an
        absent fault), or ``None`` when it is anything else: a subclass, a
        user fault, a repeated or reordered built-in."""
        slots: List[Optional[TelemetryFault]] = [None] * len(_CONFIG_ORDER)
        last = -1
        for fault in self._faults:
            if type(fault) not in _CONFIG_ORDER:
                return None
            position = _CONFIG_ORDER.index(type(fault))
            if position <= last:
                return None
            slots[position] = fault
            last = position
        return slots

    def deliver_rows(
        self,
        direction_ids: Sequence[DirectionId],
        time_s: float,
        total: np.ndarray,
        errors: np.ndarray,
        drops: np.ndarray,
    ) -> Tuple[
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        Dict[int, List[CounterSnapshot]],
    ]:
        """Array form of :meth:`deliver` for one poll tick.

        Row ``i`` is the raw snapshot ``(time_s, total[i], errors[i],
        drops[i])`` of ``direction_ids[i]`` (int64 counters in
        ``[0, 2**53)``).  The result is exactly what calling
        :meth:`deliver` row by row would produce, with every RNG draw
        taken in that order, but only the rows a fault touches go through
        it: a row that carries per-direction fault state (rebased, frozen,
        held) or on which a reset, freeze, delay or duplicate fires now
        — and every row when the chain is not the one a
        :class:`TelemetryFaultConfig` builds.

        Returns:
            ``(total, errors, drops, missed, scalar)``: the delivered
            counters of the rows that got their one snapshot through
            (wrap applied), a mask of rows where nothing arrived, and
            ``{row: delivered snapshots}`` for the rows that went through
            :meth:`deliver`, whose array entries mean nothing.
        """
        rows = len(direction_ids)
        missed = np.zeros(rows, dtype=bool)
        scalar: Dict[int, List[CounterSnapshot]] = {}

        def through_chain(row: int, drawn: List[float]) -> None:
            live = self._rng
            self._rng = _Replay(live, drawn) if drawn else live
            try:
                scalar[row] = self.deliver(
                    direction_ids[row],
                    CounterSnapshot(
                        time_s, int(total[row]), int(errors[row]),
                        int(drops[row]),
                    ),
                )
            finally:
                self._rng = live

        chain = self._config_chain()
        if chain is None:
            for row in range(rows):
                through_chain(row, [])
            return total, errors, drops, missed, scalar
        reset, freeze, wrap, miss, delay, duplicate = chain
        drawing = [f for f in (reset, freeze, miss, delay, duplicate) if f]
        if drawing:
            stateful = set()
            if reset is not None:
                stateful.update(reset._base)
            if freeze is not None:
                stateful.update(
                    did for did, left in freeze._remaining.items() if left > 0
                )
            if delay is not None:
                stateful.update(delay._held)
            rand = self._rng.random
            for row, did in enumerate(direction_ids):
                if stateful and did in stateful:
                    through_chain(row, [])
                    continue
                for fault in drawing:
                    draw = rand()
                    if draw < fault.rate:
                        break
                else:
                    continue
                if fault is miss:
                    # Nothing downstream of a miss draws, or keeps state
                    # for a stateless row.
                    missed[row] = True
                else:
                    # The faults before this one drew values that did not
                    # fire; infinity replays "did not fire".
                    through_chain(
                        row, [math.inf] * drawing.index(fault) + [draw]
                    )
        if wrap is not None and wrap.modulus < EXACT_INT:
            m = wrap.modulus
            total, errors, drops = total % m, errors % m, drops % m
        lost = int(np.count_nonzero(missed))
        self.polls_missed += lost
        self.polls_delivered += rows - lost - len(scalar)
        return total, errors, drops, missed, scalar

    def deliver_optical(
        self, link_id: LinkId, reading: OpticalReading
    ) -> OpticalReading:
        """Possibly corrupt an optical power reading (NaN / absurd dBm)."""
        rate = self.config.optical_garbage_rate if self.config else 0.0
        if rate <= 0 or self._rng.random() >= rate:
            return reading
        fields = ["tx_lower_dbm", "rx_lower_dbm", "tx_upper_dbm", "rx_upper_dbm"]
        victim = self._rng.choice(fields)
        garbage = self._rng.choice([float("nan"), 99.9, -127.0])
        return replace(reading, **{victim: garbage})
