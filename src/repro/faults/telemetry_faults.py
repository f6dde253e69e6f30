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
duplicate or late sample) — or a whole tick at once to ``transport.
deliver_rows``, the same chain as column arithmetic around one Python
loop that only takes the random draws.  Both forms work on one copy of
the per-direction fault state (row-indexed columns) and take the same
draws in the same order.  The happy path (``transport=None``) never
touches this module.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.columns import (
    EXACT_INT,
    NO_DELIVERIES,
    Baselines,
    DirectionIndex,
    Snapshots,
    grow,
)
from repro.telemetry.counters import CounterSnapshot
from repro.telemetry.poller import OpticalReading, deliver_each
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


class _DirectionState(Baselines):
    """What a stateful fault remembers per direction: one counter snapshot
    (rebase point, stale reading, held sample) and, for a freeze, the
    polls it still has to run — row-indexed columns that ``apply`` reaches
    by direction id and :meth:`FaultyTransport.deliver_rows` by row."""

    def __init__(self):
        super().__init__()
        self.index = DirectionIndex()
        self.left = np.zeros(0, dtype=np.int64)

    def _allocate(self) -> None:
        if len(self.index) > len(self.left):
            rows = self.index.capacity_for(len(self.left))
            self.resize(rows)
            self.left = grow(self.left, rows)

    def row(self, direction_id: DirectionId) -> int:
        row = self.index.row(direction_id)
        self._allocate()
        return row

    def rows(self, direction_ids: Sequence[DirectionId]) -> np.ndarray:
        rows = self.index.rows(direction_ids)
        self._allocate()
        return rows

    # Pickled as the directions that hold something (most hold nothing);
    # rows are renumbered on the way back in.

    def __getstate__(self):
        return [
            (direction_id, int(self.left[row]), *astuple(self.get(row)))
            for direction_id, row in self.index.row_of.items()
            if self.known[row]
        ]

    def __setstate__(self, holding):
        self.__init__()
        for direction_id, left, *snapshot in holding:
            row = self.row(direction_id)
            self.set(row, CounterSnapshot(*snapshot))
            self.left[row] = left


class CounterResetFault(TelemetryFault):
    """Switch reboot: counters restart from zero and stay rebased.

    On trigger, the current cumulative values become the new zero point;
    every later reading for that direction is reported relative to it
    (until the next reboot moves the base again).
    """

    def __init__(self, rate: float):
        self.rate = rate
        self._state = _DirectionState()

    def apply(self, rng, direction_id, samples):
        row = self._state.row(direction_id)
        out = []
        for sample in samples:
            if rng.random() < self.rate:
                self._state.set(row, sample)
            base = self._state.get(row)
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
        self._state = _DirectionState()

    def apply(self, rng, direction_id, samples):
        frozen = self._state
        row = frozen.row(direction_id)
        out = []
        for sample in samples:
            if frozen.left[row] > 0:
                frozen.left[row] -= 1
                # Stale values, current timestamp: exactly what a wedged
                # ASIC looks like to the collector.
                out.append(replace(frozen.get(row), time_s=sample.time_s))
                continue
            if rng.random() < self.rate:
                frozen.set(row, sample)
                frozen.left[row] = self.duration_polls - 1
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
        self._state = _DirectionState()

    def apply(self, rng, direction_id, samples):
        row = self._state.row(direction_id)
        out = []
        held = self._state.get(row)
        self._state.forget(row)
        for sample in samples:
            if held is None and rng.random() < self.rate:
                self._state.set(row, sample)
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
        self._row_cache: Optional[Tuple[list, list]] = None

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

    def __getstate__(self):
        # Fault state renumbers its rows when it is unpickled.
        return {**self.__dict__, "_row_cache": None}

    def deliver_rows(
        self,
        direction_ids: Sequence[DirectionId],
        time_s: float,
        total: np.ndarray,
        errors: np.ndarray,
        drops: np.ndarray,
    ):
        """Array form of :meth:`deliver` for one poll tick.

        Row ``i`` is the raw snapshot ``(time_s, total[i], errors[i],
        drops[i])`` of ``direction_ids[i]`` (distinct directions, int64
        counters in ``[0, 2**53)``).  The result is exactly what calling
        :meth:`deliver` row by row would produce, with every RNG draw
        taken in that order, on the per-direction fault state
        :meth:`deliver` keeps, so the two can be mixed.  For the chain a
        :class:`TelemetryFaultConfig` builds, one Python pass takes the
        draws (:meth:`_draw`) and the rest is column arithmetic; any other
        chain sends every row through :meth:`deliver`.

        Returns:
            ``(first, missed, later_entry, later, scalar)``: the first
            snapshot each row delivered (:class:`~repro.telemetry.columns.
            Snapshots`; a held sample's ``time_s`` is older than the
            tick's), a mask of rows where nothing arrived, and the
            deliveries after a row's first — ``later`` entry ``j`` belongs
            to row ``later_entry[j]``, rows ascending, each row's in
            arrival order.  ``scalar`` is ``None``, or for a chain without
            an array form the list :meth:`deliver` returned for each row,
            the rest meaning nothing.
        """
        rows = len(direction_ids)
        times = np.full(rows, time_s)
        chain = self._config_chain()
        if chain is not None:
            reset, freeze, wrap, miss, delay, duplicate = chain
            states = [
                fault and fault._state for fault in (reset, freeze, delay)
            ]
            if any(state and state.inexact_rows() for state in states):
                chain = None  # a counter the columns cannot hold
        if chain is None:
            scalar = deliver_each(
                self.deliver, direction_ids, time_s, total, errors, drops
            )
            first = Snapshots(times, total, errors, drops)
            return first, np.zeros(rows, dtype=bool), *NO_DELIVERIES, scalar

        # Each fault's rows of these directions, kept while the ids stay
        # what they were (the poller's do until a link flaps).
        if self._row_cache is None or self._row_cache[0] != direction_ids:
            ids = list(direction_ids)
            self._row_cache = ids, [
                state and state.rows(ids) for state in states
            ]
        base_rows, frozen_rows, held_rows = self._row_cache[1]
        no_row = np.zeros(rows, dtype=bool)
        frozen = freeze._state.left[frozen_rows] > 0 if freeze else no_row
        held = delay._state.known[held_rows] if delay else no_row
        reset_at, freeze_at, miss_at, stash_at, again_at, held_again_at = (
            self._draw(rows, chain, frozen, held)
        )

        if reset is not None:
            base = reset._state
            base.set_rows(
                base_rows[reset_at], time_s, total[reset_at],
                errors[reset_at], drops[reset_at],
            )
            rebased = base.known[base_rows]
            total, errors, drops = (
                np.where(rebased, np.maximum(0, now - zero), now)
                for now, zero in zip(
                    (total, errors, drops), base.take(base_rows)[1:]
                )
            )
        if freeze is not None:
            state = freeze._state
            # Stale values under the current timestamp.
            total, errors, drops = (
                np.where(frozen, stale, now)
                for now, stale in zip(
                    (total, errors, drops), state.take(frozen_rows)[1:]
                )
            )
            state.left[frozen_rows[frozen]] -= 1
            state.set_rows(
                frozen_rows[freeze_at], time_s, total[freeze_at],
                errors[freeze_at], drops[freeze_at],
            )
            state.left[frozen_rows[freeze_at]] = freeze.duration_polls - 1
        if wrap is not None and wrap.modulus < EXACT_INT:
            m = wrap.modulus
            total, errors, drops = total % m, errors % m, drops % m
        first = released = Snapshots(times, total, errors, drops)

        fresh = np.ones(rows, dtype=bool)
        fresh[miss_at] = False
        fresh[stash_at] = False
        if delay is not None:
            state = delay._state
            released = state.take(held_rows)
            state.forget(held_rows[held])
            state.set_rows(held_rows[stash_at], *first.take(stash_at))
        # After a row's first delivery: the fresh sample again, the held
        # one (it follows a fresh one, or arrives alone), the held again.
        after = [
            (again_at, first),
            (np.flatnonzero(held & fresh), released),
            (held_again_at, released),
        ]
        later_entry = np.concatenate(
            [np.asarray(at, dtype=np.int64) for at, _ in after]
        )
        later = Snapshots.join([source.take(at) for at, source in after])
        # Row order; stable, so each row's stay in arrival order.
        order = np.argsort(later_entry, kind="stable")
        if held.any():
            first = Snapshots(
                *(
                    np.where(fresh, now, was)
                    for now, was in zip(first, released)
                )
            )
        missed = ~(fresh | held)
        self.polls_missed += int(np.count_nonzero(missed))
        self.polls_delivered += rows + len(later_entry) - int(
            np.count_nonzero(missed)
        )
        return first, missed, later_entry[order], later.take(order), None

    def _draw(self, rows: int, chain, frozen: np.ndarray, held: np.ndarray):
        """Take one tick's draws for :meth:`deliver_rows`: for each row in
        turn the draws :meth:`deliver` would take (reset one; freeze one
        unless the row is frozen; miss one; delay one if the sample
        survived and nothing is held; duplicate one per sample that
        reaches it).  Returns the rows on which a reset, a freeze, a miss
        and a delay fired and those whose fresh and whose held sample a
        duplicate fired on."""
        reset, freeze, _wrap, miss, delay, duplicate = chain
        rand = self._rng.random
        fired = [], [], [], [], [], []
        reset_at, freeze_at, miss_at, stash_at, again_at, held_again_at = fired

        def finish(row: int, at: int) -> None:
            # The rest of a row's draws: drawing fault number `at` has just
            # fired on a row that is neither frozen nor holding a sample
            # (the ones before it did not), or, at -1, nothing is drawn yet.
            if at == 0 or (at < 0 and reset and rand() < reset.rate):
                reset_at.append(row)
            if at == 1 or (
                at < 1 and freeze and not frozen[row] and rand() < freeze.rate
            ):
                freeze_at.append(row)
            fresh = True
            if at == 2 or (at < 2 and miss and rand() < miss.rate):
                miss_at.append(row)
                fresh = False
            if at == 3 or (
                at < 3 and delay and fresh and not held[row]
                and rand() < delay.rate
            ):
                stash_at.append(row)
                fresh = False
            if duplicate:
                if fresh and (at == 4 or rand() < duplicate.rate):
                    again_at.append(row)
                if held[row] and rand() < duplicate.rate:
                    held_again_at.append(row)

        stages = [
            (fault.rate, at)
            for at, fault in enumerate((reset, freeze, miss, delay, duplicate))
            if fault is not None
        ]
        if stages:
            start = 0
            for stop in np.flatnonzero(frozen | held).tolist() + [rows]:
                for row in range(start, stop):
                    for rate, at in stages:
                        if rand() < rate:
                            finish(row, at)
                            break
                if stop < rows:
                    finish(stop, -1)
                start = stop + 1
        return fired

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
