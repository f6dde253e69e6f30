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

A :class:`TelemetryFaultConfig` sets the rates; a seeded
:class:`FaultyTransport` applies them between the device counters of
:class:`~repro.telemetry.poller.SnmpPoller` and the collector, a whole
tick at once (``deliver_rows``): the random draws are read ahead in
blocks and Python runs only on the rows where a fault fires; the rest is
column arithmetic over the per-direction fault state.
``deliver`` is a one-row call of it.  The happy path (``transport=None``)
never touches this module.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.streams import ReadAhead
from repro.telemetry.columns import EXACT_INT, Baselines, Snapshots, grow
from repro.telemetry.counters import CounterSnapshot
from repro.telemetry.poller import OpticalReading
from repro.telemetry.sanitizer import COUNTER_32BIT_MODULUS
from repro.topology.elements import DirectionId, LinkId
from repro.topology.graph import Topology


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


#: The fault state columns, each a :class:`Baselines`: the reset's rebase
#: point, the freeze's stale reading and the delay's held sample.
_STATES = ("_rebase", "_stale", "_held")


class FaultyTransport:
    """Applies seeded telemetry faults behind the poller's transport hook.

    The chain, per direction and poll: reset (a reboot rebases the
    counters persistently), freeze (stale values under fresh timestamps
    for ``freeze_duration_polls``), 32-bit wrap, missed poll, delay (the
    sample is held and arrives one poll late, after the fresh one),
    duplicate.

    All randomness flows from one ``random.Random``, so a run is fully
    reproducible given (seed, poll order).  A config with every rate at
    zero draws *no* random numbers: delivery is bit-identical to running
    without a transport at all.

    The fault state of a direction of ``topo`` lives in its row of the
    poller's direction table (:meth:`~repro.topology.graph.Topology.
    direction_row`).
    """

    def __init__(self, topo: Topology, config: TelemetryFaultConfig):
        self._topo = topo
        self.config = config
        self._rng = random.Random(config.seed)
        self.polls_delivered = 0
        self.polls_missed = 0
        # Per-direction fault state: three snapshot columns and the polls
        # a freeze still has to run.
        self._rebase = Baselines()
        self._stale = Baselines()
        self._held = Baselines()
        self._left = np.zeros(0, dtype=np.int64)
        # The draws of `_rng`, read ahead from its state (not pickled).
        self._ahead: Optional[ReadAhead] = None

    def _fit(self) -> None:
        """Give every direction of the topology its row."""
        size = 2 * self._topo.num_links
        if len(self._left) < size:
            for name in _STATES:
                getattr(self, name).resize(size)
            self._left = grow(self._left, size)

    # Pickled as the rows that hold something (most hold nothing), put
    # back in place on the way in; the stream at its logical position,
    # without the read-ahead.

    def __getstate__(self):
        holding = np.flatnonzero(
            self._rebase.known | self._stale.known | self._held.known
        )
        state = dict(
            self.__dict__, _left=self._left[holding], _holding=holding
        )
        del state["_ahead"]
        state["_rng"] = random.Random()
        state["_rng"].setstate(self.rng_state())
        for name in _STATES:
            state[name] = getattr(self, name).subset(holding)
        return state

    def __setstate__(self, state):
        holding = state.pop("_holding")
        size = int(holding[-1]) + 1 if len(holding) else 0
        left = np.zeros(size, dtype=np.int64)
        left[holding] = state["_left"]
        self.__dict__.update(state, _ahead=None, _left=left)
        for name in _STATES:
            setattr(self, name, state[name].placed(holding, size))

    # ------------------------------------------------------------------ #

    def deliver(
        self, direction_id: DirectionId, snapshot: CounterSnapshot
    ) -> List[CounterSnapshot]:
        """Run one raw snapshot through the faults: a one-row
        :meth:`deliver_rows`.  Returns what reaches the collector in
        arrival order (empty = missed poll, several = duplicated / late
        samples).

        Raises:
            ValueError: A counter is not an int in ``[0, 2**53)``.
        """
        counters = (snapshot.total, snapshot.errors, snapshot.drops)
        if not all(
            isinstance(v, (int, np.integer)) and 0 <= v < EXACT_INT
            for v in counters
        ):
            raise ValueError(f"counters {counters} outside [0, 2**53)")
        first, missed, _entries, later = self.deliver_rows(
            np.array([self._topo.direction_row(direction_id)]),
            float(snapshot.time_s),
            *(np.array([v], dtype=np.int64) for v in counters),
        )
        arrived = [] if missed[0] else [zip(*(c.tolist() for c in first))]
        arrived.append(zip(*(c.tolist() for c in later)))
        return [CounterSnapshot(*row) for rows in arrived for row in rows]

    def deliver_rows(
        self,
        rows: np.ndarray,
        time_s: float,
        total: np.ndarray,
        errors: np.ndarray,
        drops: np.ndarray,
    ):
        """One poll tick through the faults.

        Entry ``i`` is the raw snapshot ``(time_s, total[i], errors[i],
        drops[i])`` of direction row ``rows[i]`` (distinct rows, int64
        counters in ``[0, 2**53)``); entries take their draws in order.
        :meth:`_draw` takes the draws; the rest is column arithmetic.

        Returns:
            ``(first, missed, later_entry, later)``: the first snapshot
            each entry delivered (:class:`~repro.telemetry.columns.
            Snapshots`; a held sample's ``time_s`` is older than the
            tick's), a mask of entries where nothing arrived, and the
            deliveries after an entry's first — ``later`` item ``j``
            belongs to entry ``later_entry[j]``, entries ascending, each
            entry's in arrival order.
        """
        config = self.config
        count = len(rows)
        self._fit()
        frozen = self._left[rows] > 0
        held = self._held.known[rows]
        reset_at, freeze_at, miss_at, stash_at, again_at, held_again_at = (
            self._draw(count, frozen, held)
        )

        rebase = self._rebase
        if reset_at:
            rebase.set_rows(
                rows[reset_at], time_s, total[reset_at], errors[reset_at],
                drops[reset_at],
            )
        rebased = rebase.known[rows]
        if rebased.any():
            total, errors, drops = (
                np.where(rebased, np.maximum(0, now - zero), now)
                for now, zero in zip(
                    (total, errors, drops), rebase.take(rows)[1:]
                )
            )
        if frozen.any() or freeze_at:
            stale = self._stale
            # Stale values under the current timestamp.
            total, errors, drops = (
                np.where(frozen, old, now)
                for now, old in zip(
                    (total, errors, drops), stale.take(rows)[1:]
                )
            )
            self._left[rows[frozen]] -= 1
            stale.set_rows(
                rows[freeze_at], time_s, total[freeze_at],
                errors[freeze_at], drops[freeze_at],
            )
            self._left[rows[freeze_at]] = config.freeze_duration_polls - 1
        if config.wrap_32bit:
            m = COUNTER_32BIT_MODULUS
            total, errors, drops = total % m, errors % m, drops % m
        first = released = Snapshots(
            np.full(count, time_s), total, errors, drops
        )

        fresh = np.ones(count, dtype=bool)
        fresh[miss_at] = False
        fresh[stash_at] = False
        if held.any() or stash_at:
            released = self._held.take(rows)
            self._held.forget(rows[held])
            self._held.set_rows(rows[stash_at], *first.take(stash_at))
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
        self.polls_delivered += count + len(later_entry) - int(
            np.count_nonzero(missed)
        )
        return first, missed, later_entry[order], later.take(order)

    def _draw(self, rows: int, frozen: np.ndarray, held: np.ndarray):
        """Take one tick's draws for :meth:`deliver_rows`, row by row, for
        each fault whose rate is positive: reset one; freeze one unless
        the row is frozen; miss one; delay one if the sample survived and
        nothing is held; duplicate one per sample that reaches it.
        Returns the rows on which a reset, a freeze, a miss and a delay
        fired and those whose fresh and whose held sample a duplicate
        fired on.  Python runs only on frozen and held rows and where a
        fault fires: the draws are read ahead, and the other rows take one
        draw per drawing fault each, a stride-``k`` stretch of the block."""
        config = self.config
        reset, freeze, miss, delay, duplicate = rates = (
            config.reset_rate,
            config.freeze_rate,
            config.missed_poll_rate,
            config.delay_rate,
            config.duplicate_rate,
        )
        fired = [], [], [], [], [], []
        reset_at, freeze_at, miss_at, stash_at, again_at, held_again_at = fired

        def finish(row: int, at: int, stuck=False, holds=False) -> None:
            # The rest of a row's draws: drawing fault number `at` has just
            # fired on a row that is neither frozen nor holding a sample
            # (the ones before it did not), or, at -1, nothing is drawn yet
            # on a row that is frozen (`stuck`) or holds one (`holds`).
            if at == 0 or (at < 0 and reset > 0 and rand() < reset):
                reset_at.append(row)
            if at == 1 or (
                at < 1 and freeze > 0 and not stuck and rand() < freeze
            ):
                freeze_at.append(row)
            fresh = True
            if at == 2 or (at < 2 and miss > 0 and rand() < miss):
                miss_at.append(row)
                fresh = False
            if at == 3 or (
                at < 3 and delay > 0 and fresh and not holds
                and rand() < delay
            ):
                stash_at.append(row)
                fresh = False
            if duplicate > 0:
                if fresh and (at == 4 or rand() < duplicate):
                    again_at.append(row)
                if holds and rand() < duplicate:
                    held_again_at.append(row)

        stages = [(rate, at) for at, rate in enumerate(rates) if rate > 0]
        if not stages:
            return fired
        if self._ahead is None:
            self._ahead = ReadAhead(self._rng)
        k = len(stages)
        # A row takes at most one draw per stage, plus a held duplicate's.
        block = self._ahead.take(rows * k + int(np.count_nonzero(held)))
        draws = memoryview(block)
        # Loud draws: below some stage's rate (no other draw can fire); then
        # the block's end, which no run of quiet rows passes.
        loud = np.flatnonzero(block < max(rates))
        level = block[loud].tolist()
        loud = loud.tolist() + [len(block)]
        pos = i = start = 0

        def rand() -> float:
            nonlocal pos
            pos += 1
            return draws[pos - 1]

        for stop in np.flatnonzero(frozen | held).tolist() + [rows]:
            while True:
                # Rows start..stop-1 take k draws each from pos until a
                # loud draw is below the rate of the stage it falls on.
                end = pos + (stop - start) * k
                i = bisect_left(loud, pos, i)
                while loud[i] < end:
                    row, stage = divmod(loud[i] - pos, k)
                    if level[i] < stages[stage][0]:
                        break
                    i += 1
                else:
                    pos = end
                    break
                pos = loud[i] + 1
                finish(start + row, stages[stage][1])
                start += row + 1
            if stop < rows:
                finish(stop, -1, frozen[stop], held[stop])
            start = stop + 1
        self._ahead.consume(pos)
        return fired

    def rng_state(self) -> tuple:
        """The fault stream's ``getstate()`` past every draw taken so far;
        the draws still to come are unchanged."""
        if self._ahead is None:
            return self._rng.getstate()
        return self._ahead.getstate()

    def deliver_optical(
        self, link_id: LinkId, reading: OpticalReading
    ) -> OpticalReading:
        """Possibly corrupt an optical power reading (NaN / absurd dBm).
        No run calls this: ``optical_garbage_rate`` is inert there."""
        rate = self.config.optical_garbage_rate
        if rate <= 0:
            return reading
        self._rng.setstate(self.rng_state())  # settle before drawing per call
        self._ahead = None
        if self._rng.random() >= rate:
            return reading
        fields = ["tx_lower_dbm", "rx_lower_dbm", "tx_upper_dbm", "rx_upper_dbm"]
        victim = self._rng.choice(fields)
        garbage = self._rng.choice([float("nan"), 99.9, -127.0])
        return replace(reading, **{victim: garbage})
