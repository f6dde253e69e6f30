"""The 15-minute SNMP poller and its per-link monitoring records.

§2: counters and optical power are queried every 15 minutes; "our network
operators found SNMP to be a reliable and lightweight mechanism".  The
poller covers a topology at each tick, derives per-direction loss rates from
counter differences, and appends to a :class:`~repro.telemetry.store.
TelemetryStore`.

A tick is one array pass over all polled directions: int64
device-counter columns are advanced, the transport and the sanitizer
work on the columns, the store appends a column.  Every stage numbers a
direction as the direction table does, ``2 * link_row`` plus one for the
down direction, so the table's rows index them all.  A direction can
deliver several snapshots in one poll (a duplicate, a sample a delay
held back); the first of each is one wave of rows, the later ones
further, much shorter waves, and the sanitizer and the store take a wave
per call.  There is no other path: the per-sample methods
(``transport.deliver``, ``sanitizer.ingest`` / ``observe_missing``,
``store.append_rates``) are one-row calls of the array forms, and the
tick calls none of them; see DESIGN.md §8.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.telemetry.columns import (
    EXACT_INT,
    NO_DELIVERIES,
    Snapshots,
    grow,
)
from repro.telemetry.sanitizer import RatedRows, TelemetrySanitizer
from repro.telemetry.store import TelemetryStore
from repro.topology.elements import Direction, DirectionId, Link, LinkId
from repro.topology.graph import Topology

POLL_INTERVAL_S = 900.0  # 15 minutes


@dataclass
class OpticalReading:
    """Optical power levels of one link at one poll."""

    time_s: float
    tx_lower_dbm: float
    rx_lower_dbm: float
    tx_upper_dbm: float
    rx_upper_dbm: float


@dataclass
class DirectionTable:
    """The polled directions of a topology: two rows per link (UP, then
    DOWN) in link-row order, which is the order a tick processes them in.
    Row ``r`` is :meth:`~repro.topology.graph.Topology.direction_row` of
    its direction, the row the transport, sanitizer, store and congestion
    co-model keep it in.

    Attributes:
        links: The links; rows ``2 * i`` and ``2 * i + 1`` belong to
            ``links[i]``, link row ``i`` of the topology.
        direction_ids: ``(src, dst)`` of each row.
        capacity_pkts_per_s: Line rate of each row, assuming 1000-byte
            packets.
        enabled: Whether each row's link is administratively enabled.
        source: For each row, the row whose cable its FCS counter really
            reads; ``None`` without an ``attribution_fn`` (its own).
    """

    links: List[Link]
    direction_ids: List[DirectionId]
    capacity_pkts_per_s: np.ndarray
    enabled: np.ndarray
    source: Optional[np.ndarray]


@dataclass(frozen=True)
class TelemetryBatch:
    """What one poll delivered for a run of directions.

    Entry ``i`` of ``rows``, ``first`` and ``missed`` belongs to
    direction-table row ``rows[i]``: the first snapshot it delivered (at
    ``time_s``, or earlier for a sample a delay held back), or
    ``missed[i]`` when nothing arrived.  A duplicated or late sample
    makes a direction deliver up to four; those after the first are
    ``later``, entry ``j`` belonging to batch entry ``later_entry[j]``,
    entries ascending, each entry's in arrival order.  Under a transport
    without an array form ``scalar`` lists every entry's delivered
    snapshots instead, and the columns mean nothing.
    """

    time_s: float
    rows: np.ndarray
    first: Snapshots
    missed: np.ndarray
    later_entry: np.ndarray
    later: Snapshots

    def __len__(self) -> int:
        return len(self.rows)

    def parts(self, size: int) -> Iterator["TelemetryBatch"]:
        """Consecutive runs of ``size`` entries (the last may be shorter),
        each as its own batch."""
        # later[cuts[k]:cuts[k + 1]] belongs to the k-th run.
        cuts = self.later_entry.searchsorted(
            np.arange(0, len(self) + size, size)
        ).tolist()
        for k, start in enumerate(range(0, len(self), size)):
            span = slice(start, start + size)
            later = NO_DELIVERIES
            if cuts[k] < cuts[k + 1]:
                run = slice(cuts[k], cuts[k + 1])
                later = self.later_entry[run] - start, self.later.take(run)
            yield TelemetryBatch(
                self.time_s,
                self.rows[span],
                self.first.take(span),
                self.missed[span],
                *later,
            )

    @classmethod
    def join(cls, parts: Sequence["TelemetryBatch"]) -> "TelemetryBatch":
        """Batches of one ``time_s`` as one batch, entries in the order
        given (what :meth:`parts` undoes)."""
        # Each part's later entries count from its own first entry.
        starts = list(accumulate([0] + [len(part) for part in parts[:-1]]))
        counts = [len(part.later_entry) for part in parts]
        return cls(
            parts[0].time_s,
            np.concatenate([part.rows for part in parts]),
            Snapshots.join([part.first for part in parts]),
            np.concatenate([part.missed for part in parts]),
            np.concatenate([part.later_entry for part in parts])
            + np.repeat(starts, counts),
            Snapshots.join([part.later for part in parts]),
        )

    def lost(self) -> "TelemetryBatch":
        """The batch with nothing delivered for any entry."""
        return TelemetryBatch(
            self.time_s, self.rows, self.first,
            np.ones(len(self), dtype=bool), *NO_DELIVERIES,
        )

    def waves(self):
        """The deliveries as array waves: ``(entries, snapshots)`` with
        the first delivery of every entry, then every second one, and so
        on while any entry has one — entries distinct within a wave."""
        yield np.arange(len(self)), self.first
        entry = self.later_entry
        # Arrival number of each later delivery within its entry.
        nth = np.arange(len(entry)) - np.searchsorted(entry, entry)
        for wave in range(int(nth.max()) + 1 if len(nth) else 0):
            pick = nth == wave
            yield entry[pick], self.later.take(pick)


#: A tick's traffic: ``(rows, time_s) -> (offered packets, queue loss
#: rates)``, one entry per direction-table row in ``rows``; ``None`` for no
#: queue loss.
TrafficFn = Callable[
    [np.ndarray, float], Tuple[Sequence[int], Optional[Sequence[float]]]
]


class ConstantTraffic:
    """A :data:`TrafficFn` offering every direction the same packets per
    tick and no queue loss, as one filled array."""

    def __init__(self, packets: int):
        self.packets = packets

    def __call__(self, rows, time_s):
        return np.full(len(rows), self.packets, dtype=np.int64), None


#: A rated batch: per wave the direction rows, sample times and array
#: pass's result.
_Rated = List[Tuple[np.ndarray, np.ndarray, RatedRows]]


class SnmpPoller:
    """Polls a topology every 15 minutes into a telemetry store.

    Traffic is supplied by a callable (the congestion substrate provides
    realistic diurnal traffic; :class:`ConstantTraffic` a fixed load).

    Args:
        topo: Topology to monitor.
        store: Destination store.
        traffic_fn: The tick's traffic (:data:`TrafficFn`), called once
            per tick with the polled rows in table order.
        sanitizer: The :class:`~repro.telemetry.sanitizer.
            TelemetrySanitizer` that diffs delivered snapshots, corrects
            wraps and resets, and flags each sample's quality; every store
            append carries that flag.
        interval_s: Poll spacing.
        transport: Optional delivery shim between the device counters and
            the collector.  Must expose ``deliver_rows(rows, time_s,
            total, errors, drops)``, returning a tick's
            deliveries as :class:`TelemetryBatch` columns (``first``,
            ``missed``, ``later_entry``, ``later``), and
            ``deliver_optical(link_id, reading) -> OpticalReading``; see
            :class:`repro.faults.telemetry_faults.FaultyTransport`.
            ``None`` (the default) keeps the happy path untouched.
        attribution_fn: Optional ``link_id -> link_id`` map modelling a
            wrong inventory database (A3-style miswiring): the FCS
            signature recorded for a link is read from the *physical*
            link its monitored port is actually cabled to.  Traffic and
            drop counters stay with the monitored port (they are
            measured at the switch, not on the cable).  Read once per
            link, when the direction table is built.  ``None`` (the
            default) keeps the happy path untouched.
        obs: Observability recorder; each poll emits a ``poll`` span with
            ``poll.collect`` / ``poll.sanitize`` / ``poll.store`` children
            plus missed-poll counters (no-op by default).
    """

    def __init__(
        self,
        topo: Topology,
        store: TelemetryStore,
        traffic_fn: TrafficFn,
        sanitizer: TelemetrySanitizer,
        interval_s: float = POLL_INTERVAL_S,
        transport=None,
        attribution_fn: Optional[Callable[[LinkId], LinkId]] = None,
        obs: Recorder = NULL_RECORDER,
    ):
        if transport is not None and not hasattr(transport, "deliver_rows"):
            raise TypeError("a transport must have deliver_rows")
        self._topo = topo
        self._store = store
        self._traffic_fn = traffic_fn
        self._attribution_fn = attribution_fn
        self.interval_s = interval_s
        self.transport = transport
        self.sanitizer = sanitizer
        self.obs = obs
        self.missed_polls = 0
        self.time_s = 0.0
        # Built at the first poll, rebuilt after the topology grows; the
        # admin-change subscription keeps its enabled mask current.
        self._table: Optional[DirectionTable] = None
        self._polled: Optional[np.ndarray] = None
        # Cumulative device counters, one row per table row.
        self._total = np.zeros(0, dtype=np.int64)
        self._errors = np.zeros(0, dtype=np.int64)
        self._drops = np.zeros(0, dtype=np.int64)
        topo.subscribe_admin_changes(self._on_admin_change)
        topo.subscribe_structure_changes(self._on_structure_change)

    # ------------------------------------------------------------------ #
    # The direction table
    # ------------------------------------------------------------------ #

    @property
    def directions(self) -> DirectionTable:
        """The direction table (built on first use)."""
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        return table

    def _build_table(self) -> DirectionTable:
        links = list(self._topo.links())
        direction_ids = [
            link.direction_id(direction)
            for link in links
            for direction in (Direction.UP, Direction.DOWN)
        ]
        source = None
        if self._attribution_fn is not None:
            row = self._topo.link_row
            physical = [row[self._attribution_fn(link.link_id)] for link in links]
            source = 2 * np.repeat(physical, 2)
            source[1::2] += 1
        rows = len(direction_ids)
        for name in ("_total", "_errors", "_drops"):
            setattr(self, name, grow(getattr(self, name), rows))
        self._polled = None
        return DirectionTable(
            links=links,
            direction_ids=direction_ids,
            capacity_pkts_per_s=np.repeat(
                [link.capacity_gbps * 1e9 / 8.0 / 1000.0 for link in links], 2
            ),
            enabled=np.repeat([link.enabled for link in links], 2),
            source=source,
        )

    def __getstate__(self):
        # The table is derived from the topology: rebuilt on first use.
        return dict(self.__dict__, _table=None, _polled=None)

    def _on_admin_change(self, link_id: LinkId) -> None:
        table = self._table
        if table is not None:
            row = self._topo.link_row[link_id]
            table.enabled[2 * row : 2 * row + 2] = table.links[row].enabled
            self._polled = None

    def _on_structure_change(self) -> None:
        self._table = None

    def _polled_rows(self) -> np.ndarray:
        """Rows of the enabled links (until the next flip)."""
        if self._polled is None:
            self._polled = np.flatnonzero(self.directions.enabled)
        return self._polled

    def latest(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(time_s, corruption, congestion)`` of the newest stored
        sample of every table row (time NaN where there is none)."""
        return self._store.latest(
            np.arange(len(self.directions.direction_ids))
        )

    # ------------------------------------------------------------------ #
    # The tick
    # ------------------------------------------------------------------ #

    def poll_once(self) -> float:
        """Advance one interval, accumulate counters, store loss rates.

        The poll is organised in three phases — collect (device counters
        and transport delivery), sanitize (diffing / quality rating), and
        store — each traced as a child span of ``poll``.  Rows are
        processed in direction-table order wherever order can be
        observed: traffic callables, fault-transport RNG draws, and
        quarantine transitions.

        Returns:
            The poll timestamp.
        """
        self.time_s += self.interval_s
        now = self.time_s
        obs = self.obs
        with obs.span("poll", cat="telemetry") as span:
            with obs.span("poll.collect", cat="telemetry"):
                batch = self._collect(now)
            with obs.span("poll.sanitize", cat="telemetry"):
                rated = self._sanitize(batch)
            with obs.span("poll.store", cat="telemetry"):
                stored = self._store_rated(rated)
            if obs.enabled:
                span.set(directions=len(batch), stored=stored)
                obs.count("polls_total")
        return now

    def _corruption_rates(self, table: DirectionTable) -> np.ndarray:
        """Ground-truth corruption rate each table row's FCS counter sees."""
        # Table link ``i`` is link row ``i`` (a new link rebuilds the
        # table); only the few links with a rate are visited.
        rates = np.zeros(len(table.direction_ids))
        topo = self._topo
        up, down, link_row = topo.rate_up, topo.rate_down, topo.link_row
        for link_id in topo.links_with_corruption():
            row = link_row[link_id]
            rates[2 * row] = up[row]
            rates[2 * row + 1] = down[row]
        if table.source is not None:
            # FCS errors follow the physical cable; a disabled physical
            # link carries no traffic, hence no errors.
            rates = np.where(
                table.enabled[table.source], rates[table.source], 0.0
            )
        return rates

    def _collect(self, now: float) -> TelemetryBatch:
        """Advance the device counters of every enabled direction and run
        transport delivery."""
        table = self.directions
        rows = self._polled_rows()
        offered, losses = self._traffic_fn(rows, now)
        packets = np.asarray(offered, dtype=np.int64)
        congestion = (
            np.zeros(len(rows)) if losses is None
            else np.asarray(losses, dtype=np.float64)
        )
        corruption = self._corruption_rates(table)[rows]
        if (packets < 0).any():
            raise ValueError("packet count cannot be negative")
        for name, rate in (
            ("corruption", corruption),
            ("congestion", congestion),
        ):
            valid = (rate >= 0.0) & (rate <= 1.0)
            if not valid.all():
                raise ValueError(
                    f"{name} rate {rate[~valid][0]} outside [0, 1]"
                )
        total = self._total[rows] + packets
        if (total >= EXACT_INT).any():
            raise OverflowError(
                "cumulative packet counter reached 2**53: beyond the "
                "exact range of the poll tick's int64/float64 columns"
            )
        # Corruption and congestion losses are disjoint counter events: a
        # corrupted frame is dropped at the CRC check, a congested one at
        # the queue.  Sub-packet expectations are rounded half-up so tiny
        # rates over large intervals still register.
        errors = self._errors[rows] + (packets * corruption + 0.5).astype(
            np.int64
        )
        drops = self._drops[rows] + (packets * congestion + 0.5).astype(
            np.int64
        )
        self._total[rows], self._errors[rows], self._drops[rows] = (
            total, errors, drops,
        )
        if self.transport is not None:
            return TelemetryBatch(
                now, rows,
                *self.transport.deliver_rows(rows, now, total, errors, drops),
            )
        return TelemetryBatch(
            now,
            rows,
            Snapshots(np.full(len(rows), now), total, errors, drops),
            np.zeros(len(rows), dtype=bool),
            *NO_DELIVERIES,
        )

    def _sanitize(self, batch: TelemetryBatch) -> _Rated:
        """Count the missed polls of a batch, then rate it."""
        lost = int(np.count_nonzero(batch.missed))
        if lost:
            self.missed_polls += lost
            if self.obs.enabled:
                self.obs.count("poller_missed_polls_total", lost)
        return self._rate(batch)

    def _rate(self, batch: TelemetryBatch) -> _Rated:
        """Turn a batch into rated samples: one sanitizer pass per wave
        of deliveries.  The quarantine transitions of all waves follow, in
        batch-entry order, each entry's in arrival order (only a
        recorder reads them)."""
        table = self.directions
        record = self.sanitizer.obs.enabled
        waves, flips = [], []
        for wave, (entries, snapshots) in enumerate(batch.waves()):
            rows = batch.rows[entries]
            # Only a first delivery can be missing.
            missed = np.zeros(len(rows), dtype=bool) if waves else batch.missed
            done = self.sanitizer.ingest_rows(
                rows, *snapshots, table.capacity_pkts_per_s[rows], missed,
            )
            waves.append((rows, snapshots.time_s, done))
            flipped = np.flatnonzero(done.flips).tolist() if record else ()
            for i in flipped:
                flips.append((int(entries[i]), wave, done.flips[i] > 0))
        if flips:
            ids = table.direction_ids
            self.sanitizer.emit_transitions([
                (ids[batch.rows[entry]], entered)
                for entry, _wave, entered in sorted(flips)
            ])
        return waves

    def _store_rated(self, rated: _Rated) -> int:
        """Append a batch's samples to the store; returns how many."""
        stored = 0
        for rows, time_s, done in rated:
            keep = done.rated
            stored += int(np.count_nonzero(keep))
            self._store.append_rows(
                rows[keep],
                time_s[keep],
                done.corruption[keep],
                done.congestion[keep],
                done.utilization[keep],
                done.quality[keep],
            )
        return stored

    def run(self, num_polls: int) -> None:
        """Run ``num_polls`` consecutive polls."""
        for _ in range(num_polls):
            self.poll_once()

    def optical_reading(self, link_id: LinkId, conditions) -> OpticalReading:
        """Package a fault condition as an optical poll record.

        Orientation: ``LinkCondition`` side 1 is the receiver of the
        corrupting (UP) direction, i.e. the upper switch.  With a transport
        installed the reading passes through ``deliver_optical``, which may
        corrupt it (garbage-optics fault model).
        """
        reading = OpticalReading(
            time_s=self.time_s,
            tx_lower_dbm=conditions.tx2_dbm,
            rx_lower_dbm=conditions.rx2_dbm,
            tx_upper_dbm=conditions.tx1_dbm,
            rx_upper_dbm=conditions.rx1_dbm,
        )
        if self.transport is not None:
            reading = self.transport.deliver_optical(link_id, reading)
        return reading
