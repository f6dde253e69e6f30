"""In-memory telemetry store: per-direction loss-rate and utilization series.

The measurement analyses (§2–3) consume exactly three aligned series per
link direction: corruption loss rate, congestion loss rate, and utilization.
The store accumulates appends from the poller; runs read a direction's
timestamps, its last sample or its tail.

Appends are **gap-tolerant**: timestamps may jump forward (missed polls,
disabled links), and each sample carries a :class:`~repro.telemetry.
sanitizer.SampleQuality` flag.  Duplicate or out-of-order timestamps are
dropped and counted rather than raised — production monitoring feeds
deliver them routinely, and the store must never take the pipeline down.

Layout: one row per direction in five ``[rows × window]`` columns (time,
the three rates, a quality code) plus a vector counting the samples each
row ever stored; a direction's row is its row in the poller's direction
table (:meth:`~repro.topology.graph.Topology.direction_row`).  The
columns are a ring: sample *k* of a row lives in slot *k* mod
``window``, so a row keeps its newest ``window`` samples and the store's
size does not grow with the run.  The window is what the longest reader
reads (the cause classifier's correlation window); runs read nothing
older.  The poller appends a whole tick with
:meth:`TelemetryStore.append_rows`; :meth:`TelemetryStore.append_rates`
is a one-row call of it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.telemetry.columns import grow
from repro.telemetry.sanitizer import QUALITY_BY_CODE, SampleQuality
from repro.topology.elements import DirectionId
from repro.topology.graph import Topology

_COLUMNS = ("_time", "_corruption", "_congestion", "_utilization", "_quality")


class TelemetryStore:
    """Keeps the newest ``window`` monitoring samples of each direction.

    Samples should arrive in time order per direction; ties, regressions
    and non-finite timestamps are dropped (counted in
    :attr:`dropped_samples`) instead of raising.  ``topo`` is the polled
    topology, whose directions the rows are.
    """

    def __init__(self, topo: Topology, window: int):
        self._topo = topo
        self.window = window
        #: Samples each row ever stored; the newest is in slot
        #: ``(length - 1) % window``.
        self._length = np.zeros(0, dtype=np.int64)
        for name in _COLUMNS:
            dtype = np.int8 if name == "_quality" else np.float64
            setattr(self, name, np.zeros((0, window), dtype=dtype))
        #: Appends discarded for duplicate / backwards / non-finite
        #: timestamps.
        self.dropped_samples: int = 0

    # ------------------------------------------------------------------ #
    # Appends
    # ------------------------------------------------------------------ #

    def _fit(self) -> None:
        """Give every direction of the topology its row (at the first
        append or read, and after the topology grows)."""
        rows = 2 * self._topo.num_links
        if len(self._length) < rows:
            self._length = grow(self._length, rows)
            for name in _COLUMNS:
                setattr(self, name, grow(getattr(self, name), rows))

    def append_rates(
        self,
        direction_id: DirectionId,
        time_s: float,
        corruption: float,
        congestion: float,
        utilization: float,
        quality: SampleQuality = SampleQuality.OK,
    ) -> bool:
        """Append one poll's derived rates for a direction: a one-row
        :meth:`append_rows`.

        Returns:
            ``True`` when stored; ``False`` when the sample was dropped
            because its timestamp does not advance the series (or is not
            finite, which would defeat every later comparison).
        """
        return bool(
            self.append_rows(
                np.array([self._topo.direction_row(direction_id)]),
                np.array([time_s], dtype=np.float64),
                np.array([corruption], dtype=np.float64),
                np.array([congestion], dtype=np.float64),
                np.array([utilization], dtype=np.float64),
                np.array([quality.code], dtype=np.int8),
            )
        )

    def append_rows(
        self,
        rows: np.ndarray,
        time_s: np.ndarray,
        corruption: np.ndarray,
        congestion: np.ndarray,
        utilization: np.ndarray,
        quality: np.ndarray,
    ) -> int:
        """Append one sample to each of the distinct direction ``rows``,
        taken at ``time_s[i]``; ``quality`` holds
        :attr:`SampleQuality.code` values.  A sample whose time is not
        finite or does not advance its row's series is dropped and counted
        in :attr:`dropped_samples`; returns how many were stored."""
        if len(rows) == 0:
            return 0
        self._fit()
        length = self._length[rows]
        window = self.window
        keep = np.isfinite(time_s) & (
            (length == 0) | (time_s > self._time[rows, (length - 1) % window])
        )
        kept = int(np.count_nonzero(keep))
        if kept < len(rows):
            self.dropped_samples += len(rows) - kept
            rows, length, time_s = rows[keep], length[keep], time_s[keep]
            corruption, congestion = corruption[keep], congestion[keep]
            utilization, quality = utilization[keep], quality[keep]
        slot = length % window
        self._time[rows, slot] = time_s
        self._corruption[rows, slot] = corruption
        self._congestion[rows, slot] = congestion
        self._utilization[rows, slot] = utilization
        self._quality[rows, slot] = quality
        self._length[rows] = length + 1
        return kept

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def _slots(self, direction_id: DirectionId, count: int):
        """The row of a direction and the slots of its newest ``count``
        samples (``count`` at most the window), oldest first."""
        row = self._topo.direction_row(direction_id)
        length = int(self._length[row]) if row < len(self._length) else 0
        return row, np.arange(max(0, length - count), length) % self.window

    def directions(self) -> Iterator[DirectionId]:
        """Directions holding at least one sample, in row order."""
        rows = np.flatnonzero(self._length).tolist()
        return map(self._topo.row_direction, rows)

    def times(self, direction_id: DirectionId) -> List[float]:
        """Timestamps of the samples a direction keeps, oldest first (may
        contain gaps)."""
        row, slots = self._slots(direction_id, self.window)
        return self._time[row, slots].tolist() if len(slots) else []

    def tail(
        self, direction_id: DirectionId, count: int
    ) -> Tuple[List[float], List[float]]:
        """The last ``count`` (utilization, congestion) values of a
        direction, oldest first — O(count).

        Raises:
            ValueError: ``count`` exceeds the window the store keeps.
        """
        if count > self.window:
            raise ValueError(f"tail of {count}: the store keeps {self.window}")
        row, slots = self._slots(direction_id, count)
        if not len(slots):
            return [], []
        return (
            self._utilization[row, slots].tolist(),
            self._congestion[row, slots].tolist(),
        )

    def last_sample(
        self, direction_id: DirectionId
    ) -> Optional[Tuple[float, float, float, float, SampleQuality]]:
        """The most recent sample of a direction, or ``None``.

        Returns:
            ``(time_s, corruption, congestion, utilization, quality)``.
            O(1); the chaos loop reads this for every fresh detection.
        """
        row, slots = self._slots(direction_id, 1)
        if not len(slots):
            return None
        last = slots.item()
        return (
            self._time.item(row, last),
            self._corruption.item(row, last),
            self._congestion.item(row, last),
            self._utilization.item(row, last),
            QUALITY_BY_CODE[self._quality.item(row, last)],
        )

    def latest(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(time_s, corruption, congestion)`` of the most recent sample
        of each of ``rows``; the time is NaN for a row without samples."""
        self._fit()
        length = self._length[rows]
        last = (length - 1) % self.window
        times = np.where(length > 0, self._time[rows, last], np.nan)
        return times, self._corruption[rows, last], self._congestion[rows, last]
