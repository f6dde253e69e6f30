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

Layout: one row per direction in five ``[rows × capacity]`` columns (time,
the three rates, a quality code) plus a length vector; capacity doubles
when a row fills up.  The poller appends a whole tick with
:meth:`TelemetryStore.append_rows`; :meth:`TelemetryStore.append_rates`
is a one-row call of it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.columns import DirectionIndex, grow
from repro.telemetry.sanitizer import QUALITY_BY_CODE, SampleQuality
from repro.topology.elements import DirectionId

_COLUMNS = ("_time", "_corruption", "_congestion", "_utilization", "_quality")


class TelemetryStore:
    """Accumulates per-direction monitoring samples.

    Samples should arrive in time order per direction; ties, regressions
    and non-finite timestamps are dropped (counted in
    :attr:`dropped_samples`) instead of raising.
    """

    def __init__(self):
        self._index = DirectionIndex()
        self._length = np.zeros(0, dtype=np.int64)
        for name in _COLUMNS:
            dtype = np.int8 if name == "_quality" else np.float64
            setattr(self, name, np.zeros((0, 0), dtype=dtype))
        #: Appends discarded for duplicate / backwards / non-finite
        #: timestamps.
        self.dropped_samples: int = 0

    def _resize(self, rows: int, capacity: int) -> None:
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.zeros((rows, capacity), dtype=old.dtype)
            new[: old.shape[0], : old.shape[1]] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------ #
    # Appends
    # ------------------------------------------------------------------ #

    def _allocate(self) -> None:
        if len(self._index) > len(self._length):
            rows = self._index.capacity_for(len(self._length))
            self._length = grow(self._length, rows)
            self._resize(rows, self._time.shape[1])

    def rows_for(self, direction_ids: Sequence[DirectionId]) -> np.ndarray:
        """Row numbers of ``direction_ids`` for :meth:`append_rows` and
        :meth:`latest`, registering the ones not seen before."""
        rows = self._index.rows(direction_ids)
        self._allocate()
        return rows

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._time.shape[1]
        if needed > capacity:
            self._resize(len(self._length), max(16, 2 * capacity, needed))

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
                self.rows_for([direction_id]),
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
        """Append one sample to each of ``rows`` (distinct row numbers
        from :meth:`rows_for`), taken at ``time_s[i]``; ``quality`` holds
        :attr:`SampleQuality.code` values.  A sample whose time is not
        finite or does not advance its row's series is dropped and counted
        in :attr:`dropped_samples`; returns how many were stored."""
        if len(rows) == 0:
            return 0
        length = self._length[rows]
        self._ensure_capacity(int(length.max()) + 1)
        keep = np.isfinite(time_s) & (
            (length == 0)
            | (time_s > self._time[rows, np.maximum(length, 1) - 1])
        )
        kept = int(np.count_nonzero(keep))
        if kept < len(rows):
            self.dropped_samples += len(rows) - kept
            rows, length, time_s = rows[keep], length[keep], time_s[keep]
            corruption, congestion = corruption[keep], congestion[keep]
            utilization, quality = utilization[keep], quality[keep]
        self._time[rows, length] = time_s
        self._corruption[rows, length] = corruption
        self._congestion[rows, length] = congestion
        self._utilization[rows, length] = utilization
        self._quality[rows, length] = quality
        self._length[rows] = length + 1
        return kept

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def _used(self, direction_id: DirectionId) -> Tuple[Optional[int], int]:
        row = self._index.row_of.get(direction_id)
        return (row, int(self._length[row])) if row is not None else (None, 0)

    def directions(self) -> Iterator[DirectionId]:
        """Directions holding at least one sample."""
        length = self._length
        return (
            did for did, row in self._index.row_of.items() if length[row]
        )

    def times(self, direction_id: DirectionId) -> List[float]:
        """Sample timestamps of one direction (may contain gaps)."""
        row, length = self._used(direction_id)
        return self._time[row, :length].tolist() if length else []

    def tail(
        self, direction_id: DirectionId, count: int
    ) -> Tuple[List[float], List[float]]:
        """The last ``count`` (utilization, congestion) values of a
        direction, oldest first — O(count)."""
        row, length = self._used(direction_id)
        if not length:
            return [], []
        span = slice(max(0, length - count), length)
        return (
            self._utilization[row, span].tolist(),
            self._congestion[row, span].tolist(),
        )

    def last_sample(
        self, direction_id: DirectionId
    ) -> Optional[Tuple[float, float, float, float, SampleQuality]]:
        """The most recent sample of a direction, or ``None``.

        Returns:
            ``(time_s, corruption, congestion, utilization, quality)``.
            O(1); the chaos loop reads this for every fresh detection.
        """
        row, length = self._used(direction_id)
        if not length:
            return None
        last = length - 1
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
        length = self._length[rows]
        self._ensure_capacity(1)
        last = np.maximum(length, 1) - 1
        times = np.where(length > 0, self._time[rows, last], np.nan)
        return times, self._corruption[rows, last], self._congestion[rows, last]

    # ------------------------------------------------------------------ #
    # Pickling (service checkpoints): only the used part of each column
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        state = dict(self.__dict__)
        rows = len(self._index)
        used = int(self._length[:rows].max()) if rows else 0
        state["_length"] = self._length[:rows]
        for name in _COLUMNS:
            state[name] = getattr(self, name)[:rows, :used]
        return state
