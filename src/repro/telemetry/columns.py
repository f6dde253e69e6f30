"""Row-indexed column state shared by the poller, sanitizer and store.

The array-form poll tick keeps per-direction state in numpy columns, one
row per direction.  :class:`DirectionIndex` hands out the row numbers;
:class:`Baselines` holds the previous counter snapshot of every row, the
thing both the sanitizer and the poller's raw differencing diff against.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.telemetry.counters import CounterSnapshot
from repro.topology.elements import DirectionId

#: Integers of smaller magnitude convert to float64 exactly, so int64
#: column arithmetic and Python's integer arithmetic give the same rates.
EXACT_INT = 2**53


def grow(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` extended along axis 0 to ``rows`` zero-filled rows."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class Snapshots(NamedTuple):
    """Counter snapshots as aligned columns, one entry each (int64
    counters below 2**53)."""

    time_s: np.ndarray
    total: np.ndarray
    errors: np.ndarray
    drops: np.ndarray

    def take(self, index) -> "Snapshots":
        """The entries ``index`` selects (a slice, a mask or indexes)."""
        time_s, total, errors, drops = self
        return Snapshots(
            time_s[index], total[index], errors[index], drops[index]
        )

    @classmethod
    def join(cls, parts: Sequence["Snapshots"]) -> "Snapshots":
        return cls(*(np.concatenate(columns) for columns in zip(*parts)))


#: ``(entry, snapshots)`` of no delivery at all.
NO_DELIVERIES = (
    np.zeros(0, dtype=np.int64),
    Snapshots(np.zeros(0), *(np.zeros(0, dtype=np.int64),) * 3),
)


class DirectionIndex:
    """``DirectionId`` → row number, in registration order."""

    def __init__(self):
        self.row_of: Dict[DirectionId, int] = {}

    def __len__(self) -> int:
        return len(self.row_of)

    def row(self, direction_id: DirectionId) -> int:
        """The row of one direction, registering it if new."""
        row = self.row_of.get(direction_id)
        if row is None:
            row = self.row_of[direction_id] = len(self.row_of)
        return row

    def rows(self, direction_ids: Sequence[DirectionId]) -> np.ndarray:
        """The rows of many directions, registering the new ones."""
        count = len(direction_ids)
        try:  # one C-level pass when none is new
            lookup = self.row_of.__getitem__
            return np.fromiter(map(lookup, direction_ids), np.int64, count)
        except KeyError:
            return np.fromiter(map(self.row, direction_ids), np.int64, count)

    def capacity_for(self, allocated: int) -> int:
        """Rows to allocate (doubling) so every registered row exists."""
        return max(len(self.row_of), 2 * allocated)


class Baselines:
    """The previous counter snapshot of each row.

    Counters live in int64 columns.  A snapshot those cannot hold exactly
    (a value that is not an ``int`` or reaches ±2**53 — garbage from a
    faulty device, never the poller's own counters) is kept as the object
    it arrived as; :meth:`inexact_rows` lists those rows so array code can
    leave them to the scalar path.
    """

    def __init__(self):
        self.known = np.zeros(0, dtype=bool)
        self.time_s = np.zeros(0, dtype=np.float64)
        self.total = np.zeros(0, dtype=np.int64)
        self.errors = np.zeros(0, dtype=np.int64)
        self.drops = np.zeros(0, dtype=np.int64)
        self._objects: Dict[int, CounterSnapshot] = {}

    def resize(self, rows: int) -> None:
        for name in ("known", "time_s", "total", "errors", "drops"):
            setattr(self, name, grow(getattr(self, name), rows))

    def get(self, row: int) -> Optional[CounterSnapshot]:
        if not self.known[row]:
            return None
        if row in self._objects:
            return self._objects[row]
        return CounterSnapshot(
            self.time_s.item(row),
            self.total.item(row),
            self.errors.item(row),
            self.drops.item(row),
        )

    def set(self, row: int, snapshot: CounterSnapshot) -> None:
        counters = (snapshot.total, snapshot.errors, snapshot.drops)
        if all(type(v) is int and -EXACT_INT < v < EXACT_INT for v in counters):
            self.time_s[row] = snapshot.time_s
            self.total[row], self.errors[row], self.drops[row] = counters
            self._objects.pop(row, None)
        else:
            self._objects[row] = snapshot
        self.known[row] = True

    def take(self, rows) -> Snapshots:
        """The snapshots of ``rows`` as columns (rows outside
        :meth:`inexact_rows`; the entry of an unknown row means nothing)."""
        return Snapshots(
            self.time_s[rows], self.total[rows], self.errors[rows],
            self.drops[rows],
        )

    def set_rows(self, rows, time_s, total, errors, drops) -> None:
        """Array form of :meth:`set` for rows outside :meth:`inexact_rows`
        and counters below 2**53; ``time_s`` is one time or one per row."""
        self.known[rows] = True
        self.time_s[rows] = time_s
        self.total[rows] = total
        self.errors[rows] = errors
        self.drops[rows] = drops

    def forget(self, rows) -> None:
        """Drop the baseline of a row, or of an array of rows."""
        self.known[rows] = False
        if self._objects:
            for row in np.atleast_1d(rows).tolist():
                self._objects.pop(row, None)

    def inexact_rows(self) -> Sequence[int]:
        return list(self._objects)
