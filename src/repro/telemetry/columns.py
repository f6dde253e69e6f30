"""Row-indexed column state shared by the poller, sanitizer and store.

The array-form poll tick keeps per-direction state in numpy columns, one
row per direction.  :class:`DirectionIndex` hands out the row numbers;
:class:`Baselines` holds a counter snapshot per row: the previous one the
sanitizer diffs against, and the fault transport's rebase points, stale
readings and held samples.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

import numpy as np

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
    """The previous counter snapshot of each row, as int64 counter columns
    (values below 2**53 in magnitude) and a float64 time column;
    ``known`` marks the rows that hold one."""

    def __init__(self):
        self.known = np.zeros(0, dtype=bool)
        self.time_s = np.zeros(0, dtype=np.float64)
        self.total = np.zeros(0, dtype=np.int64)
        self.errors = np.zeros(0, dtype=np.int64)
        self.drops = np.zeros(0, dtype=np.int64)

    def resize(self, rows: int) -> None:
        for name in _BASELINE_COLUMNS:
            setattr(self, name, grow(getattr(self, name), rows))

    def subset(self, rows) -> "Baselines":
        """The baselines of ``rows`` alone, renumbered from 0."""
        part = Baselines()
        for name in _BASELINE_COLUMNS:
            setattr(part, name, getattr(self, name)[rows])
        return part

    def take(self, rows) -> Snapshots:
        """The snapshots of ``rows`` as columns (the entry of an unknown
        row means nothing)."""
        return Snapshots(
            self.time_s[rows], self.total[rows], self.errors[rows],
            self.drops[rows],
        )

    def set_rows(self, rows, time_s, total, errors, drops) -> None:
        """Store one snapshot per row; ``time_s`` is one time or one per
        row."""
        self.known[rows] = True
        self.time_s[rows] = time_s
        self.total[rows] = total
        self.errors[rows] = errors
        self.drops[rows] = drops

    def forget(self, rows) -> None:
        """Drop the baseline of a row, or of an array of rows."""
        self.known[rows] = False


_BASELINE_COLUMNS = ("known", "time_s", "total", "errors", "drops")
