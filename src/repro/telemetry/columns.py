"""Row-indexed column state shared by the poller, sanitizer and store.

The array-form poll tick keeps per-direction state in numpy columns, one
row per direction, and every stage numbers its rows as the poller's
direction table does: row ``2 * link_row`` for a link's up direction,
plus one for its down direction (:meth:`~repro.topology.graph.Topology.
direction_row` resolves a direction by name).  :class:`Baselines` holds
a counter snapshot per row: the previous one the sanitizer diffs
against, and the fault transport's rebase points, stale readings and
held samples.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

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
        """The baselines of ``rows`` alone, in that order."""
        part = Baselines()
        for name in _BASELINE_COLUMNS:
            setattr(part, name, getattr(self, name)[rows])
        return part

    def placed(self, rows: np.ndarray, size: int) -> "Baselines":
        """``size`` rows holding these baselines at ``rows`` (what
        :meth:`subset` undoes), nothing elsewhere."""
        whole = Baselines()
        whole.resize(size)
        for name in _BASELINE_COLUMNS:
            getattr(whole, name)[rows] = getattr(self, name)
        return whole

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
