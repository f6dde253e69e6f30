"""Read a :class:`~repro.telemetry.TelemetryStore`'s full history.

A run reads at most a direction's tail; tests read every sample, straight
from the store's columns, to compare it with
:class:`~tests.telemetry.reference.ReferenceStore` or with what was fed in.
"""

from repro.telemetry.sanitizer import QUALITY_BY_CODE

COLUMNS = ("time", "corruption", "congestion", "utilization", "quality")


def column(store, did, name):
    """One direction's values of column ``name`` (one of :data:`COLUMNS`),
    oldest first; ``[]`` for a direction without samples."""
    row = store._index.row_of.get(did)
    length = 0 if row is None else int(store._length[row])
    values = getattr(store, "_" + name)[row, :length].tolist() if length else []
    return [QUALITY_BY_CODE[c] for c in values] if name == "quality" else values


def samples(store, did):
    """One direction's samples as ``ReferenceStore`` keeps them:
    ``(time_s, corruption, congestion, utilization, quality)`` tuples."""
    return list(zip(*(column(store, did, name) for name in COLUMNS)))
