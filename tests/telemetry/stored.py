"""Read the samples a :class:`~repro.telemetry.TelemetryStore` keeps,
and the quality window a :class:`~repro.telemetry.TelemetrySanitizer`
keeps.

A run reads at most a direction's tail; tests read every sample the
store's ring still holds, straight from its columns, to compare it with
:class:`~tests.telemetry.reference.ReferenceStore` (its last ``window``
samples) or with what was fed in.  A run reads only the sanitizer's
quarantine verdicts; tests read the window they are judged from.
"""

import numpy as np

from repro.core.diagnosis import CauseClassifier
from repro.telemetry.sanitizer import QUALITY_BY_CODE, SampleQuality

COLUMNS = ("time", "corruption", "congestion", "utilization", "quality")

#: The window runs keep: the cause classifier's correlation window.
WINDOW = CauseClassifier().correlation_window


def column(store, did, name):
    """One direction's retained values of column ``name`` (one of
    :data:`COLUMNS`), oldest first; ``[]`` for a direction without
    samples."""
    row = store._index.row_of.get(did)
    length = 0 if row is None else int(store._length[row])
    slots = np.arange(max(0, length - store.window), length) % store.window
    values = getattr(store, "_" + name)[row, slots].tolist() if length else []
    return [QUALITY_BY_CODE[c] for c in values] if name == "quality" else values


def samples(store, did):
    """One direction's retained samples as ``ReferenceStore`` keeps them:
    ``(time_s, corruption, congestion, utilization, quality)`` tuples."""
    return list(zip(*(column(store, did, name) for name in COLUMNS)))


def recent_quality(sanitizer, did):
    """``(degraded, total)`` sample counts in a direction's quality
    window, as :class:`~tests.telemetry.reference.ReferenceSanitizer`
    reports them.  The sanitizer's running degraded count must equal a
    recount of its ring."""
    row = sanitizer._index.row_of.get(did)
    if row is None:
        return (0, 0)
    degraded = int(sanitizer._degraded[row])
    suspect = SampleQuality.SUSPECT.code
    assert degraded == np.count_nonzero(sanitizer._ring[row] >= suspect)
    return (degraded, min(int(sanitizer._pushes[row]), sanitizer.window))
