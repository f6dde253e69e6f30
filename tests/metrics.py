"""Read single values out of a :class:`~repro.obs.registry.MetricsRegistry`.

Runs export the whole registry; tests check one counter or gauge at a
time.
"""

from repro.obs.registry import _label_key


def value(registry, name, **labels):
    """The value of metric ``name`` at ``labels``; ``None`` when unset."""
    instrument = registry._instruments.get(name)
    if instrument is None:
        return None
    return instrument.values.get(_label_key(labels))


def total(registry, name):
    """A counter summed over all its label sets (0 when absent)."""
    instrument = registry._instruments.get(name)
    if instrument is None:
        return 0.0
    return sum(instrument.values.values())
