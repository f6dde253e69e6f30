"""Every switch's path count, read from either path counter.

Runs read ToR fractions and their aggregates only; tests compare the
count of every switch, and the design counts, between
:class:`~repro.core.PathCounter`, :class:`~repro.topology.columnar.
ColumnarPathCounter` and their oracles.
"""

from repro.core import PathCounter


def counts_of(counter, extra_disabled=None):
    """Path count of every switch, by name, with the ``extra_disabled``
    links hypothetically off as well."""
    if not isinstance(counter, PathCounter):
        values = counter._counts_for(extra_disabled).tolist()
        return dict(zip(counter._col.switch_names, values))
    overlay, values = counter._hypothetical(counter._link_rows(extra_disabled))
    values = list(values)
    for row, count in overlay.items():
        values[row] = count
    return _by_name(counter, values)


def baseline_of(counter):
    """Design path count (all links enabled) of every switch, by name."""
    if not isinstance(counter, PathCounter):
        return dict(zip(counter._col.switch_names, counter._baseline.tolist()))
    counter._sync()
    return _by_name(counter, counter._baseline)


def _by_name(counter, values):
    names = counter._names
    return {names[row]: values[row] for row in counter._descending}
