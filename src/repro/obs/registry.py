"""A session-scoped metrics registry: labeled counters, gauges, histograms.

Prometheus-shaped but dependency-free: instruments are identified by name,
carry a help string and a type, and hold one scalar (or one bucket vector)
per label-set.  The registry is deliberately forgiving — instruments are
created on first use — because instrumentation points should never raise.

Sim-time awareness: the registry itself stores no timestamps (a snapshot
is whatever the instruments hold *now*); exporters stamp snapshots with
both sim time and provenance headers at write time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, tuned for durations in seconds (spans) and
#: small counts (queue depths, region sizes).  ``+Inf`` is implicit.
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
    1000.0,
    10000.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Histogram:
    """One label-set's bucketed observations (cumulative, Prometheus-style)."""

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self):
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[str, int]]:
        """(le, cumulative count) pairs ending with ``+Inf``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for upper, n in zip(self.buckets, self.counts):
            running += n
            out.append((repr(float(upper)), running))
        running += self.counts[-1]
        out.append(("+Inf", running))
        return out


@dataclass
class Instrument:
    """A named metric family: one value (or histogram) per label-set."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    values: Dict[LabelKey, float] = field(default_factory=dict)
    histograms: Dict[LabelKey, Histogram] = field(default_factory=dict)
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        return iter(sorted(self.values.items()))


class MetricsRegistry:
    """Get-or-create instrument store keyed by metric name.

    Names follow Prometheus conventions (``snake_case``, unit-suffixed
    where meaningful); a name must keep one kind for the registry's
    lifetime — a kind clash raises, because silently recording a counter
    into a gauge is a bug worth failing loudly on (this is the one place
    the registry is strict).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(
        self,
        name: str,
        kind: str,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = Instrument(
                name=name,
                kind=kind,
                help=help,
                buckets=buckets or DEFAULT_BUCKETS,
            )
            self._instruments[name] = inst
        elif inst.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"not {kind}"
            )
        if help and not inst.help:
            inst.help = help
        return inst

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        inst = self._get(name, "counter")
        key = _label_key(labels)
        inst.values[key] = inst.values.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        inst = self._get(name, "gauge")
        inst.values[_label_key(labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        inst = self._get(name, "histogram")
        key = _label_key(labels)
        histogram = inst.histograms.get(key)
        if histogram is None:
            histogram = Histogram(buckets=inst.buckets)
            inst.histograms[key] = histogram
        histogram.observe(value)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def instruments(self) -> List[Instrument]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)
