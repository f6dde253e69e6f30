"""The live recorder: one object that owns a run's observability state.

An :class:`ObsRecorder` bundles the three tentpole pieces —
:class:`~repro.obs.registry.MetricsRegistry`,
:class:`~repro.obs.tracing.SpanTracer`, and a JSONL event buffer — behind
the :class:`~repro.obs.recorder.Recorder` interface, plus the
:class:`~repro.obs.manifest.RunManifest` that stamps every export.

Construction is cheap; everything is in-memory until an explicit
``write_*`` call, so the simulation's I/O behaviour is unchanged until the
caller asks for artifacts.  The event buffer is bounded like the span
buffer (``dropped_events`` counts overflow) so instrumentation can never
exhaust memory on long replays.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.exporters import (
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.manifest import RunManifest
from repro.obs.recorder import Recorder
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import SpanTracer


class ObsRecorder(Recorder):
    """Recording implementation of the :class:`Recorder` interface.

    Args:
        manifest: Provenance stamped into every artifact (optional).
        max_spans: Span-buffer bound (see :class:`SpanTracer`).
        max_events: Event-buffer bound; overflow bumps ``dropped_events``.
    """

    enabled = True

    def __init__(
        self,
        manifest: Optional[RunManifest] = None,
        max_spans: int = 250_000,
        max_events: int = 250_000,
    ):
        self.manifest = manifest
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(
            sim_time_fn=self._current_sim_time, max_spans=max_spans
        )
        self.events: List[Dict[str, object]] = []
        self.max_events = max_events
        self.dropped_events = 0
        self._sim_time = 0.0

    # ------------------------------------------------------------------ #
    # Recorder interface
    # ------------------------------------------------------------------ #

    def set_sim_time(self, time_s: float) -> None:
        self._sim_time = time_s

    def _current_sim_time(self) -> float:
        """Tracer clock hook (a bound method, not a lambda, so a recorder
        embedded in a service checkpoint pickles cleanly)."""
        return self._sim_time

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        self.registry.inc(name, value, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.registry.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.observe(name, value, **labels)

    def event(self, name: str, **fields) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        record: Dict[str, object] = {
            "type": "event",
            "name": name,
            "sim_time_s": self._sim_time,
        }
        record.update(fields)
        self.events.append(record)

    def span(self, name: str, cat: str = "", **attrs):
        return self.tracer.span(name, cat=cat, **attrs)

    # ------------------------------------------------------------------ #
    # Scrapers for existing stats islands
    # ------------------------------------------------------------------ #

    def scrape_path_counter(self, counter, role: str = "shared") -> None:
        """Export a :class:`~repro.core.path_counting.PathCounterStats`.

        Gauge names use a ``path_counter_stats_`` prefix so they cannot
        clash with the live hot-path counters (e.g.
        ``path_counter_overlay_queries_total``).
        """
        stats = counter.stats
        self.gauge(
            "path_counter_stats_links_visited", stats.links_visited, role=role
        )
        self.gauge(
            "path_counter_stats_full_recounts", stats.full_recounts, role=role
        )
        self.gauge(
            "path_counter_stats_incremental_updates",
            stats.incremental_updates,
            role=role,
        )
        self.gauge(
            "path_counter_stats_overlay_queries",
            stats.overlay_queries,
            role=role,
        )

    def scrape_optimizer_stats(self, stats, role: str = "controller") -> None:
        """Export an aggregated :class:`~repro.core.optimizer.OptimizerStats`.

        Prefixed ``optimizer_stats_`` to stay clear of the live counters
        (e.g. ``optimizer_runs_total``).
        """
        for key, value in stats.as_dict().items():
            self.gauge(f"optimizer_stats_{key}", value, role=role)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def write_metrics(self, path):
        """Write the Prometheus snapshot to ``path``."""
        return write_prometheus(
            path, self.registry, self.manifest, sim_time_s=self._sim_time
        )

    def write_events(self, path):
        """Write the JSONL event stream to ``path``."""
        return write_events_jsonl(path, self.events, self.manifest)

    def write_trace(self, path):
        """Write the Chrome trace to ``path``."""
        return write_chrome_trace(path, self.tracer, self.manifest)

    def summary(self) -> Dict[str, object]:
        """Compact run-level accounting (for the CLI and tests)."""
        return {
            "metrics": len(self.registry),
            "spans": len(self.tracer.spans),
            "dropped_spans": self.tracer.dropped,
            "events": len(self.events),
            "dropped_events": self.dropped_events,
            "sim_time_s": self._sim_time,
        }
