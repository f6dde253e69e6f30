"""Span tracing over the closed mitigation loop, dual-clocked.

Every span records **both** clocks:

- wall-clock start/duration (microseconds from ``time.perf_counter``) —
  what the Chrome-trace export uses, so Perfetto shows where real CPU time
  goes;
- sim-time start/end (seconds) — what the run *means*, attached as span
  args, so a 2-day repair and the 40 µs it took to simulate are both
  visible.

Wall clock flows only *out* of the tracer into trace files; it is never
handed back to the simulation, preserving determinism.  Nesting is
tracked with an explicit stack (spans are synchronous context managers),
so parent/depth relationships in the Chrome trace are exact rather than
inferred from timestamp containment.

The span buffer is bounded: after ``max_spans`` spans new ones are counted
in ``dropped`` instead of stored, so week-long instrumented replays cannot
exhaust memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def _zero_sim_time() -> float:
    """Default sim clock (module-level so tracers pickle cleanly)."""
    return 0.0


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    cat: str
    start_wall_us: float
    dur_wall_us: float
    start_sim_s: float
    end_sim_s: float
    depth: int
    args: Dict[str, object] = field(default_factory=dict)


class LiveSpan:
    """An open span; use as a context manager (``with tracer.span(...)``)."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_wall", "_start_sim")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args: Dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **attrs) -> "LiveSpan":
        """Attach (or overwrite) span attributes."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "LiveSpan":
        tracer = self._tracer
        self._start_wall = tracer.clock()
        self._start_sim = tracer.sim_time()
        tracer._stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        end_wall = tracer.clock()
        popped = tracer._stack.pop()
        assert popped is self, "span exited out of order"
        tracer._finish(
            SpanRecord(
                name=self.name,
                cat=self.cat,
                start_wall_us=(self._start_wall - tracer._epoch) * 1e6,
                dur_wall_us=(end_wall - self._start_wall) * 1e6,
                start_sim_s=self._start_sim,
                end_sim_s=tracer.sim_time(),
                depth=len(tracer._stack),
                args=self.args,
            )
        )
        return False


class SpanTracer:
    """Collects :class:`SpanRecord` objects with correct nesting.

    Args:
        sim_time_fn: Zero-arg callable returning current sim time; the
            owning recorder wires this to its ``set_sim_time`` state.
        clock: Wall-clock source (injectable for deterministic tests).
        max_spans: Buffer bound; further spans only bump ``dropped``.
    """

    def __init__(
        self,
        sim_time_fn: Optional[Callable[[], float]] = None,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 250_000,
    ):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.sim_time = sim_time_fn or _zero_sim_time
        self.clock = clock
        self.max_spans = max_spans
        self.spans: List[SpanRecord] = []
        self.dropped = 0
        self._stack: List[LiveSpan] = []
        self._epoch = clock()

    def span(self, name: str, cat: str = "", **attrs) -> LiveSpan:
        return LiveSpan(self, name, cat, dict(attrs))

    def _finish(self, record: SpanRecord) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(record)
