"""Outside-in tracing: wrap the program's public callables from the benchmark.

The program under test is never edited.  A traced run replaces a listed
attribute (a method on its class, or a function in the namespace that looks
it up) with a wrapper that records one span per call, and puts the original
back afterwards.  Spans nest by call order on the single thread the
workloads run on, so a span's parent is whatever span was open when it
started.

Self time is computed as calls return: a span's duration minus the time its
direct children covered.  Summed over all spans it is the time covered by
any span, with nothing counted twice, which is what lets per-layer busy
times add up to the wall clock.

Only spans of at least ``min_span_s`` are kept for the Chrome trace: the
per-sample telemetry calls run millions of times at a few microseconds
each, and a trace file of them would be too large to open.  Every call,
kept or not, is counted and timed in the aggregates.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``hook(counts, args, result)``: runs after a traced call returns, outside
#: its span, to read work counts off the arguments or the result.
Hook = Callable[[Dict[str, float], tuple, object], None]


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` → (the object holding the attribute, attr)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def patch(target: str, make_wrapper: Callable[[Callable], Callable]):
    """Replace ``target`` with ``make_wrapper(original)``; returns the undo.

    Class and static methods keep their kind.  An attribute inherited from
    a base class is overridden on ``target``'s own class and deleted again
    on undo, so the base class is never touched.
    """
    owner, attr = resolve(target)
    own = attr in vars(owner)
    raw = vars(owner)[attr] if own else getattr(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(make_wrapper(raw.__func__))
    else:
        replacement = make_wrapper(raw)
    setattr(owner, attr, replacement)

    def undo() -> None:
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)

    return undo


class Tracer:
    """Span recorder over a set of patched callables.

    Usage: :meth:`probe` each callable, run the workload, call
    :meth:`mark` at phase boundaries (with no span open), then
    :meth:`uninstall`.
    """

    def __init__(self, min_span_s: float = 100e-6):
        self.min_span_s = min_span_s
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: Work counts filled in by hooks, keyed ``<layer>.<metric>``.
        self.counts: Dict[str, float] = {}
        #: Kept spans: (id, parent id or -1, name index, start, end).
        self.spans: List[Tuple[int, int, int, float, float]] = []
        #: Instances created while tracing, by collected class target.
        self.instances: Dict[str, List[object]] = {}
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._undo: List[Callable[[], None]] = []
        self._marks: List[Tuple[str, List[float]]] = []

    # -- installation ---------------------------------------------------- #

    def probe(
        self, target: str, layer: str, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Record a span named ``name`` around every call of ``target``."""
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        self._undo.append(
            patch(target, lambda fn: self._traced(fn, index, hook))
        )

    def collect(self, target: str) -> None:
        """Remember every instance of class ``target`` built from now on,
        so end-of-run stats can be read off objects the harness never
        sees (a sweep job's path counter, a shard's controller)."""
        found = self.instances.setdefault(target, [])

        def make(init):
            @functools.wraps(init)
            def collecting_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                found.append(obj)

            return collecting_init

        self._undo.append(patch(target + ".__init__", make))

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse order)."""
        while self._undo:
            self._undo.pop()()

    def _traced(self, fn: Callable, index: int, hook: Optional[Hook]):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        spans, min_span_s, ids = self.spans, self.min_span_s, self._ids
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]  # [time covered by children, span id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                total_s[index] += duration
                self_s[index] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if duration >= min_span_s:
                    spans.append(
                        (
                            frame[1],
                            -1 if parent is None else parent[1],
                            index,
                            start,
                            end,
                        )
                    )
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Treat ``seconds`` just spent as not belonging to the open span
        (the harness waited; the program did nothing)."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- phases ---------------------------------------------------------- #

    def mark(self, phase: str) -> None:
        """Close ``phase``: self time since the previous mark belongs to it."""
        if self._stack:
            raise RuntimeError("phase boundary inside an open span")
        self._marks.append((phase, list(self.self_s)))

    def phase_self_s(self, phase: str) -> float:
        """Time covered by any span during ``phase``."""
        before = [0.0] * len(self.self_s)
        for name, snapshot in self._marks:
            if name == phase:
                return sum(snapshot) - sum(before)
            before = snapshot
        raise KeyError(phase)

    # -- aggregates ------------------------------------------------------ #

    def by_name(self, name: str) -> Tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) over spans named ``name``."""
        picks = [i for i, n in enumerate(self.names) if n == name]
        if not picks:
            raise KeyError(name)
        return (
            sum(self.calls[i] for i in picks),
            sum(self.total_s[i] for i in picks),
            sum(self.self_s[i] for i in picks),
        )

    def by_layer(self) -> Dict[str, Tuple[int, float]]:
        """layer → (calls, self seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for i, layer in enumerate(self.layers):
            calls, busy = out.get(layer, (0, 0.0))
            out[layer] = (calls + self.calls[i], busy + self.self_s[i])
        return out

    # -- export ---------------------------------------------------------- #

    def write_chrome_trace(self, path) -> int:
        """Write the kept spans in Chrome trace-event format (load it in
        ``chrome://tracing`` or ui.perfetto.dev); returns the span count."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [
            {
                "name": self.names[index],
                "cat": self.layers[index],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id},
            }
            for span_id, parent_id, index, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
