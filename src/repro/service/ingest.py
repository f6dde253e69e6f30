"""The streaming telemetry ingestion front-end.

In batch chaos runs the poller hands every sample straight to the
sanitizer inside one synchronous ``poll_once``.  The service interposes
the collector-side reality the paper describes (§2: SNMP pushes arrive
from hundreds of thousands of interfaces): device counters arrive as
**batched pushes** which flow through the chaos fault transport (wraps,
freezes, garbage — injected into the *live* stream) and then into a
:class:`~repro.service.queues.BoundedWorkQueue` before the sanitizer
sees them.

Backpressure is explicit: a full queue defers batches to the next poll
tick (they arrive late, exactly like a slow collector) or drops them
(the sanitizer is told the poll went missing, feeding the same
quality/quarantine machinery that handles chaos faults).  Either path is
fully accounted — see :meth:`BoundedWorkQueue.accounting_ok`.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import List, Optional

from repro.service.queues import DROPPED, BoundedWorkQueue
from repro.telemetry.poller import SnmpPoller, TelemetryBatch

__all__ = ["IngestingPoller", "TelemetryBatch"]


def drain_problems(batch_size: int, drain_budget: Optional[int]) -> List[str]:
    """What is wrong with a push size and a drain budget (none: ``[]``)."""
    problems = []
    if batch_size < 1:
        problems.append("batch_size must be >= 1")
    if drain_budget is not None and drain_budget < 1:
        problems.append("drain_budget must be >= 1 (or None)")
    return problems


class IngestingPoller(SnmpPoller):
    """A poller whose sanitize/store phases run behind a bounded queue.

    Each poll tick:

    1. **collect** — accumulate device counters and run the (possibly
       fault-injecting) transport, as in :class:`SnmpPoller`;
    2. **push** — slice the tick's :class:`~repro.telemetry.poller.
       TelemetryBatch` (already routed through the fault transport, so
       chaos faults live in the stream) into pushes of ``batch_size``
       directions and offer each to the queue;
       dropped batches are reported to the sanitizer as missing polls;
    3. **drain** — pop up to ``drain_budget`` batches (oldest first,
       deferred backlog ahead of fresh pushes), join consecutive batches
       of one timestamp into one array, and run sanitize + store for
       each at its *original* timestamp.

    With an ample queue and no drain budget this degenerates to the
    batch poller's behaviour (same samples, same order); under load the
    queue is where the service bends instead of breaking.
    """

    def __init__(
        self,
        *args,
        queue: BoundedWorkQueue,
        batch_size: int = 64,
        drain_budget: Optional[int] = None,
        **kwargs,
    ):
        problems = drain_problems(batch_size, drain_budget)
        if problems:
            raise ValueError("; ".join(problems))
        super().__init__(*args, **kwargs)
        self.queue = queue
        self.batch_size = batch_size
        self.drain_budget = drain_budget
        #: Directions whose pushes were dropped by backpressure (they
        #: surface as missed polls downstream; counted separately so the
        #: two causes stay distinguishable).
        self.backpressure_losses = 0

    def poll_once(self) -> float:
        self.time_s += self.interval_s
        now = self.time_s
        obs = self.obs
        with obs.span("poll", cat="telemetry") as span:
            with obs.span("poll.collect", cat="telemetry"):
                collected = self._collect(now)
            with obs.span("poll.ingest", cat="telemetry"):
                self._push_batches(collected)
                drained = self.queue.drain(self.drain_budget)
            with obs.span("poll.store", cat="telemetry"):
                stored = sum(
                    self._store_rated(
                        self._sanitize(TelemetryBatch.join(list(parts)))
                    )
                    for _time_s, parts in groupby(
                        drained, key=attrgetter("time_s")
                    )
                )
            if obs.enabled:
                span.set(
                    directions=len(collected),
                    batches=len(drained),
                    stored=stored,
                    backlog=self.queue.pending(),
                )
                obs.count("polls_total")
        return now

    def _push_batches(self, collected: TelemetryBatch) -> None:
        for batch in collected.parts(self.batch_size):
            if self.queue.push(batch) == DROPPED:
                # The push is gone: downstream this is indistinguishable
                # from a missed poll, so route it through the same
                # quality machinery the chaos faults use.
                self.backpressure_losses += len(batch)
                self.missed_polls += len(batch)
                self._rate(batch.lost())
