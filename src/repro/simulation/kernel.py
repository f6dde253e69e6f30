"""The unified event-driven simulation kernel.

One loop, two senses.  The paper's evaluation (§7) and the chaos
extension exercise the *same* mitigation loop — corruption onsets,
checker/optimizer decisions, ticketing, repair completions, penalty
accounting — but until this module the repo maintained it twice: an
event-driven oracle loop and a tick-based chaos loop each owned a
private heap, repair scheduler and snapshot bookkeeping.
:class:`SimulationKernel` owns all of that once, parameterized by a
:class:`SensingPipeline` that decides how the world is *observed*:

- :class:`OracleSensing` — ground-truth onsets reach the strategy
  directly (the §7.1 apparatus);
- :class:`TelemetrySensing` — nothing reaches the controller except via
  poller → (fault-injected transport) → sanitizer → store → detection →
  hardened controller (the chaos apparatus), with polls as first-class
  heap events instead of a fixed tick loop.

Event model
-----------

Heap entries are ``(time_s, kind, subkey, tie, payload)`` tuples:

- ``time_s`` — when the kernel *processes* the event.  Pipelines may
  quantize via :meth:`SensingPipeline.event_time`: oracle sensing is the
  identity; telemetry sensing rounds up to the next poll tick (a
  poll-driven system cannot react between polls) and drops events beyond
  the last tick, reproducing the historical tick loop exactly.
- ``kind`` — ``EVENT_ONSET < EVENT_REPAIR < EVENT_POOL_CHECK <
  EVENT_POLL``; at equal times, ground truth is updated before repairs
  complete, and both before the poll observes the world.
- ``subkey`` — the *requested* (pre-quantization) time, so co-quantized
  events keep their true causal order.
- ``tie`` — monotone counter, making heap order total and deterministic
  (and equal to insertion order as the final tiebreak).

Bit-compatibility contract: runs through the kernel are bit-identical to
the pre-kernel loops — pinned by tests/simulation/test_golden_equivalence
and the committed fig17/fig18 reports.
"""

from __future__ import annotations

import heapq
import itertools
import random
from bisect import bisect_left
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.controller import CorrOptController
from repro.core.diagnosis import (
    CAUSE_BOTH,
    CAUSE_CONGESTION,
    CAUSE_CORRUPTION,
    CAUSE_MISWIRED,
    CAUSE_UNKNOWN,
    CauseClassifier,
    DiagnosisStats,
    LinkDiagnosis,
)
from repro.core.path_counting import PathCounter
from repro.core.penalty import PenaltyFn, linear_penalty, ordered_sum
from repro.core.resilience import (
    AuditLog,
    BreakerState,
    CircuitBreaker,
    OnsetDebouncer,
)
from repro.faults.telemetry_faults import FaultyTransport, TelemetryFaultConfig
from repro.obs.health import HealthTracker
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.simulation.metrics import ChaosMetrics, SimulationMetrics
from repro.simulation.results import RunResult
from repro.simulation.strategies import MitigationStrategy
from repro.telemetry.poller import ConstantTraffic, SnmpPoller
from repro.telemetry.sanitizer import TelemetrySanitizer
from repro.telemetry.store import TelemetryStore
from repro.ticketing.queue import TechnicianPoolQueue
from repro.ticketing.ticket import Ticket
from repro.topology.elements import Direction, LinkId, LinkState
from repro.topology.graph import Topology
from repro.workloads.trace import CorruptionTrace

DAY_S = 86_400.0

#: Event kinds, in their at-equal-time processing order.
EVENT_ONSET, EVENT_REPAIR, EVENT_POOL_CHECK, EVENT_POLL = 0, 1, 2, 3

KIND_NAMES = {
    EVENT_ONSET: "onset",
    EVENT_REPAIR: "repair",
    EVENT_POOL_CHECK: "pool-check",
    EVENT_POLL: "poll",
}


class SensingPipeline:
    """How a kernel run observes the world and reacts to it.

    A pipeline owns everything *perception-side*: what an onset does to
    the observable state, how (and whether) it is detected, what penalty
    the run records, and which extra result sections the
    :class:`~repro.simulation.results.RunResult` carries.  The kernel
    owns everything *mechanics-side*: the heap, repair/pool scheduling,
    the repair RNG, and metric snapshots.

    To add a third sensing backend, subclass this, implement the
    ``handle_*`` hooks plus :meth:`current_penalty`, and declare
    ``span_names`` / ``snapshot_kinds``; see DESIGN.md §11.
    """

    #: Observability category for event spans.
    span_cat: str = "kernel"
    #: Per-kind span names for the kinds this pipeline schedules.
    span_names: Dict[int, str] = KIND_NAMES
    #: Kinds after which the kernel records a metrics snapshot (only for
    #: events inside the run window).
    snapshot_kinds: FrozenSet[int] = frozenset(
        (EVENT_ONSET, EVENT_REPAIR, EVENT_POOL_CHECK, EVENT_POLL)
    )
    #: Strategy label stamped on the result.
    strategy_name: str = ""

    kernel: "SimulationKernel"

    def attach(self, kernel: "SimulationKernel") -> None:
        """Bind to the kernel (topology, RNG, metrics, recorder)."""
        self.kernel = kernel

    def bootstrap(self) -> None:
        """Schedule the initial event population (trace onsets, polls)."""

    def event_time(self, time_s: float) -> Optional[float]:
        """Map a requested event time to its processing time.

        Return ``None`` to drop the event (it can never be processed —
        e.g. it lands beyond the last poll of a poll-driven run)."""
        return time_s

    # -- event hooks ---------------------------------------------------- #

    def handle_onset(self, time_s: float, event) -> None:
        raise NotImplementedError

    def handle_repair(self, time_s: float, link_id: LinkId) -> None:
        raise NotImplementedError

    def handle_poll(self, time_s: float) -> None:
        raise NotImplementedError

    def pool_repair_succeeded(self, time_s: float, link_id: LinkId) -> None:
        """A technician-pool visit fixed ``link_id`` (oracle-only today)."""
        raise NotImplementedError

    # -- snapshot hooks ------------------------------------------------- #

    def current_penalty(self) -> float:
        raise NotImplementedError

    def tor_fractions(self) -> Optional[Tuple[float, float]]:
        """(worst, average) ToR path fractions, or ``None`` to skip."""
        return None

    def after_snapshot(self, time_s: float, worst: float) -> None:
        """Post-snapshot bookkeeping (e.g. capacity-violation checks)."""

    # -- run end -------------------------------------------------------- #

    def finish(self) -> None:
        """End-of-run accounting before the result is assembled."""

    def result_sections(self) -> Dict[str, object]:
        """Extra :class:`RunResult` fields contributed by this pipeline."""
        return {}


class SimulationKernel:
    """One event heap, one repair model, one snapshot path.

    Args:
        topo: Topology (mutated during the run; pass a copy to reuse).
        duration_s: Run window; events past it still process (repairs
            landing late still restore the topology) but are not
            snapshotted, keeping the metric series consistent with
            ``penalty_integral`` (which clips to the window).
        pipeline: The sensing pipeline (attached on construction).
        repair_accuracy: First-attempt repair success probability.
        service_s: Ticket service time per attempt (§5.2: two days).
        seed: RNG seed for repair outcomes.
        full_repair_cycles: Simulate failed repairs as re-enable →
            re-detect → re-disable cycles (Figure 12) instead of folding
            them into a doubled service time.
        technician_pool: When set, repairs flow through a FIFO queue
            drained by this many technicians; failed repairs resubmit
            the ticket for another service round.
        obs: Observability recorder; each processed event emits a span
            and per-kind counters (no-op by default).
    """

    def __init__(
        self,
        topo: Topology,
        duration_s: float,
        pipeline: SensingPipeline,
        repair_accuracy: float = 0.8,
        service_s: float = 2.0 * DAY_S,
        seed: int = 0,
        full_repair_cycles: bool = False,
        technician_pool: Optional[int] = None,
        obs: Recorder = NULL_RECORDER,
    ):
        if not 0.0 <= repair_accuracy <= 1.0:
            raise ValueError("repair accuracy outside [0, 1]")
        self.topo = topo
        self.duration_s = duration_s
        self.repair_accuracy = repair_accuracy
        self.service_s = service_s
        self.full_repair_cycles = full_repair_cycles
        self.rng = random.Random(seed)
        self.obs = obs
        self.metrics = SimulationMetrics()
        self._heap: List[Tuple[float, int, float, int, object]] = []
        self._tiebreak = itertools.count()
        #: Links with an outstanding scheduled repair.  Mirrors heap
        #: residency: dropped (beyond-horizon) repairs stay pending
        #: forever, exactly like never-popped entries in the old loops.
        self._pending_repairs: Set[LinkId] = set()
        self._pool: Optional[TechnicianPoolQueue] = None
        self._next_pool_check: Optional[float] = None
        if technician_pool is not None:
            self._pool = TechnicianPoolQueue(
                num_technicians=technician_pool,
                service_time_s=service_s,
                obs=obs,
            )
        self._started = False
        self._result: Optional[RunResult] = None
        self.pipeline = pipeline
        pipeline.attach(self)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(self, kind: int, time_s: float, payload=None) -> None:
        """Push an event; the pipeline may quantize or drop it."""
        when = self.pipeline.event_time(time_s)
        if when is None:
            return
        heapq.heappush(
            self._heap, (when, kind, time_s, next(self._tiebreak), payload)
        )

    def schedule_repair(self, time_s: float, link_id: LinkId) -> None:
        """Send a disabled link to repair under the configured model."""
        if self._pool is not None:
            self._pool.submit(Ticket(link_id=link_id, created_s=time_s), time_s)
            self.schedule_pool_check()
            return
        if self.full_repair_cycles:
            done = time_s + self.service_s
        else:
            # Paper model: failed first repairs fold into a doubled stay.
            attempts = 1 if self.rng.random() < self.repair_accuracy else 2
            done = time_s + attempts * self.service_s
        self._pending_repairs.add(link_id)
        self.schedule(EVENT_REPAIR, done, link_id)

    def repair_pending(self, link_id: LinkId) -> bool:
        return link_id in self._pending_repairs

    def schedule_pool_check(self) -> None:
        """Schedule a wake-up at the pool's next completion time.

        At most one check is outstanding: a new one is pushed only when
        the next completion precedes the currently scheduled wake-up
        (duplicate entries for the same completion would pop as empty
        drains).
        """
        completion = self._pool.next_completion()
        if completion is None:
            return
        if (
            self._next_pool_check is not None
            and completion >= self._next_pool_check
        ):
            return
        self._next_pool_check = completion
        self.schedule(EVENT_POOL_CHECK, completion)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self, time_s: float) -> None:
        self.metrics.penalty.record(time_s, self.pipeline.current_penalty())
        fractions = self.pipeline.tor_fractions()
        if fractions is not None:
            worst, average = fractions
            self.metrics.worst_tor_fraction.record(time_s, worst)
            self.metrics.average_tor_fraction.record(time_s, average)
            self.pipeline.after_snapshot(time_s, worst)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def _handle_pool_check(self, time_s: float) -> None:
        """Drain finished technician visits; failed repairs re-enter the
        queue for another service round (each failed attempt adds another
        full service time, §5.2)."""
        self._next_pool_check = None
        for ticket in self._pool.pop_due(time_s):
            if self.rng.random() < self.repair_accuracy:
                self.pipeline.pool_repair_succeeded(time_s, ticket.link_id)
            else:
                self.metrics.failed_repairs += 1
                self._pool.submit(
                    Ticket(link_id=ticket.link_id, created_s=time_s), time_s
                )
        self.schedule_pool_check()

    def start(self) -> None:
        """Bootstrap the pipeline's initial event population (idempotent).

        Separated from :meth:`run` so a long-running service can bootstrap
        once, then drain the heap in checkpointable slices via
        :meth:`run_until`.
        """
        if self._started:
            return
        self._started = True
        self.pipeline.bootstrap()

    def run_until(self, time_limit_s: float) -> int:
        """Process every event with heap time ``<= time_limit_s``.

        Requires :meth:`start` to have run.  Returns the number of events
        processed.  Passing ``float("inf")`` drains the heap completely;
        repeated calls with increasing limits process exactly the same
        event sequence as one full drain, which is what makes a
        checkpoint boundary a safe kill point.
        """
        pipeline = self.pipeline
        duration_s = self.duration_s
        obs = self.obs
        span_names = pipeline.span_names
        span_cat = pipeline.span_cat
        snapshot_kinds = pipeline.snapshot_kinds
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= time_limit_s:
            time_s, kind, _subkey, _tie, payload = heapq.heappop(heap)
            obs.set_sim_time(time_s)
            with obs.span(span_names[kind], cat=span_cat):
                if kind == EVENT_ONSET:
                    pipeline.handle_onset(time_s, payload)
                elif kind == EVENT_REPAIR:
                    self._pending_repairs.discard(payload)
                    pipeline.handle_repair(time_s, payload)
                elif kind == EVENT_POOL_CHECK:
                    self._handle_pool_check(time_s)
                else:
                    pipeline.handle_poll(time_s)
                if obs.enabled:
                    obs.count("sim_events_total", kind=KIND_NAMES[kind])
            if kind in snapshot_kinds and time_s <= duration_s:
                self.snapshot(time_s)
            processed += 1
        return processed

    def events_pending(self) -> int:
        """Events still on the heap."""
        return len(self._heap)

    def finish(self) -> RunResult:
        """End-of-run accounting; assemble the result (idempotent)."""
        if self._result is None:
            self.pipeline.finish()
            self._result = RunResult(
                strategy_name=self.pipeline.strategy_name,
                duration_s=self.duration_s,
                metrics=self.metrics,
                **self.pipeline.result_sections(),
            )
        return self._result

    def run(self) -> RunResult:
        """Drain the heap to the end; return the recorded metrics."""
        self.start()
        self.run_until(float("inf"))
        return self.finish()


# ---------------------------------------------------------------------- #
# Oracle sensing: ground truth straight to the strategy (§7.1)
# ---------------------------------------------------------------------- #


class OracleSensing(SensingPipeline):
    """Direct-trace sensing: every onset reaches the strategy instantly.

    Answers "how good are the decisions when the inputs are perfect?" —
    the paper's experimental apparatus.
    """

    span_cat = "engine"
    span_names = {
        EVENT_ONSET: "sim.onset",
        EVENT_REPAIR: "sim.repair",
        EVENT_POOL_CHECK: "sim.pool-check",
    }
    snapshot_kinds = frozenset((EVENT_ONSET, EVENT_REPAIR, EVENT_POOL_CHECK))

    def __init__(
        self,
        trace: CorruptionTrace,
        strategy: MitigationStrategy,
        penalty_fn: PenaltyFn = linear_penalty,
        track_capacity: bool = True,
    ):
        self.trace = trace
        self.strategy = strategy
        self.penalty_fn = penalty_fn
        self.track_capacity = track_capacity
        self._counter: Optional[PathCounter] = None
        #: One penalty term per outstanding fault, in onset order.
        self._terms: Dict[LinkId, float] = {}
        self._total = 0.0
        self._stale = True

    @property
    def strategy_name(self) -> str:  # type: ignore[override]
        return self.strategy.name

    def attach(self, kernel: SimulationKernel) -> None:
        super().attach(kernel)
        topo = kernel.topo
        if self.track_capacity:
            # Share the strategy's counter when it has one bound to this
            # topology (CorrOpt / fast-checker strategies do), so the run
            # maintains a single incremental DP instead of several.
            shared = getattr(self.strategy, "counter", None)
            if isinstance(shared, PathCounter) and shared.topo is topo:
                self._counter = shared
            else:
                self._counter = PathCounter(topo)
        # Links with an outstanding fault, in onset order, each with its
        # current penalty term (see current_penalty).
        row = topo.link_row
        self._terms = {
            lid: self._term(row[lid]) for lid in topo.corrupting_links()
        }
        self._lg_version = topo.lg_version
        topo.subscribe_admin_changes(self._set_term)

    def bootstrap(self) -> None:
        for event in self.trace.events:
            self.kernel.schedule(EVENT_ONSET, event.time_s, event)

    # -- events --------------------------------------------------------- #

    def handle_onset(self, time_s: float, event) -> None:
        kernel = self.kernel
        topo = kernel.topo
        metrics = kernel.metrics
        state, link_row = topo.link_state, topo.link_row
        for link_id, condition in zip(event.link_ids, event.conditions):
            row = link_row[link_id]
            if state[row] is not LinkState.ENABLED or link_id in self._terms:
                continue  # already mitigated or already corrupting
            metrics.onsets += 1
            topo.set_corruption(link_id, condition.fwd_rate, Direction.UP)
            if condition.rev_rate > 0:
                topo.set_corruption(link_id, condition.rev_rate, Direction.DOWN)
            self._terms[link_id] = self._term(row)
            self._stale = True
            if self.strategy.on_onset(link_id):
                metrics.disabled_on_onset += 1
                kernel.schedule_repair(time_s, link_id)
            else:
                metrics.kept_active_on_onset += 1

    def handle_repair(self, time_s: float, link_id: LinkId) -> None:
        kernel = self.kernel
        metrics = kernel.metrics
        success = True
        if kernel.full_repair_cycles:
            success = kernel.rng.random() < kernel.repair_accuracy
        if success:
            kernel.topo.clear_corruption(link_id)
            self._drop_term(link_id)
            metrics.repairs_completed += 1
        else:
            metrics.failed_repairs += 1
        kernel.topo.enable_link(link_id)

        if not success:
            # Still corrupting: the monitoring pipeline re-detects it and
            # the strategy re-decides immediately (Figure 12's cycle).
            if self.strategy.on_onset(link_id):
                kernel.schedule_repair(time_s, link_id)
                return

        # A genuine activation frees capacity: let the strategy
        # re-evaluate the corrupting links it previously kept active.
        for newly_disabled in self.strategy.on_activation():
            metrics.disabled_on_activation += 1
            kernel.schedule_repair(time_s, newly_disabled)

    def pool_repair_succeeded(self, time_s: float, link_id: LinkId) -> None:
        kernel = self.kernel
        kernel.topo.clear_corruption(link_id)
        self._drop_term(link_id)
        kernel.metrics.repairs_completed += 1
        kernel.topo.enable_link(link_id)
        for newly_disabled in self.strategy.on_activation():
            kernel.metrics.disabled_on_activation += 1
            kernel.schedule_repair(time_s, newly_disabled)

    # -- snapshots ------------------------------------------------------ #

    def _term(self, row: int) -> float:
        """Link row ``row``'s ``(1 - d_l) * I(f_l)``: exactly 0.0 while it
        is not enabled or its effective rate is below the 1e-8 lossy
        floor."""
        topo = self.kernel.topo
        if topo.link_state[row] is not LinkState.ENABLED:
            return 0.0
        protected = topo.lg_protected[row]
        rate = topo.lg_effective_loss[row] if protected else topo.max_rate(row)
        return self.penalty_fn(rate) if rate >= 1e-8 else 0.0

    def _set_term(self, link_id: LinkId) -> None:
        """Admin listener: re-set the term of an outstanding fault."""
        if link_id in self._terms:
            self._terms[link_id] = self._term(self.kernel.topo.link_row[link_id])
            self._stale = True

    def _drop_term(self, link_id: LinkId) -> None:
        self._terms.pop(link_id, None)
        self._stale = True

    def current_penalty(self) -> float:
        """§5.1's ``sum_l (1 - d_l) * I(f_l)`` over outstanding faults.

        The penalty integrates the *effective* corruption rate: for an
        unprotected link that is its raw rate (identical to the original
        binary up/down accounting), while a LinkGuardian-protected link
        contributes the residual post-retransmission loss — usually below
        the 1e-8 lossy floor, i.e. nothing.  Terms are kept as events
        change them; the total is re-summed, in onset order, only after one
        did, and every term again after a LinkGuardian change.
        """
        topo = self.kernel.topo
        if topo.lg_version != self._lg_version:
            self._lg_version = topo.lg_version
            for lid in self._terms:
                self._set_term(lid)
        if self._stale:
            self._total = ordered_sum(self._terms.values(), 0.0)
            self._stale = False
        return self._total

    def tor_fractions(self) -> Optional[Tuple[float, float]]:
        if self._counter is None:
            return None
        return (
            self._counter.worst_tor_fraction(),
            self._counter.average_tor_fraction(),
        )

    def after_snapshot(self, time_s: float, worst: float) -> None:
        # LG-aware effective capacity: only recorded when protections can
        # exist, so non-LG runs keep their exact metric footprint.
        counter = self._counter
        if counter is not None and self.kernel.topo.has_lg_protection():
            self.kernel.metrics.effective_capacity.record(
                time_s, counter.effective_average_tor_fraction()
            )

    # -- run end -------------------------------------------------------- #

    def finish(self) -> None:
        # Unsubscribed, the topology no longer keeps this run alive.
        self.kernel.topo.unsubscribe_admin_changes(self._set_term)
        self.kernel.metrics.lg_protections = getattr(
            self.strategy, "protections", 0
        )
        obs = self.kernel.obs
        if obs.enabled and self._counter is not None:
            obs.scrape_path_counter(self._counter, role="engine")

    def result_sections(self) -> Dict[str, object]:
        return {"optimizer_stats": self.strategy.optimizer_stats}


# ---------------------------------------------------------------------- #
# Telemetry sensing: the world as SNMP counters see it
# ---------------------------------------------------------------------- #

# The telemetry loop's fixed settings; DESIGN.md §8 gives the reason
# for each value.

#: Offered packets per direction per poll.
PACKETS_PER_POLL = 10_000_000
#: Report threshold: 1 / ``PACKETS_PER_POLL``, one corrupted packet a poll.
DETECTION_THRESHOLD = 1e-7
#: Consecutive over-threshold reports before the controller acts.
DEBOUNCE_CONFIRM = 2
#: Bound of each controller's decision ring buffer.
MAX_DECISIONS = 4096
#: Period of the health snapshots published into the obs stream.
HEALTH_SNAPSHOT_EVERY_S = 3600.0
#: Links the A3 probe cross-check covers per poll.
PROBE_LINKS_PER_POLL = 8
#: Consecutive probe/counter disagreements that flag a link miswired.
MISWIRE_CONFIRM = 2
#: The §3 cause classifier; stateless, so one serves every pipeline.
CLASSIFIER = CauseClassifier(
    corruption_threshold=DETECTION_THRESHOLD,
    congestion_threshold=DETECTION_THRESHOLD,
)


class TelemetrySensing(SensingPipeline):
    """Poll-driven sensing through the full monitoring path.

    Nothing reaches the controller except through::

        trace onsets → topology ground truth → SNMP counters →
        (fault-injected transport) → sanitizer → store →
        detection → hardened controller → disable / fail-safe keep

    Polls are heap events (``EVENT_POLL``) at ``k * poll_interval_s``.
    Onsets and repair completions quantize *up* to the next poll tick —
    a poll-driven system cannot observe or act between polls — with the
    true event time as the heap subkey so co-quantized events keep their
    causal order, and events beyond the last poll are dropped (the run
    never observes them).  This reproduces the historical tick loop
    bit-for-bit while sharing the kernel's heap, repair scheduler and
    snapshot path.

    Determinism contract: with a fault config whose rates are all zero
    (or no config at all) the run is bit-identical to the fault-free
    run — the chaos apparatus must not perturb the system it observes.
    """

    span_cat = "chaos"
    span_names = {
        EVENT_ONSET: "chaos.onsets",
        EVENT_REPAIR: "chaos.repair",
        EVENT_POLL: "tick",
    }
    snapshot_kinds = frozenset((EVENT_POLL,))
    strategy_name = "corropt"

    def __init__(
        self,
        trace: CorruptionTrace,
        constraint,
        fault_config: Optional[TelemetryFaultConfig] = None,
        poll_interval_s: float = 900.0,
        audit_maxlen: int = 1024,
        congestion_model=None,
        miswiring=None,
    ):
        self.trace = trace
        self.constraint = constraint
        self.fault_config = fault_config
        self.poll_interval_s = poll_interval_s
        self.audit_maxlen = audit_maxlen
        #: Optional congestion co-model: feeds diurnal utilization through
        #: the poller's traffic callable and queue losses through the
        #: drops channel only (no FCS signature, §3).
        self._congestion_model = congestion_model
        #: Optional A3-style miswiring fault: swaps the poller's FCS
        #: attribution and activates the rotating probe cross-check.
        self._miswiring = miswiring

    def _traffic_fn(self):
        """The poller's traffic call: the co-model's array form when there
        is one (bound to the poll interval; a ``partial`` so the pipeline
        stays picklable), else constant offered load."""
        model = self._congestion_model
        if model is None:
            return ConstantTraffic(PACKETS_PER_POLL)
        return partial(model.traffic, interval_s=self.poll_interval_s)

    def attach(self, kernel: SimulationKernel) -> None:
        super().attach(kernel)
        topo = kernel.topo
        obs = kernel.obs
        interval = self.poll_interval_s
        # Tick times accumulate exactly like the poller's internal clock
        # (`time_s += interval`), so scheduled polls compare equal to
        # poll_once() timestamps even for non-representable intervals.
        self._ticks: List[float] = []
        tick = 0.0
        for _ in range(int(kernel.duration_s / interval)):
            tick += interval
            self._ticks.append(tick)

        # The store keeps what the longest reader reads: the classifier's
        # correlation window.
        self.store = TelemetryStore(topo, CLASSIFIER.correlation_window)
        self.sanitizer = TelemetrySanitizer(topo, interval_s=interval, obs=obs)
        self.transport = (
            FaultyTransport(topo, self.fault_config)
            if self.fault_config is not None
            else None
        )
        self.poller = self._make_poller(topo, obs, interval)
        self.audit = AuditLog(maxlen=self.audit_maxlen)
        self.controller = self._make_controller(topo, obs, interval)

        self.chaos = ChaosMetrics()
        # Ground truth bookkeeping: outstanding fault onset times and
        # which of them the telemetry pipeline has noticed.
        self._onset_time: Dict[LinkId, float] = {}
        self._detected: Set[LinkId] = set()
        # Diagnosis layer state.  The accuracy ledger only exists when a
        # diagnosis-bearing scenario family (congestion co-model,
        # miswiring, flow voting) is active, so plain telemetry runs keep
        # their exact result surface.
        self.diagnosis: Optional[DiagnosisStats] = (
            DiagnosisStats() if self._diagnosis_active() else None
        )
        self._diagnosis_noted: Set[Tuple[str, object]] = set()
        # Rotating active-probe cross-check (A3): only runs when a
        # miswiring fault is installed.
        self._probe_ring: List[LinkId] = (
            sorted(link.link_id for link in topo.links())
            if self._miswiring is not None
            else []
        )
        self._probe_cursor = 0
        self._probe_mismatch: Dict[LinkId, int] = {}
        self._miswire_flagged: Set[LinkId] = set()
        self._min_threshold = min(
            [self.constraint.default] + list(self.constraint.per_tor.values())
        )
        # Event-time health indicators + SLO evaluation.  The tracker
        # consumes no RNG and schedules nothing, so runs stay bit-identical
        # to untracked ones; it pickles with the pipeline, so scorecards
        # survive checkpoint/resume byte-for-byte.
        self.health = HealthTracker(
            poll_interval_s=interval,
            capacity_floor=self._min_threshold,
            duration_s=kernel.duration_s,
            num_shards=self._num_shards(),
        )
        self.health.router = self._health_router()
        if self.diagnosis is not None:
            self.health.attach_diagnosis(self.diagnosis)
        self._next_health_pub_s = HEALTH_SNAPSHOT_EVERY_S

    def _diagnosis_active(self) -> bool:
        """Whether this run carries a diagnosis accuracy ledger."""
        return (
            self._congestion_model is not None or self._miswiring is not None
        )

    # -- health wiring (overridden by the service pipeline) ------------- #

    def _num_shards(self) -> int:
        return 1

    def _health_router(self):
        """ShardRouter-like object for the tracker (``None`` → shard 0)."""
        return None

    def _health_components(self) -> List[Tuple[int, int, int]]:
        """Per-shard ``(index, breaker_open, debounce_confirmed)`` triples."""
        controller = self.controller
        return [(
            0,
            1 if controller.optimizer_breaker.state is BreakerState.OPEN else 0,
            controller.debouncer.confirmed_count(),
        )]

    # -- component factories (overridden by the service pipeline) ------- #

    def _make_poller(
        self, topo, obs, interval: float, cls=SnmpPoller, **extra
    ) -> SnmpPoller:
        return cls(
            topo,
            self.store,
            traffic_fn=self._traffic_fn(),
            interval_s=interval,
            transport=self.transport,
            sanitizer=self.sanitizer,
            attribution_fn=(
                None if self._miswiring is None else self._miswiring.physical
            ),
            obs=obs,
            **extra,
        )

    def _make_controller(
        self, topo, obs, interval: float, link_scope=None, labels=None
    ) -> CorrOptController:
        # A shard's ``labels`` (``obs``, ``name``) make its debouncer and
        # breaker export their metrics under the shard's name.
        labels = labels or {}
        return CorrOptController(
            topo,
            self.constraint,
            quarantine_fn=self.sanitizer.link_quarantined,
            debouncer=OnsetDebouncer(
                confirm=DEBOUNCE_CONFIRM,
                window_s=3 * interval,
                high=DETECTION_THRESHOLD,
                **labels,
            ),
            optimizer_breaker=CircuitBreaker(**labels),
            max_decisions=MAX_DECISIONS,
            link_scope=link_scope,
            audit=self.audit,
            obs=obs,
        )

    def bootstrap(self) -> None:
        kernel = self.kernel
        for event in sorted(self.trace.events, key=lambda e: e.time_s):
            kernel.schedule(EVENT_ONSET, event.time_s, event)
        for tick in self._ticks:
            kernel.schedule(EVENT_POLL, tick)

    def event_time(self, time_s: float) -> Optional[float]:
        """Quantize to the next poll tick; drop beyond the last poll."""
        idx = bisect_left(self._ticks, time_s)
        if idx == len(self._ticks):
            return None
        return self._ticks[idx]

    # -- events --------------------------------------------------------- #

    def handle_onset(self, time_s: float, event) -> None:
        """Write ground-truth corruption for one trace event."""
        topo = self.kernel.topo
        metrics = self.kernel.metrics
        state, link_row = topo.link_state, topo.link_row
        for link_id, condition in zip(event.link_ids, event.conditions):
            enabled = state[link_row[link_id]] is LinkState.ENABLED
            if not enabled or link_id in self._onset_time:
                continue  # already mitigated or already corrupting
            metrics.onsets += 1
            self._onset_time[link_id] = event.time_s
            topo.set_corruption(link_id, condition.fwd_rate, Direction.UP)
            if condition.rev_rate > 0:
                topo.set_corruption(link_id, condition.rev_rate, Direction.DOWN)
            self.health.note_onset(event.time_s, link_id, condition.fwd_rate)

    def _controller_for(self, link_id: LinkId) -> CorrOptController:
        """The controller that owns ``link_id`` (sharded in the service)."""
        return self.controller

    def handle_repair(self, time_s: float, link_id: LinkId) -> None:
        kernel = self.kernel
        self._onset_time.pop(link_id, None)
        self._detected.discard(link_id)
        if self.diagnosis is not None:
            # A repaired link starts a fresh diagnosis episode (in both
            # directions: UP is ``link_id``, DOWN its reverse).
            for did in (link_id, link_id[::-1]):
                self._diagnosis_noted.discard(("ctr", did))
            self._diagnosis_noted.discard(("probe", link_id))
            self._diagnosis_noted.discard(("vote", link_id))
        self.health.note_repair(time_s, link_id)
        kernel.metrics.repairs_completed += 1
        controller = self._controller_for(link_id)
        before = controller.log.disabled_by_optimizer
        result = controller.activate_link(
            link_id, repaired=True, time_s=time_s
        )
        newly = controller.log.disabled_by_optimizer - before
        kernel.metrics.disabled_on_activation += newly
        # Optimizer-driven disables also need repair visits (skip any the
        # fail-safe rule kept active despite the plan).
        topo = kernel.topo
        for lid in sorted(result.to_disable):
            disabled = topo.link_state[topo.link_row[lid]] is not LinkState.ENABLED
            if disabled and not kernel.repair_pending(lid):
                kernel.schedule_repair(time_s, lid)

    def handle_poll(self, time_s: float) -> None:
        # poll_once() emits its own poll > collect/sanitize/store span
        # subtree, nested under this tick span.
        polled = self.poller.poll_once()
        assert polled == time_s
        self.chaos.polls += 1
        if self._miswiring is not None:
            self._run_probes(time_s)
        with self.kernel.obs.span("chaos.detect", cat="chaos"):
            self._detect_and_report(time_s)

    def _detect_and_report(self, now: float) -> None:
        """Diagnose fresh telemetry samples; mitigate actionable causes.

        The sensing → controller boundary: every fresh sample with a loss
        signature becomes a :class:`~repro.core.diagnosis.LinkDiagnosis`,
        and only actionable causes (corruption / both / unknown) are
        reported to the controller.  Congestion-only verdicts are logged
        in the accuracy ledger but never disabled or ticketed; miswired
        verdicts defer to the probe cross-check
        (:meth:`_run_probes`), which mitigates the *physical* culprit.
        With no congestion co-model and no miswiring this reduces exactly
        to the historical bare-loss-rate path, byte for byte.
        """
        table = self.poller.directions
        times, corruption_now, congestion_now = self.poller.latest()
        # Candidates: rows with a sample from this tick that carries a
        # loss signature.  Everything else the per-row code below would
        # skip anyway.
        suspicious = corruption_now >= DETECTION_THRESHOLD
        if self.diagnosis is not None:
            suspicious |= congestion_now >= CLASSIFIER.congestion_threshold
        suspicious &= times == now
        for row in np.flatnonzero(suspicious).tolist():
            link = table.links[row >> 1]
            if not link.enabled:
                # Disabled since the poll: by a probe report, or by the
                # report on the link's other direction a moment ago.
                continue
            link_id = link.link_id
            direction = Direction.DOWN if row & 1 else Direction.UP
            did = table.direction_ids[row]
            sample = self.store.last_sample(did)
            corruption = sample[1]
            diagnosis = self._diagnose(link, direction, did, sample, now)
            if self.diagnosis is not None:
                self._note_diagnosis(link_id, did, diagnosis)
            if corruption < DETECTION_THRESHOLD:
                # Drops-only signature: diagnosed (cause=congestion) for
                # the accuracy ledger, but never reported — disabling a
                # congested link only shifts its load.
                continue
            if not diagnosis.actionable():
                continue
            self._report_and_account(now, link_id, direction, corruption)

    def _diagnose(
        self, link, direction: Direction, did, sample, now: float
    ) -> LinkDiagnosis:
        """Classify one fresh sample into a structured diagnosis."""
        _time_s, corruption, congestion, util, _quality = sample
        util_history = cong_history = None
        if (
            self._congestion_model is not None
            and congestion >= CLASSIFIER.congestion_threshold
        ):
            util_history, cong_history = self.store.tail(
                did, CLASSIFIER.correlation_window
            )
        return CLASSIFIER.classify(
            link.link_id,
            direction,
            corruption,
            congestion_rate=congestion,
            utilization=util,
            time_s=now,
            utilization_history=util_history,
            congestion_history=cong_history,
            miswire_suspected=link.link_id in self._miswire_flagged,
        )

    def _true_cause(self, link_id: LinkId, did=None) -> str:
        """Ground-truth cause label for the accuracy ledger."""
        if self._miswiring is not None and self._miswiring.affects(link_id):
            return CAUSE_MISWIRED
        link = self.kernel.topo.link(link_id)
        corrupting = link.max_corruption_rate() > 0
        congested = self._truly_congested(link_id, did)
        if corrupting and congested:
            return CAUSE_BOTH
        if corrupting:
            return CAUSE_CORRUPTION
        if congested:
            return CAUSE_CONGESTION
        return CAUSE_UNKNOWN

    def _truly_congested(self, link_id: LinkId, did=None) -> bool:
        if self._congestion_model is None:
            return False
        if did is not None:
            return self._congestion_model.is_hot(did)
        link = self.kernel.topo.link(link_id)
        return any(
            self._congestion_model.is_hot(link.direction_id(d))
            for d in (Direction.UP, Direction.DOWN)
        )

    def _note_diagnosis(
        self, link_id: LinkId, did, diagnosis: LinkDiagnosis
    ) -> None:
        """Ledger one verdict per (direction, episode); episodes reset on
        repair so re-onsets are scored again."""
        key = ("ctr", did)
        if key in self._diagnosis_noted:
            return
        self._diagnosis_noted.add(key)
        self.diagnosis.note(self._true_cause(link_id, did), diagnosis.cause)

    def _report_and_account(
        self, now: float, link_id: LinkId, direction: Direction, rate: float
    ) -> bool:
        """Report an actionable diagnosis to the owning controller and do
        the detection/mitigation accounting.  Returns True when the link
        was disabled (callers stop scanning its other direction)."""
        kernel = self.kernel
        topo = kernel.topo
        was_quarantined = self.sanitizer.link_quarantined(link_id)
        truly_corrupting = topo.link(link_id).max_corruption_rate() > 0
        decision = self._controller_for(link_id).report_corruption(
            link_id, rate, direction, time_s=now
        )
        if truly_corrupting and link_id not in self._detected:
            self._detected.add(link_id)
            self.chaos.detections += 1
            onset = self._onset_time.get(link_id, now)
            self.chaos.detection_delay_polls += max(
                0.0, (now - onset) / self.poll_interval_s
            )
            self.health.note_detection(now, link_id)
        if decision.disabled:
            kernel.metrics.disabled_on_onset += 1
            if was_quarantined:
                self.chaos.quarantine_violations += 1
            if not truly_corrupting:
                self.chaos.false_disables += 1
                if self.diagnosis is not None and self._truly_congested(
                    link_id
                ):
                    self.diagnosis.congestion_mitigations += 1
            self.health.note_mitigation(
                now,
                link_id,
                truly_corrupting,
                topo.link(link_id).max_corruption_rate(),
            )
            kernel.schedule_repair(now, link_id)
            return True
        elif decision.fast_check is not None:
            kernel.metrics.kept_active_on_onset += 1
            self.health.note_kept(now, link_id)
        return False

    def _run_probes(self, now: float) -> None:
        """A3 cross-check: probe a rotating window of links each poll.

        An active probe traverses the *actual* cable (the data plane does
        not consult the inventory), so probe loss describes the link the
        operator asked about while its counters may describe another.  A
        link whose probe verdict and counter verdict disagree for
        ``MISWIRE_CONFIRM`` consecutive probes is flagged miswired:
        counter-driven mitigation is refused for it (the counters are
        someone else's), and probe-sourced reports carry the corruption
        the counters deny, so the physical culprit is still mitigated.
        """
        topo = self.kernel.topo
        ring = self._probe_ring
        if not ring:
            return
        window = min(PROBE_LINKS_PER_POLL, len(ring))
        start = self._probe_cursor
        self._probe_cursor = (start + window) % len(ring)
        for i in range(window):
            link_id = ring[(start + i) % len(ring)]
            link = topo.link(link_id)
            if not link.enabled:
                continue
            probe_rate = link.max_corruption_rate()
            probe_detect = probe_rate >= DETECTION_THRESHOLD
            counter_rate = 0.0
            fresh = False
            for direction in (Direction.UP, Direction.DOWN):
                sample = self.store.last_sample(link.direction_id(direction))
                if sample is not None and sample[0] == now:
                    fresh = True
                    counter_rate = max(counter_rate, sample[1])
            flagged = link_id in self._miswire_flagged
            if fresh:
                counter_detect = counter_rate >= DETECTION_THRESHOLD
                if counter_detect != probe_detect:
                    count = self._probe_mismatch.get(link_id, 0) + 1
                    self._probe_mismatch[link_id] = count
                    if count >= MISWIRE_CONFIRM and not flagged:
                        self._miswire_flagged.add(link_id)
                        flagged = True
                        self.chaos.miswires_flagged += 1
                        if self.diagnosis is not None:
                            key = ("probe", link_id)
                            if key not in self._diagnosis_noted:
                                self._diagnosis_noted.add(key)
                                self.diagnosis.note(
                                    self._true_cause(link_id), CAUSE_MISWIRED
                                )
                else:
                    self._probe_mismatch.pop(link_id, None)
            # Probe-sourced mitigation: the probe sees corruption the
            # counters deny (its FCS signature was swapped away), so the
            # report carries the probe-measured rate.
            if flagged and probe_detect and link_id not in self._detected:
                up_rate = link.corruption_rate[Direction.UP]
                down_rate = link.corruption_rate[Direction.DOWN]
                direction = (
                    Direction.UP if up_rate >= down_rate else Direction.DOWN
                )
                self._report_and_account(now, link_id, direction, probe_rate)

    # -- snapshots ------------------------------------------------------ #

    def current_penalty(self) -> float:
        return self.controller.current_penalty()

    def tor_fractions(self) -> Tuple[float, float]:
        return (
            self.controller.worst_tor_fraction(),
            self.controller.average_tor_fraction(),
        )

    def after_snapshot(self, time_s: float, worst: float) -> None:
        if worst < self._min_threshold - 1e-9:
            self.chaos.capacity_violations += 1
        quarantined = self.sanitizer.quarantined_directions()
        self.chaos.quarantined_peak = max(
            self.chaos.quarantined_peak, quarantined
        )
        obs = self.kernel.obs
        self.health.note_poll(
            time_s,
            worst,
            quarantined,
            self._health_components(),
            penalty=self.current_penalty(),
            obs=obs,
        )
        if obs.enabled and time_s + 1e-9 >= self._next_health_pub_s:
            while self._next_health_pub_s <= time_s + 1e-9:
                self._next_health_pub_s += HEALTH_SNAPSHOT_EVERY_S
            self._publish_health(time_s)

    def _publish_health(self, time_s: float) -> None:
        """Periodic event-time health snapshot into the obs stream."""
        obs = self.kernel.obs
        row = self.health.report(end_s=time_s, complete=False).row()
        for key, value in row.items():
            if isinstance(value, bool):
                obs.gauge(f"health_{key}", 1.0 if value else 0.0)
            elif isinstance(value, (int, float)):
                obs.gauge(f"health_{key}", float(value))
        obs.event(
            "health_snapshot",
            detections=row["detections"],
            false_disables=row["false_disables"],
            alerts_fired=row["alerts_fired"],
            slo_ok=row["slo_ok"],
        )

    # -- run end -------------------------------------------------------- #

    def finish(self) -> None:
        # Faults outstanding at the end that telemetry never surfaced.
        self.chaos.missed_mitigations = sum(
            1 for lid in self._onset_time if lid not in self._detected
        )
        if self.diagnosis is not None:
            self.diagnosis.missed_corrupting = self.chaos.missed_mitigations
        self.chaos.missed_polls = self.poller.missed_polls
        self.chaos.degraded_samples = (
            self.sanitizer.stats.missing
            + self.sanitizer.stats.resets_detected
            + self.sanitizer.stats.freezes_detected
            + self.sanitizer.stats.duplicates_dropped
            + self.sanitizer.stats.out_of_order_dropped
        )
        self.chaos.decisions_in_degraded_mode = (
            self.controller.log.fail_safe_keeps
            + self.controller.log.optimizer_fallbacks
        )
        if self.kernel.obs.enabled:
            self._scrape_final()

    def _scrape_final(self) -> None:
        """Export end-of-run stats from components that keep their own
        counters (path counter, optimizer, sanitizer) into the registry."""
        obs = self.kernel.obs
        obs.scrape_path_counter(self.controller.counter, role="controller")
        obs.scrape_optimizer_stats(
            self.controller.log.optimizer_stats, role="controller"
        )
        self.sanitizer.flush_obs_counts()
        for key, value in vars(self.sanitizer.stats).items():
            obs.gauge(f"sanitizer_stats_{key}", value)
        obs.gauge(
            "sanitizer_quarantined_directions",
            self.sanitizer.quarantined_directions(),
        )
        obs.gauge("audit_evicted_records", self.audit.evicted)
        self._publish_health(self.kernel.duration_s)

    def result_sections(self) -> Dict[str, object]:
        sections: Dict[str, object] = {
            "chaos": self.chaos,
            "audit": self.audit,
            "sanitizer_stats": self.sanitizer.stats,
            "controller_log": self.controller.log,
            "optimizer_stats": self.controller.log.optimizer_stats,
            "health": self.health.report(),
        }
        if self.diagnosis is not None:
            sections["diagnosis"] = self.diagnosis
        return sections
