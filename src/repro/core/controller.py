"""CorrOpt's decision core, and its controller (Figure 13) hardened for
bad inputs.

The paper's policy (§5.1) is written once here: :class:`CorrOptStrategy`
and its base, Figure 18's :class:`FastCheckerOnlyStrategy`.  The other
strategies §7.1 compares live in :mod:`repro.simulation.strategies`.
:class:`CorrOptController` makes its decisions through one
:class:`CorrOptStrategy`:

- a switch reports packet corruption → the **fast checker** decides whether
  the link can be safely disabled;
- if disabled, the **recommendation engine** produces a repair ticket;
- when a link is activated (repaired), the **optimizer** re-evaluates all
  active corrupting links.

The controller is deliberately free of wall-clock concerns: the simulation
engine (or a real deployment harness) drives it with events and explicit
timestamps, and owns the ticket queue.  Hooks (``on_disable``) let callers
observe decisions without subclassing.

Hardening (all opt-in, defaults preserve the original behaviour):

- **Fail-safe rule** — when a link's telemetry is quarantined
  (``quarantine_fn``) or a check raises, the link is *kept active*: we
  never disable on untrusted data, and the degraded decision lands in the
  structured :class:`~repro.core.resilience.AuditLog`.
- **Debounce/hysteresis** — an :class:`~repro.core.resilience.
  OnsetDebouncer` requires corruption onsets to be confirmed before any
  link state changes, so sensor flaps cannot churn links.
- **Optimizer protection** — the global optimization on activation runs
  under retry-with-backoff and a :class:`~repro.core.resilience.
  CircuitBreaker`; when the breaker is open (or the optimizer fails) the
  controller degrades to Figure 18's fast-checker-only activation.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, FrozenSet, List, Optional, Sequence

from repro.core.constraints import CapacityConstraint
from repro.core.fast_checker import FastChecker, FastCheckResult
from repro.core.optimizer import GlobalOptimizer, OptimizerResult, OptimizerStats
from repro.core.path_counting import PathCounter
from repro.core.penalty import (
    PenaltyFn, linear_penalty, ordered_sum, total_penalty,
)
from repro.core.recommendation import (
    LinkObservation,
    Recommendation,
    RecommendationEngine,
    full_engine,
)
from repro.core.resilience import (
    AuditLog,
    BreakerState,
    CircuitBreaker,
    OnsetDebouncer,
    retry_with_backoff,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import Direction, LinkId
from repro.topology.graph import Topology


class MitigationStrategy:
    """Interface; see :mod:`repro.simulation.strategies`.

    ``counter`` is the strategy's :class:`PathCounter`, which the kernel
    shares (one incremental DP per run); ``optimizer_stats`` accumulates
    the global optimizer's search (None where it never runs).
    """

    name = "abstract"
    counter: Optional[PathCounter] = None
    optimizer_stats: Optional[OptimizerStats] = None

    def on_onset(self, link_id: LinkId) -> bool:
        """Return True (and disable the link) when it can safely go down."""
        raise NotImplementedError

    def on_activation(self) -> List[LinkId]:
        """Re-evaluate after an activation; return newly disabled links."""
        raise NotImplementedError


class FastCheckerOnlyStrategy(MitigationStrategy):
    """Fast checker everywhere (greedy re-sweep on activation)."""

    name = "fast-checker-only"

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        obs: Recorder = NULL_RECORDER,
    ):
        self.topo = topo
        self.counter = PathCounter(topo, obs=obs)
        self.fast_checker = FastChecker(
            topo, constraint, counter=self.counter, obs=obs
        )

    def on_onset(self, link_id: LinkId) -> bool:
        return self.fast_checker.check_and_disable(link_id).allowed

    def on_activation(
        self, candidates: Optional[Sequence[LinkId]] = None
    ) -> List[LinkId]:
        """Greedy sweep; return the links it disabled, in sweep order."""
        if candidates is None:
            candidates = self.topo.corrupting_links()
        results = self.fast_checker.sweep(candidates)
        return [r.link_id for r in results if r.allowed]


class CorrOptStrategy(FastCheckerOnlyStrategy):
    """The full CorrOpt policy (§5.1): fast checker + optimizer."""

    name = "corropt"

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        penalty_fn: PenaltyFn = linear_penalty,
        obs: Recorder = NULL_RECORDER,
    ):
        super().__init__(topo, constraint, obs=obs)
        self.optimizer = GlobalOptimizer(
            topo, constraint, penalty_fn=penalty_fn, counter=self.counter,
            obs=obs,
        )
        self.optimizer_stats = OptimizerStats()

    def plan(
        self, candidates: Optional[Sequence[LinkId]] = None
    ) -> OptimizerResult:
        """Plan over ``candidates`` without applying; count the search."""
        result = self.optimizer.plan(candidates)
        self.optimizer_stats.merge(result.stats)
        return result

    def on_activation(
        self, candidates: Optional[Sequence[LinkId]] = None
    ) -> List[LinkId]:
        """Plan and disable the chosen links, in sorted order."""
        to_disable = sorted(self.plan(candidates).to_disable)
        for lid in to_disable:
            self.topo.disable_link(lid)
        return to_disable


@dataclass
class ControllerDecision:
    """What the controller did with one corruption report.

    Attributes:
        link_id: The reported link.
        disabled: Whether the link was disabled.
        fast_check: The fast checker's verdict (``None`` when the pipeline
            never reached it: quarantined telemetry, debounce pending, or
            a check error).
        recommendation: Repair recommendation when disabled.
        degraded: Whether this decision was made in degraded mode
            (fail-safe keep, or fallback path).
        reason: Why a non-disable decision was taken.
    """

    link_id: LinkId
    disabled: bool
    fast_check: Optional[FastCheckResult] = None
    recommendation: Optional[Recommendation] = None
    degraded: bool = False
    reason: str = ""


@dataclass
class ControllerLog:
    """Counters summarizing controller activity (exposed for dashboards).

    Aggregate counters are exact over arbitrarily long runs; the per-
    decision record is a ring buffer bounded by ``max_decisions``
    (``None`` = unbounded, the historical behaviour).
    """

    reports: int = 0
    disabled_by_fast_checker: int = 0
    kept_by_capacity: int = 0
    activations: int = 0
    disabled_by_optimizer: int = 0
    fail_safe_keeps: int = 0
    debounced: int = 0
    optimizer_failures: int = 0
    optimizer_fallbacks: int = 0
    total_decisions: int = 0
    max_decisions: Optional[int] = None
    decisions: Deque[ControllerDecision] = field(default_factory=deque)
    #: Aggregated search effort over every successful optimizer run this
    #: controller executed: its strategy's accumulator.
    optimizer_stats: OptimizerStats = field(default_factory=OptimizerStats)

    def __post_init__(self):
        if self.max_decisions is not None and self.max_decisions < 1:
            raise ValueError("max_decisions must be >= 1 (or None)")
        self.decisions = deque(self.decisions, maxlen=self.max_decisions)

    def record_decision(self, decision: ControllerDecision) -> None:
        """Append to the (possibly bounded) ring; exact count regardless."""
        self.decisions.append(decision)
        self.total_decisions += 1


class CorrOptController:
    """End-to-end CorrOpt decision engine over a live topology.

    Args:
        topo: The topology under management.
        constraint: Per-ToR capacity constraints.
        penalty_fn: Penalty function for the optimizer's objective.
        recommender: Recommendation engine (defaults to full Algorithm 1).
        observation_provider: Callable mapping a link id to a
            :class:`LinkObservation`; wired to the telemetry system in
            deployment, to the fault models in simulation.  Optional —
            without it tickets carry no recommendation.
        on_disable: Hook invoked with (link_id, recommendation) whenever any
            component disables a link.
        quarantine_fn: Optional ``link_id -> bool``.  When it returns True
            the link's telemetry is untrusted and the controller will
            *never* disable that link (fail-safe rule) — reports are kept
            active and the optimizer excludes it from its candidates.
        debouncer: Optional onset debouncer; reports only reach the fast
            checker once the debouncer confirms the onset.
        optimizer_breaker: Optional circuit breaker around the global
            optimizer; while open, activations use fast-checker-only mode.
        optimizer_attempts: Attempts per optimizer run (retry w/ backoff).
        max_decisions: Bound on the per-decision ring buffer.
        link_scope: Optional set of links this controller owns.  When
            set, optimizer candidates are restricted to in-scope links —
            the sharded service gives each segment controller its own
            scope so shards never plan over each other's links.
        audit: Structured audit log (created on demand when omitted).
        obs: Observability recorder, shared with the fast checker, the
            optimizer, and the path counter; decisions become spans,
            per-outcome counters, and JSONL events (no-op by default).
    """

    def __init__(
        self,
        topo: Topology,
        constraint: CapacityConstraint,
        penalty_fn: PenaltyFn = linear_penalty,
        recommender: Optional[RecommendationEngine] = None,
        observation_provider: Optional[
            Callable[[LinkId], LinkObservation]
        ] = None,
        on_disable: Optional[
            Callable[[LinkId, Optional[Recommendation]], None]
        ] = None,
        quarantine_fn: Optional[Callable[[LinkId], bool]] = None,
        debouncer: Optional[OnsetDebouncer] = None,
        optimizer_breaker: Optional[CircuitBreaker] = None,
        optimizer_attempts: int = 1,
        max_decisions: Optional[int] = None,
        link_scope: Optional[FrozenSet[LinkId]] = None,
        audit: Optional[AuditLog] = None,
        obs: Recorder = NULL_RECORDER,
    ):
        if optimizer_attempts < 1:
            raise ValueError("optimizer_attempts must be >= 1")
        self.topo = topo
        self.obs = obs
        self.strategy = CorrOptStrategy(topo, constraint, penalty_fn, obs=obs)
        # Aliases, not copies: one counter, checker and optimizer.
        self.counter = self.strategy.counter
        self.fast_checker = self.strategy.fast_checker
        self.optimizer = self.strategy.optimizer
        self.recommender = recommender or full_engine()
        self.observation_provider = observation_provider
        self.on_disable = on_disable
        self.quarantine_fn = quarantine_fn
        self.debouncer = debouncer
        self.optimizer_breaker = optimizer_breaker
        self.optimizer_attempts = optimizer_attempts
        self.link_scope = link_scope
        self.audit = audit or AuditLog()
        self.log = ControllerLog(
            max_decisions=max_decisions,
            optimizer_stats=self.strategy.optimizer_stats,
        )
        self._last_breaker_state: Optional[BreakerState] = None

    # ------------------------------------------------------------------ #

    def _recommend(self, link_id: LinkId) -> Optional[Recommendation]:
        if self.observation_provider is None:
            return None
        return self.recommender.recommend(self.observation_provider(link_id))

    def _announce_disable(self, link_id: LinkId) -> Optional[Recommendation]:
        recommendation = self._recommend(link_id)
        if self.on_disable is not None:
            self.on_disable(link_id, recommendation)
        return recommendation

    def _quarantined(self, link_id: LinkId) -> bool:
        return self.quarantine_fn is not None and self.quarantine_fn(link_id)

    def _fail_safe_decision(
        self, link_id: LinkId, time_s: float, event: str, detail: str
    ) -> ControllerDecision:
        """Keep the link active and audit why (never disable on untrusted
        data)."""
        self.log.fail_safe_keeps += 1
        self.obs.count("controller_fail_safe_keeps_total", event=event)
        self.audit.record(
            time_s, event, link_id=link_id, detail=detail, fail_safe=True
        )
        decision = ControllerDecision(
            link_id=link_id, disabled=False, degraded=True, reason=event
        )
        self.log.record_decision(decision)
        return decision

    def report_corruption(
        self,
        link_id: LinkId,
        rate: float,
        direction: Direction = Direction.UP,
        time_s: float = 0.0,
    ) -> ControllerDecision:
        """Handle a new corruption report from a switch.

        Records the rate on the topology, runs the fast checker, disables
        when safe, and issues a recommendation for the ticket.  Reports on
        quarantined telemetry, unconfirmed (debounced) onsets, and checker
        errors all resolve to fail-safe keep-active decisions.
        """
        obs = self.obs
        start_wall = time.perf_counter() if obs.enabled else 0.0
        with obs.span(
            "controller.decide", cat="controller", link=str(link_id)
        ) as span:
            decision = self._report_corruption(
                link_id, rate, direction, time_s
            )
            if obs.enabled:
                outcome = (
                    "disabled"
                    if decision.disabled
                    else (decision.reason or "kept")
                )
                span.set(outcome=outcome, degraded=decision.degraded)
                obs.observe(
                    "controller_decision_seconds",
                    time.perf_counter() - start_wall,
                )
                obs.count("controller_decisions_total", outcome=outcome)
                if decision.degraded:
                    obs.count("controller_degraded_decisions_total")
                obs.event(
                    "decision",
                    link=str(link_id),
                    rate=rate,
                    disabled=decision.disabled,
                    degraded=decision.degraded,
                    reason=decision.reason,
                )
        return decision

    def _report_corruption(
        self,
        link_id: LinkId,
        rate: float,
        direction: Direction,
        time_s: float,
    ) -> ControllerDecision:
        self.log.reports += 1

        if self._quarantined(link_id):
            # Fail-safe: the report itself is untrusted — don't write the
            # rate into the ground-truth state, don't touch the link.
            return self._fail_safe_decision(
                link_id,
                time_s,
                "quarantined-report",
                f"rate {rate:.2e} arrived on quarantined telemetry",
            )

        self.topo.set_corruption(link_id, rate, direction)

        if self.debouncer is not None and not self.debouncer.update(
            link_id, rate, time_s
        ):
            self.log.debounced += 1
            decision = ControllerDecision(
                link_id=link_id,
                disabled=False,
                reason="debounce-pending",
            )
            self.log.record_decision(decision)
            return decision

        try:
            result = self.fast_checker.check_and_disable(link_id)
        except Exception as exc:  # noqa: BLE001 — fail safe on any checker error
            return self._fail_safe_decision(
                link_id, time_s, "fast-check-error", repr(exc)
            )

        recommendation = None
        if result.allowed:
            self.log.disabled_by_fast_checker += 1
            recommendation = self._announce_disable(link_id)
        else:
            self.log.kept_by_capacity += 1
        decision = ControllerDecision(
            link_id=link_id,
            disabled=result.allowed,
            fast_check=result,
            recommendation=recommendation,
            reason="" if result.allowed else "capacity-constraint",
        )
        self.log.record_decision(decision)
        return decision

    # ------------------------------------------------------------------ #
    # Activation path
    # ------------------------------------------------------------------ #

    def _optimizer_candidates(self) -> List[LinkId]:
        """Enabled corrupting links whose telemetry is trusted (and, for
        a sharded controller, inside this controller's scope)."""
        scope = self.link_scope
        return [
            lid
            for lid in self.topo.corrupting_links()
            if not self._quarantined(lid)
            and (scope is None or lid in scope)
        ]

    def activate_link(
        self,
        link_id: LinkId,
        repaired: bool = True,
        time_s: float = 0.0,
    ) -> OptimizerResult:
        """Bring a link back into service and re-optimize.

        Args:
            link_id: The link coming back.
            repaired: Whether the repair succeeded.  A failed repair leaves
                the corruption rate in place (the link will typically be
                re-disabled, Figure 12).
            time_s: Activation timestamp (drives breaker recovery).

        Returns:
            The applied result over the now-current corrupting set.  In
            degraded mode this is the fast-checker sweep's outcome.
        """
        obs = self.obs
        with obs.span(
            "controller.activate", cat="controller", link=str(link_id)
        ) as span:
            result = self._activate_link(link_id, repaired, time_s)
            if obs.enabled:
                span.set(
                    disabled=len(result.to_disable),
                    kept=len(result.kept_active),
                )
                obs.count("controller_activations_total")
                self._note_breaker_state()
        return result

    def _note_breaker_state(self) -> None:
        """Export the circuit breaker's state (and transitions) as metrics."""
        breaker = self.optimizer_breaker
        if breaker is None:
            return
        state = breaker.state
        self.obs.gauge(
            "circuit_breaker_state",
            {
                BreakerState.CLOSED: 0,
                BreakerState.HALF_OPEN: 1,
                BreakerState.OPEN: 2,
            }[state],
        )
        if state is not self._last_breaker_state:
            if self._last_breaker_state is not None:
                self.obs.count(
                    "circuit_breaker_transitions_total", to=state.value
                )
                self.obs.event("breaker-transition", to=state.value)
            self._last_breaker_state = state

    def _activate_link(
        self, link_id: LinkId, repaired: bool, time_s: float
    ) -> OptimizerResult:
        self.log.activations += 1
        if repaired:
            self.topo.clear_corruption(link_id)
            if self.debouncer is not None:
                self.debouncer.clear(link_id)
        self.topo.enable_link(link_id)

        candidates = self._optimizer_candidates()
        breaker = self.optimizer_breaker
        result: Optional[OptimizerResult] = None
        if breaker is not None and not breaker.allow(time_s):
            self.audit.record(
                time_s,
                "optimizer-breaker-open",
                detail="degraded to fast-checker-only mode",
            )
        else:
            try:
                result = retry_with_backoff(
                    lambda: self.strategy.plan(candidates),
                    attempts=self.optimizer_attempts,
                )
            except Exception as exc:  # noqa: BLE001 — degrade, never crash
                self.log.optimizer_failures += 1
                if breaker is not None:
                    breaker.record_failure(time_s)
                self.audit.record(time_s, "optimizer-error", detail=repr(exc))

        if result is None:
            # Degraded mode: Figure 18's fast-checker-only activation,
            # which applies its own disables.
            self.log.optimizer_fallbacks += 1
            self.obs.count("controller_optimizer_fallbacks_total")
            try:
                disabled = FastCheckerOnlyStrategy.on_activation(
                    self.strategy, candidates
                )
            except Exception as exc:  # noqa: BLE001 — fail safe: disable nothing
                self.audit.record(
                    time_s,
                    "fallback-sweep-error",
                    detail=repr(exc),
                    fail_safe=True,
                )
                disabled = []
            for lid in sorted(disabled):
                self.log.disabled_by_optimizer += 1
                self._announce_disable(lid)
            return OptimizerResult(
                to_disable=set(disabled),
                kept_active=set(candidates).difference(disabled),
            )

        if breaker is not None:
            breaker.record_success()
        self.audit.record(
            time_s,
            "optimizer-run",
            link_id=link_id,
            detail=result.stats.summary(),
        )
        for lid in sorted(result.to_disable):
            if self._quarantined(lid):
                # Quarantine may have tripped between candidate selection
                # and application; the fail-safe rule wins.
                self.log.fail_safe_keeps += 1
                self.audit.record(
                    time_s,
                    "quarantined-optimizer-choice",
                    link_id=lid,
                    fail_safe=True,
                )
                continue
            self.topo.disable_link(lid)
            self.log.disabled_by_optimizer += 1
            self._announce_disable(lid)
        return result

    # ------------------------------------------------------------------ #
    # State queries
    # ------------------------------------------------------------------ #

    def current_penalty(self) -> float:
        """Total penalty per second of active corrupting links."""
        return total_penalty(self.topo, self.optimizer.penalty_fn)

    def worst_tor_fraction(self) -> float:
        """The minimum path fraction across ToRs (Figures 15–16 metric)."""
        return self.counter.worst_tor_fraction()

    def average_tor_fraction(self) -> float:
        """Mean path fraction across ToRs (§7.3 capacity-cost metric).

        A float sum of the ToR fractions in ``topo.tors()`` order, so it
        can differ in the last bits from the exact, rational
        :meth:`PathCounter.average_tor_fraction`; changing either one
        would move the committed goldens.
        """
        fractions = self.counter.fractions_at()
        if not fractions:
            return 1.0
        return ordered_sum(fractions) / len(fractions)
