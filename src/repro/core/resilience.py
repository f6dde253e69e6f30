"""Fail-safe building blocks for the hardened controller.

CorrOpt's decisions move real capacity: disabling a link on a sensor flap,
or crashing because the optimizer threw, is strictly worse than tolerating
a corrupting link for one more interval.  This module supplies the four
mechanisms the hardened :class:`~repro.core.controller.CorrOptController`
composes:

- :class:`OnsetDebouncer` — corruption onsets must be *confirmed* by
  consecutive reports, and clear only below a hysteresis low-watermark, so
  a flapping sensor cannot churn link state;
- :func:`retry_with_backoff` — bounded, injectable-sleep retries around
  the optimizer;
- :class:`CircuitBreaker` — after repeated optimizer failures the breaker
  opens and the controller falls back to fast-checker-only mode until the
  recovery window passes;
- :class:`AuditLog` — a ring-buffered structured record of every degraded
  decision (exact aggregate counts survive eviction), so "why did the
  controller keep this link up?" is always answerable.

Everything is wall-clock free: callers pass explicit timestamps, the
simulation owns time.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple, Type

from repro._version import __version__
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.topology.elements import LinkId

#: Bumped when the audit JSONL layout changes incompatibly.
AUDIT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------- #
# Debounce / hysteresis
# ---------------------------------------------------------------------- #


class OnsetDebouncer:
    """Confirm corruption onsets; clear them with hysteresis.

    A link becomes *confirmed* after ``confirm`` consecutive reports with
    rate >= ``high`` arriving within ``window_s`` of each other; the
    confirmation fires exactly once.  While confirmed, reports keep the
    state alive; a report below ``high * low_factor`` (the hysteresis
    low-watermark) clears it, after which a fresh confirmation run is
    required.  ``confirm=1`` reproduces act-immediately behaviour.

    Args:
        confirm: Consecutive over-threshold reports required.
        window_s: Maximum spacing between consecutive reports in a run.
        high: Rate at or above which a report counts toward confirmation.
        low_factor: Clear threshold as a fraction of ``high``.
        obs: Observability recorder; confirmed/cleared transitions become
            labeled counters and a confirmed-links gauge (no-op default).
        name: Label distinguishing debouncers (e.g. per service shard).
    """

    def __init__(
        self,
        confirm: int = 2,
        window_s: float = 3600.0,
        high: float = 1e-8,
        low_factor: float = 0.5,
        obs: Recorder = NULL_RECORDER,
        name: str = "controller",
    ):
        if confirm < 1:
            raise ValueError("confirm must be >= 1")
        if not 0.0 <= low_factor <= 1.0:
            raise ValueError("low_factor outside [0, 1]")
        self.confirm = confirm
        self.window_s = window_s
        self.high = high
        self.low = high * low_factor
        self.obs = obs
        self.name = name
        self._streak: Dict[LinkId, int] = {}
        self._last_time: Dict[LinkId, float] = {}
        self._confirmed: Dict[LinkId, bool] = {}

    def _note_transition(self, to: str) -> None:
        obs = self.obs
        if obs.enabled:
            # Label key is "debouncer", not "name": the recorder API's
            # first positional is the metric name.
            obs.count(
                "debounce_transitions_total", debouncer=self.name, to=to
            )
            obs.gauge(
                "debounce_confirmed_links",
                sum(1 for v in self._confirmed.values() if v),
                debouncer=self.name,
            )

    def update(self, link_id: LinkId, rate: float, time_s: float) -> bool:
        """Feed one report; return True exactly when the onset confirms."""
        if rate < self.low:
            self.clear(link_id)
            return False
        last = self._last_time.get(link_id)
        stale = last is not None and time_s - last > self.window_s
        self._last_time[link_id] = time_s
        if rate < self.high:
            # Between the watermarks: keeps a confirmed link confirmed,
            # but does not advance a confirmation streak.
            if not self._confirmed.get(link_id, False):
                self._streak[link_id] = 0
            return False
        if self._confirmed.get(link_id, False):
            return False  # already fired; don't re-churn
        streak = 1 if stale else self._streak.get(link_id, 0) + 1
        if streak >= self.confirm:
            self._confirmed[link_id] = True
            self._streak[link_id] = 0
            self._note_transition("confirmed")
            return True
        self._streak[link_id] = streak
        return False

    def confirmed_count(self) -> int:
        """Links currently holding a confirmed onset."""
        return sum(1 for v in self._confirmed.values() if v)

    def clear(self, link_id: LinkId) -> None:
        """Reset a link's debounce state (rate fell below the watermark,
        or the link was repaired)."""
        was_confirmed = self._confirmed.get(link_id, False)
        self._streak.pop(link_id, None)
        self._last_time.pop(link_id, None)
        self._confirmed.pop(link_id, None)
        if was_confirmed:
            self._note_transition("cleared")


# ---------------------------------------------------------------------- #
# Retry with backoff
# ---------------------------------------------------------------------- #


def retry_with_backoff(
    fn: Callable[[], "object"],
    attempts: int = 3,
    base_delay_s: float = 1.0,
    factor: float = 2.0,
    sleep: Optional[Callable[[float], None]] = None,
    exceptions: Tuple[Type[BaseException], ...] = (Exception,),
):
    """Call ``fn`` up to ``attempts`` times with exponential backoff.

    ``sleep`` is injectable (and defaults to a no-op) because the
    simulation owns time; a deployment harness passes ``time.sleep``.
    Re-raises the last exception when every attempt fails.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = base_delay_s
    for attempt in range(attempts):
        try:
            return fn()
        except exceptions:
            if attempt == attempts - 1:
                raise
            if sleep is not None:
                sleep(delay)
            delay *= factor


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #


class BreakerState(enum.Enum):
    CLOSED = "closed"        # normal operation
    OPEN = "open"            # failing fast; fallback path in use
    HALF_OPEN = "half_open"  # recovery window passed; one probe allowed


class CircuitBreaker:
    """Classic three-state circuit breaker with explicit timestamps.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` is False (callers use their fallback).  After
    ``recovery_s`` the breaker half-opens: the next call is allowed as a
    probe, and its outcome either closes or re-opens the breaker.

    Every state transition is exported through ``obs`` as a labeled
    counter (``breaker_transitions_total{breaker,from,to}``) plus a numeric
    state gauge, so shard health dashboards can see breakers flip without
    polling.
    """

    #: Gauge encoding of the three states.
    STATE_VALUES = {
        BreakerState.CLOSED: 0,
        BreakerState.HALF_OPEN: 1,
        BreakerState.OPEN: 2,
    }

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_s: float = 4 * 3600.0,
        obs: Recorder = NULL_RECORDER,
        name: str = "optimizer",
    ):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self.obs = obs
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: Optional[float] = None
        self.trips = 0

    def _transition(self, to: BreakerState) -> None:
        """Move to ``to``, exporting the transition when it changes state."""
        prev = self.state
        self.state = to
        if prev is to:
            return
        obs = self.obs
        if obs.enabled:
            obs.count(
                "breaker_transitions_total",
                breaker=self.name,
                **{"from": prev.value, "to": to.value},
            )
            obs.gauge(
                "breaker_state", self.STATE_VALUES[to], breaker=self.name
            )

    def allow(self, time_s: float) -> bool:
        """Whether the protected call may run at ``time_s``."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if (
                self.opened_at_s is not None
                and time_s - self.opened_at_s >= self.recovery_s
            ):
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: probe allowed

    def record_success(self) -> None:
        self._transition(BreakerState.CLOSED)
        self.consecutive_failures = 0
        self.opened_at_s = None

    def record_failure(self, time_s: float) -> None:
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state is not BreakerState.OPEN:
                self.trips += 1
            self._transition(BreakerState.OPEN)
            self.opened_at_s = time_s


# ---------------------------------------------------------------------- #
# Audit log
# ---------------------------------------------------------------------- #


@dataclass
class AuditRecord:
    """One degraded / fail-safe decision, in structured form."""

    time_s: float
    event: str
    link_id: Optional[LinkId] = None
    detail: str = ""
    fail_safe: bool = False

    @property
    def verdict(self) -> str:
        """Operator-facing outcome label for this entry."""
        return "fail-safe-keep" if self.fail_safe else self.event

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "decision",
            "sim_time_s": self.time_s,
            "link": list(self.link_id) if self.link_id else None,
            "verdict": self.verdict,
            "event": self.event,
            "reason": self.detail,
            "fail_safe": self.fail_safe,
        }


@dataclass
class AuditLog:
    """Ring-buffered audit trail with exact per-event aggregate counts.

    The record buffer is bounded (old entries evict; ``evicted`` counts
    how many, so week-long service runs can't grow it without limit and
    dashboards can see how much history the ring has shed), but
    ``counts`` are plain integers and stay exact over arbitrarily long
    runs.
    """

    maxlen: int = 1024
    counts: Dict[str, int] = field(default_factory=dict)
    evicted: int = 0
    _records: Deque[AuditRecord] = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if self.maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._records = deque(self._records, maxlen=self.maxlen)

    def record(
        self,
        time_s: float,
        event: str,
        link_id: Optional[LinkId] = None,
        detail: str = "",
        fail_safe: bool = False,
    ) -> AuditRecord:
        entry = AuditRecord(
            time_s=time_s,
            event=event,
            link_id=link_id,
            detail=detail,
            fail_safe=fail_safe,
        )
        if len(self._records) == self.maxlen:
            self.evicted += 1  # the append below pushes out the oldest
        self._records.append(entry)
        self.counts[event] = self.counts.get(event, 0) + 1
        return entry

    def records(self) -> List[AuditRecord]:
        return list(self._records)

    def total(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------------ #
    # Structured JSONL export
    # ------------------------------------------------------------------ #

    def jsonl_lines(self) -> Iterator[str]:
        """Header line, then one decision per line (buffered entries only).

        The header carries provenance (format, version) plus the *exact*
        per-event counts, which survive ring-buffer eviction even when the
        per-decision lines do not.
        """
        yield json.dumps(
            {
                "type": "header",
                "format": "repro-audit",
                "format_version": AUDIT_FORMAT_VERSION,
                "repro_version": __version__,
                "total_decisions": self.total(),
                "buffered_decisions": len(self._records),
                "evicted_decisions": self.evicted,
                "counts": dict(sorted(self.counts.items())),
            },
            sort_keys=True,
        )
        for record in self._records:
            yield json.dumps(record.to_dict(), sort_keys=True)

    def write_jsonl(self, path) -> Path:
        """Write the JSONL export to ``path``."""
        out = Path(path)
        with open(out, "w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")
        return out
