"""Declarative SLO rules over the health indicators.

The paper's operational loop is only trustworthy if its health can be
*judged*, not just observed: §5.2's promise is that corruption is caught
within a monitoring interval and mitigated within minutes, §6 requires
the capacity constraint to hold at every instant, and §7.2 bounds how
often a healthy link may be pulled out of service.  An
:class:`SLORule` states one such promise as data — an indicator path
into the health snapshot, a comparator, a threshold, and a hysteresis
window — and the :class:`SLOEngine` evaluates the whole rule set at
every health snapshot, in **event time** only.

Alerts are structured transitions (``firing`` / ``resolved``), appended
to a deterministic internal stream and mirrored into the obs event
stream when a live recorder is attached.  Because evaluation consumes
nothing but simulation-derived values, the alert stream is byte-identical
across worker counts and across checkpoint kill/resume boundaries (the
engine pickles with the sensing pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "ALERTS_FORMAT",
    "ALERTS_FORMAT_VERSION",
    "DEFAULT_SLO_RULES",
    "SLOEngine",
    "SLORule",
]

ALERTS_FORMAT = "repro-health-alerts"
#: Bumped when the alert record layout changes incompatibly.
ALERTS_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SLORule:
    """One service-level objective over a health indicator.

    Args:
        name: Stable rule identifier (appears in alerts and scorecards).
        indicator: Dotted path into the health snapshot, e.g.
            ``"detection.latency_p95_s"``.
        op: ``"<="`` (indicator must stay at or below ``threshold``) or
            ``">="`` (must stay at or above it).
        threshold: The objective's bound.
        for_s: Hysteresis window — the indicator must breach continuously
            for this many simulated seconds before the rule fires.
        clear_for_s: The indicator must satisfy the objective continuously
            for this long before a firing rule resolves.
        severity: ``info`` | ``warning`` | ``critical``.
        paper_ref: Paper section grounding this objective (documentation
            only; echoed into scorecards).
    """

    name: str
    indicator: str
    op: str
    threshold: float
    for_s: float = 0.0
    clear_for_s: float = 0.0
    severity: str = "warning"
    paper_ref: str = ""

    def breached(self, value: float) -> bool:
        if self.op == "<=":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "indicator": self.indicator,
            "op": self.op,
            "threshold": self.threshold,
            "for_s": self.for_s,
            "clear_for_s": self.clear_for_s,
            "severity": self.severity,
            "paper_ref": self.paper_ref,
        }


#: The built-in, paper-grounded objective set.  Thresholds are stated in
#: event time against the default 15-minute poll interval (§5.2).
DEFAULT_SLO_RULES = (
    SLORule(
        name="detection-latency-p95",
        indicator="detection.latency_p95_s",
        op="<=",
        threshold=1800.0,  # two polls
        for_s=3600.0,
        severity="warning",
        paper_ref="§5.2 (CorrOpt reacts within a monitoring interval)",
    ),
    SLORule(
        name="detection-overdue",
        indicator="detection.overdue",
        op="<=",
        threshold=0.0,
        for_s=3600.0,
        severity="critical",
        paper_ref="§5.2 (every corrupting link must surface)",
    ),
    SLORule(
        name="time-to-mitigation-p95",
        indicator="mitigation.ttm_p95_s",
        op="<=",
        threshold=7200.0,
        for_s=3600.0,
        severity="warning",
        paper_ref="§7.1 (fast checker disables within minutes)",
    ),
    SLORule(
        name="false-disable-rate",
        indicator="disables.false_rate",
        op="<=",
        threshold=0.05,
        severity="critical",
        paper_ref="§7.2 (repair accuracy; healthy links stay in service)",
    ),
    SLORule(
        name="capacity-headroom",
        indicator="capacity.headroom",
        op=">=",
        threshold=0.0,
        severity="critical",
        paper_ref="§6 (the capacity constraint must always hold)",
    ),
    SLORule(
        name="quarantine-depth",
        indicator="quarantine.depth",
        op="<=",
        threshold=64.0,
        for_s=7200.0,
        severity="warning",
        paper_ref="§5 (telemetry quality gates the whole loop)",
    ),
    SLORule(
        name="breaker-open-duty",
        indicator="breaker.open_duty",
        op="<=",
        threshold=0.5,
        for_s=3600.0,
        severity="warning",
        paper_ref="§6 (the optimizer must usually be available)",
    ),
)


def _lookup(snapshot: Dict[str, object], path: str) -> Optional[float]:
    """Resolve a dotted indicator path; None when absent or non-numeric."""
    node: object = snapshot
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


@dataclass
class _RuleState:
    """Per-rule hysteresis state machine (picklable)."""

    firing: bool = False
    breach_since: Optional[float] = None
    ok_since: Optional[float] = None
    breaches: int = 0  # completed firing episodes


class SLOEngine:
    """Evaluate :data:`DEFAULT_SLO_RULES` against successive event-time
    health snapshots.

    The engine owns nothing wall-clock: ``evaluate`` is driven by the
    sensing pipeline at poll ticks and appends alert transitions to
    :attr:`alerts` in a canonical, replayable order (rule order within a
    tick follows the rule list).
    """

    def __init__(self):
        self.rules = DEFAULT_SLO_RULES
        self._states: List[_RuleState] = [_RuleState() for _ in self.rules]
        self.alerts: List[Dict[str, object]] = []

    # -- evaluation ----------------------------------------------------- #

    def _transition(
        self,
        time_s: float,
        rule: SLORule,
        state: str,
        value: float,
        obs=None,
    ) -> None:
        alert = {
            "type": "alert",
            "sim_time_s": time_s,
            "rule": rule.name,
            "severity": rule.severity,
            "state": state,
            "indicator": rule.indicator,
            "op": rule.op,
            "threshold": rule.threshold,
            "value": value,
        }
        self.alerts.append(alert)
        if obs is not None and getattr(obs, "enabled", False):
            obs.event(
                "slo_alert",
                rule=rule.name,
                severity=rule.severity,
                state=state,
                value=value,
                threshold=rule.threshold,
            )
            obs.count(
                "slo_alert_transitions_total",
                rule=rule.name,
                state=state,
            )

    def evaluate(
        self, time_s: float, snapshot: Dict[str, object], obs=None
    ) -> None:
        """Feed one event-time snapshot through every rule."""
        for rule, state in zip(self.rules, self._states):
            value = _lookup(snapshot, rule.indicator)
            if value is None:
                continue  # indicator not yet defined (e.g. no detections)
            if rule.breached(value):
                state.ok_since = None
                if state.firing:
                    continue
                if state.breach_since is None:
                    state.breach_since = time_s
                if time_s - state.breach_since >= rule.for_s:
                    state.firing = True
                    state.breaches += 1
                    self._transition(time_s, rule, "firing", value, obs)
            else:
                state.breach_since = None
                if not state.firing:
                    continue
                if state.ok_since is None:
                    state.ok_since = time_s
                if time_s - state.ok_since >= rule.clear_for_s:
                    state.firing = False
                    state.ok_since = None
                    self._transition(time_s, rule, "resolved", value, obs)

    # -- reading -------------------------------------------------------- #

    def rule_states(self) -> List[Dict[str, object]]:
        """One canonical dict per rule: definition + current state."""
        out = []
        for rule, state in zip(self.rules, self._states):
            entry = rule.to_dict()
            entry["state"] = "firing" if state.firing else "ok"
            entry["breaches"] = state.breaches
            out.append(entry)
        return out
