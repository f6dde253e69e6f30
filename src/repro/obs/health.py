"""Event-time fleet health indicators and scorecards.

This module turns the raw streams the repo already records (chaos
counters, controller decisions, audit entries) into the paper-grounded
health picture an operator would watch:

* **detection latency** — corruption onset to the first confirmed
  detection (§5.2: CorrOpt reacts within a monitoring interval),
* **time to mitigation** — onset to the disable decision (§7.1),
* **false-positive disable rate** — healthy links pulled from service
  (§7.2 repair accuracy),
* **penalty attribution** — how much penalty-seconds the fleet incurred
  before mitigation vs how much mitigation avoided (§6's objective),
* **capacity headroom** — worst ToR fraction against the §6 constraint,
* **quarantine depth** and **breaker / debouncer duty cycles** — the
  telemetry-quality guardrails from the resilience layer.

Everything is measured in **simulation event time**.  The tracker is
fed by the sensing pipeline's hooks, carries no wall-clock state, and
pickles with the pipeline, so scorecards and alert streams are
byte-identical across worker counts and across checkpoint kill/resume
boundaries.  :meth:`HealthTracker.report` is pure — it never mutates
tracker state — so a partial scorecard can be flushed on graceful drain
without perturbing a later resume.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.core.penalty import linear_penalty
from repro.obs.slo import (
    ALERTS_FORMAT,
    ALERTS_FORMAT_VERSION,
    SLOEngine,
)

__all__ = [
    "HEALTH_FORMAT",
    "HEALTH_FORMAT_VERSION",
    "HealthReport",
    "HealthTracker",
    "aggregate_sweep_health",
    "alert_lines_from_report",
    "health_from_run_result",
    "scorecard_json",
    "summarize_scorecard",
    "write_scorecard",
]

LinkId = Tuple[str, str]

HEALTH_FORMAT = "repro-health-scorecard"
#: Bumped when the scorecard layout changes incompatibly.
HEALTH_FORMAT_VERSION = 1

#: Scorecards list at most this many per-link rows (plus an omitted count)
#: so fleet-scale runs stay bounded.
MAX_LINK_ROWS = 256

#: A pending detection older than this many poll intervals is *overdue*:
#: the monitoring loop should have surfaced it by now (§5.2).
OVERDUE_POLLS = 2.0


def _quantile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank quantile over an already-sorted list (deterministic)."""
    if not sorted_values:
        return None
    rank = max(1, ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class _ShardStats:
    """Per-shard health accumulators (picklable)."""

    polls: int = 0
    breaker_open_polls: int = 0
    debounce_confirmed: int = 0  # last observed confirmed count
    detections: int = 0
    mitigations: int = 0
    false_disables: int = 0

    def to_dict(self, index: int) -> Dict[str, object]:
        duty = (
            self.breaker_open_polls / self.polls if self.polls else 0.0
        )
        return {
            "shard": index,
            "polls": self.polls,
            "breaker_open_polls": self.breaker_open_polls,
            "breaker_open_duty": duty,
            "debounce_confirmed": self.debounce_confirmed,
            "detections": self.detections,
            "mitigations": self.mitigations,
            "false_disables": self.false_disables,
        }


class HealthTracker:
    """Accumulates event-time health indicators from sensing hooks.

    The tracker is attached by the sensing pipeline and driven purely by
    simulation events: onsets, detections, disable decisions, repairs,
    and poll ticks.  It owns the embedded :class:`SLOEngine`, which is
    evaluated against the fleet snapshot at every poll tick.
    """

    def __init__(
        self,
        poll_interval_s: float,
        capacity_floor: float,
        duration_s: float,
        num_shards: int = 1,
    ):
        self.poll_interval_s = poll_interval_s
        self.capacity_floor = capacity_floor
        self.duration_s = duration_s
        #: Optional ShardRouter-like object (``shard_of(link_id) -> int``);
        #: the sharded service installs its router after construction.
        self.router = None
        self.slo = SLOEngine()

        # Per-link fault lifecycle (one active fault per link, mirroring
        # the kernel's onset bookkeeping).
        self._onset_s: Dict[LinkId, float] = {}
        self._detect_s: Dict[LinkId, float] = {}
        self._mitigate_s: Dict[LinkId, float] = {}
        self._weight: Dict[LinkId, float] = {}

        # Completed-interval accumulators: sorted for O(1) nearest-rank
        # quantiles, plus running sums for means (insertion follows event
        # order, so float accumulation is replay-stable).
        self._detect_lat: List[float] = []
        self._detect_lat_sum = 0.0
        self._ttm: List[float] = []
        self._ttm_sum = 0.0

        # Counters.
        self.true_disables = 0
        self.false_disables = 0
        self.kept_by_capacity = 0
        self.repairs = 0
        self.polls = 0

        # Capacity / quarantine / penalty gauges.
        self.headroom_last: Optional[float] = None
        self.headroom_min: Optional[float] = None
        self.quarantine_depth = 0
        self.quarantine_peak = 0
        self.penalty_last = 0.0
        self.last_poll_s = 0.0

        # Finalized penalty attribution (penalty-seconds).
        self._penalty_incurred = 0.0
        self._penalty_avoided = 0.0

        self.shards: List[_ShardStats] = [
            _ShardStats() for _ in range(max(1, num_shards))
        ]

        #: Optional cause-attribution ledger (:class:`repro.core.
        #: diagnosis.DiagnosisStats`), attached by diagnosis-aware
        #: pipelines.  ``None`` on historical configurations so their
        #: scorecards are byte-identical.
        self.diagnosis = None

    def attach_diagnosis(self, stats) -> None:
        """Surface a pipeline's diagnosis ledger in health reports."""
        self.diagnosis = stats

    # -- routing -------------------------------------------------------- #

    def _shard(self, link_id: LinkId) -> _ShardStats:
        index = 0
        if self.router is not None:
            index = self.router.shard_of(link_id)
        if index >= len(self.shards):
            index = 0
        return self.shards[index]

    # -- lifecycle hooks (event time only) ------------------------------ #

    def note_onset(self, time_s: float, link_id: LinkId, rate: float) -> None:
        """A corruption fault started on ``link_id`` at ``time_s``."""
        self._onset_s[link_id] = time_s
        self._weight[link_id] = linear_penalty(rate)
        # A re-onset on an undetected link restarts its clock (the kernel
        # tracks a single active fault per link the same way).
        self._detect_s.pop(link_id, None)
        self._mitigate_s.pop(link_id, None)

    def note_detection(self, now: float, link_id: LinkId) -> None:
        """First confirmed detection of the active fault on ``link_id``."""
        onset = self._onset_s.get(link_id)
        if onset is None or link_id in self._detect_s:
            return
        self._detect_s[link_id] = now
        latency = max(0.0, now - onset)
        insort(self._detect_lat, latency)
        self._detect_lat_sum += latency
        self._shard(link_id).detections += 1

    def note_mitigation(
        self, now: float, link_id: LinkId, truly_corrupting: bool, rate: float
    ) -> None:
        """The controller disabled ``link_id`` (the paper's mitigation)."""
        if not truly_corrupting:
            self.false_disables += 1
            self._shard(link_id).false_disables += 1
            return
        self.true_disables += 1
        onset = self._onset_s.get(link_id)
        if onset is None or link_id in self._mitigate_s:
            return
        self._mitigate_s[link_id] = now
        self._weight[link_id] = linear_penalty(rate)
        ttm = max(0.0, now - onset)
        insort(self._ttm, ttm)
        self._ttm_sum += ttm
        self._penalty_incurred += self._weight[link_id] * ttm
        self._shard(link_id).mitigations += 1

    def note_kept(self, now: float, link_id: LinkId) -> None:
        """A corrupting link was kept in service by the §6 constraint."""
        del now, link_id
        self.kept_by_capacity += 1

    def note_repair(self, time_s: float, link_id: LinkId) -> None:
        """The fault on ``link_id`` was repaired; finalize its intervals."""
        self.repairs += 1
        mitigated = self._mitigate_s.pop(link_id, None)
        weight = self._weight.pop(link_id, 0.0)
        if mitigated is not None:
            self._penalty_avoided += weight * max(0.0, time_s - mitigated)
        self._onset_s.pop(link_id, None)
        self._detect_s.pop(link_id, None)

    def note_poll(
        self,
        time_s: float,
        worst: float,
        quarantined: int,
        components: Sequence[Tuple[int, int, int]],
        penalty: float,
        obs=None,
    ) -> None:
        """One monitoring tick: capacity, quarantine, duty cycles, SLOs.

        ``components`` carries one ``(shard_index, breaker_open,
        debounce_confirmed)`` triple per shard.
        """
        self.polls += 1
        self.last_poll_s = time_s
        headroom = worst - self.capacity_floor
        self.headroom_last = headroom
        if self.headroom_min is None or headroom < self.headroom_min:
            self.headroom_min = headroom
        self.quarantine_depth = quarantined
        if quarantined > self.quarantine_peak:
            self.quarantine_peak = quarantined
        self.penalty_last = penalty
        for index, breaker_open, confirmed in components:
            if index >= len(self.shards):
                continue
            stats = self.shards[index]
            stats.polls += 1
            stats.breaker_open_polls += 1 if breaker_open else 0
            stats.debounce_confirmed = confirmed
        self.slo.evaluate(time_s, self.snapshot(time_s), obs)

    # -- pure readers --------------------------------------------------- #

    def _pending_penalties(self, now: float) -> Tuple[float, float]:
        """Live (incurred, avoided) penalty-seconds for open intervals."""
        incurred = 0.0
        avoided = 0.0
        # Deterministic accumulation order: sort by link id.
        for link_id in sorted(self._onset_s):
            weight = self._weight.get(link_id, 0.0)
            mitigated = self._mitigate_s.get(link_id)
            if mitigated is None:
                incurred += weight * max(0.0, now - self._onset_s[link_id])
            else:
                avoided += weight * max(0.0, now - mitigated)
        return incurred, avoided

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """The fleet indicator tree at ``now`` (pure; SLO rules read this)."""
        if now is None:
            now = self.last_poll_s
        pending = [
            link for link in self._onset_s if link not in self._detect_s
        ]
        overdue_after = OVERDUE_POLLS * self.poll_interval_s
        overdue = sum(
            1 for link in pending if now - self._onset_s[link] > overdue_after
        )
        backlog = sum(
            1
            for link in self._detect_s
            if link not in self._mitigate_s and link in self._onset_s
        )
        total_disables = self.true_disables + self.false_disables
        live_incurred, live_avoided = self._pending_penalties(now)
        polls = sum(stats.polls for stats in self.shards)
        open_polls = sum(stats.breaker_open_polls for stats in self.shards)
        return {
            "detection": {
                "count": len(self._detect_lat),
                "latency_p50_s": _quantile(self._detect_lat, 0.50),
                "latency_p95_s": _quantile(self._detect_lat, 0.95),
                "latency_mean_s": (
                    self._detect_lat_sum / len(self._detect_lat)
                    if self._detect_lat
                    else None
                ),
                "pending": len(pending),
                "overdue": overdue,
            },
            "mitigation": {
                "count": len(self._ttm),
                "ttm_p50_s": _quantile(self._ttm, 0.50),
                "ttm_p95_s": _quantile(self._ttm, 0.95),
                "ttm_mean_s": (
                    self._ttm_sum / len(self._ttm) if self._ttm else None
                ),
                "backlog": backlog,
                "kept_by_capacity": self.kept_by_capacity,
                "repairs": self.repairs,
            },
            "disables": {
                "true": self.true_disables,
                "false": self.false_disables,
                "false_rate": (
                    self.false_disables / total_disables
                    if total_disables
                    else 0.0
                ),
            },
            "penalty": {
                "current": self.penalty_last,
                "unmitigated_proxy_s": self._penalty_incurred + live_incurred,
                "mitigated_proxy_s": self._penalty_avoided + live_avoided,
            },
            "capacity": {
                "floor": self.capacity_floor,
                "headroom": self.headroom_last,
                "headroom_min": self.headroom_min,
            },
            "quarantine": {
                "depth": self.quarantine_depth,
                "peak": self.quarantine_peak,
            },
            "breaker": {
                "open_duty": open_polls / polls if polls else 0.0,
            },
            "debounce": {
                "confirmed": sum(
                    stats.debounce_confirmed for stats in self.shards
                ),
            },
            "polls": self.polls,
        }

    def _link_rows(self) -> Tuple[List[Dict[str, object]], int]:
        rows = []
        for link_id in sorted(self._onset_s):
            onset = self._onset_s[link_id]
            detected = self._detect_s.get(link_id)
            mitigated = self._mitigate_s.get(link_id)
            rows.append({
                "link": "->".join(link_id),
                "onset_s": onset,
                "detected_s": detected,
                "mitigated_s": mitigated,
                "detection_latency_s": (
                    detected - onset if detected is not None else None
                ),
                "ttm_s": (
                    mitigated - onset if mitigated is not None else None
                ),
            })
        omitted = max(0, len(rows) - MAX_LINK_ROWS)
        return rows[:MAX_LINK_ROWS], omitted

    def report(
        self, end_s: Optional[float] = None, complete: bool = True
    ) -> "HealthReport":
        """Build a :class:`HealthReport`; never mutates tracker state."""
        if end_s is None:
            end_s = self.duration_s if complete else self.last_poll_s
        links, omitted = self._link_rows()
        return HealthReport(
            fleet=self.snapshot(end_s),
            shards=[
                stats.to_dict(index)
                for index, stats in enumerate(self.shards)
            ],
            links=links,
            links_omitted=omitted,
            slo_rules=self.slo.rule_states(),
            alerts=list(self.slo.alerts),
            complete=complete,
            end_s=end_s,
            diagnosis=(
                self.diagnosis.row() if self.diagnosis is not None else None
            ),
        )


@dataclass
class HealthReport:
    """A frozen view of tracker state — plain data, picklable, canonical."""

    fleet: Dict[str, object]
    shards: List[Dict[str, object]]
    links: List[Dict[str, object]]
    links_omitted: int
    slo_rules: List[Dict[str, object]]
    alerts: List[Dict[str, object]]
    complete: bool
    end_s: float
    #: Flat diagnosis-accuracy block (``DiagnosisStats.row()``); ``None``
    #: unless the run was diagnosis-aware, keeping legacy scorecards
    #: byte-identical.
    diagnosis: Optional[Dict[str, object]] = None

    def firing(self) -> List[str]:
        return [
            rule["name"]
            for rule in self.slo_rules
            if rule["state"] == "firing"
        ]

    def row(self) -> Dict[str, object]:
        """Compact flat block for sweep/tournament rows and service reports."""
        detection = self.fleet["detection"]
        mitigation = self.fleet["mitigation"]
        disables = self.fleet["disables"]
        return {
            "detections": detection["count"],
            "detection_latency_p50_s": detection["latency_p50_s"],
            "detection_latency_p95_s": detection["latency_p95_s"],
            "detection_pending": detection["pending"],
            "ttm_p50_s": mitigation["ttm_p50_s"],
            "ttm_p95_s": mitigation["ttm_p95_s"],
            "false_disables": disables["false"],
            "false_disable_rate": disables["false_rate"],
            "headroom_min": self.fleet["capacity"]["headroom_min"],
            "quarantine_peak": self.fleet["quarantine"]["peak"],
            "breaker_open_duty": self.fleet["breaker"]["open_duty"],
            "alerts_fired": len(self.alerts),
            "slo_ok": not self.firing(),
        }

    def scorecard(self, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The full canonical scorecard object."""
        card: Dict[str, object] = {
            "format": HEALTH_FORMAT,
            "format_version": HEALTH_FORMAT_VERSION,
            "repro_version": __version__,
            "sensing": "telemetry",
            "complete": self.complete,
            "end_s": self.end_s,
            "fleet": self.fleet,
            "shards": self.shards,
            "links": self.links,
            "links_omitted": self.links_omitted,
            "slo": {
                "rules": self.slo_rules,
                "alerts": self.alerts,
                "alerts_fired": len(self.alerts),
                "firing": self.firing(),
                "ok": not self.firing(),
            },
        }
        if self.diagnosis is not None:
            card["diagnosis"] = self.diagnosis
        if extra:
            card.update(extra)
        return card


def scorecard_json(report: HealthReport, extra=None) -> str:
    """Canonical single-line JSON for a scorecard (byte-stable)."""
    return _canonical(report.scorecard(extra))


def write_scorecard(path, report: HealthReport, extra=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(scorecard_json(report, extra) + "\n")


def alert_lines_from_report(report: HealthReport) -> List[str]:
    """The report's alert stream as canonical JSONL (header + rows).

    The header names the report's SLO rules and counts its alerts; the
    rows are the alert transitions in the order they fired.
    """
    header = {
        "type": "header",
        "format": ALERTS_FORMAT,
        "format_version": ALERTS_FORMAT_VERSION,
        "repro_version": __version__,
        "rules": [rule["name"] for rule in report.slo_rules],
        "alerts": len(report.alerts),
    }
    return [_canonical(row) for row in [header] + list(report.alerts)]


def health_from_run_result(result) -> Dict[str, object]:
    """A reduced scorecard for runs without telemetry sensing.

    Oracle ``repro simulate`` runs have no onset/detection stream, so
    the scorecard carries only penalty and capacity indicators and marks
    ``sensing`` accordingly.  Runs whose result already holds a
    :class:`HealthReport` get the full card.
    """
    health = getattr(result, "health", None)
    if isinstance(health, HealthReport):
        return health.scorecard()
    worst = result.metrics.worst_tor_fraction
    return {
        "format": HEALTH_FORMAT,
        "format_version": HEALTH_FORMAT_VERSION,
        "repro_version": __version__,
        "sensing": "oracle",
        "complete": True,
        "end_s": result.duration_s,
        "fleet": {
            "penalty": {
                "integral": result.penalty_integral,
                "mean": result.mean_penalty(),
            },
            "capacity": {
                "worst_min": worst.min_value(),
            },
        },
        "shards": [],
        "links": [],
        "links_omitted": 0,
        "slo": {
            "rules": [],
            "alerts": [],
            "alerts_fired": 0,
            "firing": [],
            "ok": True,
        },
    }


# -- scorecard consumers (the ``repro health`` command) ----------------- #

def _fmt(value, unit="") -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}{unit}"
    return f"{value}{unit}"


def summarize_scorecard(card: Dict[str, object]) -> List[str]:
    """Human-readable scorecard lines for the CLI."""
    lines = []
    sensing = card.get("sensing", "telemetry")
    status = "complete" if card.get("complete") else "partial"
    lines.append(
        f"health scorecard ({sensing} sensing, {status}, "
        f"end={_fmt(card.get('end_s'), 's')})"
    )
    fleet = card.get("fleet", {})
    detection = fleet.get("detection")
    if detection:
        lines.append(
            "  detection: "
            f"{detection.get('count', 0)} detected, "
            f"p50={_fmt(detection.get('latency_p50_s'), 's')} "
            f"p95={_fmt(detection.get('latency_p95_s'), 's')} "
            f"pending={detection.get('pending', 0)} "
            f"overdue={detection.get('overdue', 0)}"
        )
    mitigation = fleet.get("mitigation")
    if mitigation:
        lines.append(
            "  mitigation: "
            f"{mitigation.get('count', 0)} disabled, "
            f"ttm p50={_fmt(mitigation.get('ttm_p50_s'), 's')} "
            f"p95={_fmt(mitigation.get('ttm_p95_s'), 's')} "
            f"backlog={mitigation.get('backlog', 0)} "
            f"repairs={mitigation.get('repairs', 0)}"
        )
    disables = fleet.get("disables")
    if disables:
        lines.append(
            "  disables: "
            f"true={disables.get('true', 0)} "
            f"false={disables.get('false', 0)} "
            f"false_rate={_fmt(disables.get('false_rate'))}"
        )
    penalty = fleet.get("penalty")
    if penalty:
        if "unmitigated_proxy_s" in penalty:
            lines.append(
                "  penalty: "
                f"current={_fmt(penalty.get('current'))} "
                f"unmitigated={_fmt(penalty.get('unmitigated_proxy_s'))} "
                f"avoided={_fmt(penalty.get('mitigated_proxy_s'))}"
            )
        else:
            lines.append(
                "  penalty: "
                f"integral={_fmt(penalty.get('integral'))} "
                f"mean={_fmt(penalty.get('mean'))}"
            )
    capacity = fleet.get("capacity")
    if capacity:
        lines.append(
            "  capacity: "
            f"headroom={_fmt(capacity.get('headroom'))} "
            f"min={_fmt(capacity.get('headroom_min', capacity.get('worst_min')))}"
        )
    quarantine = fleet.get("quarantine")
    if quarantine:
        lines.append(
            "  quarantine: "
            f"depth={quarantine.get('depth', 0)} "
            f"peak={quarantine.get('peak', 0)}"
        )
    for shard in card.get("shards", []):
        lines.append(
            f"  shard {shard['shard']}: "
            f"detections={shard['detections']} "
            f"mitigations={shard['mitigations']} "
            f"false={shard['false_disables']} "
            f"breaker_duty={_fmt(shard['breaker_open_duty'])}"
        )
    diagnosis = card.get("diagnosis")
    if diagnosis:
        lines.append(
            "  diagnosis: "
            f"{diagnosis.get('diagnoses', 0)} verdicts, "
            f"congestion_mitigations={diagnosis.get('congestion_mitigations', 0)} "
            f"missed_corrupting={diagnosis.get('missed_corrupting', 0)}"
        )
        for cause in ("corruption", "congestion", "both", "miswired", "unknown"):
            precision = diagnosis.get(f"precision_{cause}")
            recall = diagnosis.get(f"recall_{cause}")
            if precision is None and recall is None:
                continue
            lines.append(
                f"    {cause}: precision={_fmt(precision)} "
                f"recall={_fmt(recall)}"
            )
    slo = card.get("slo", {})
    firing = slo.get("firing", [])
    lines.append(
        "  slo: "
        + (
            "OK (no rules firing)"
            if not firing
            else "FIRING " + ",".join(firing)
        )
        + f" [{slo.get('alerts_fired', 0)} alert transition(s)]"
    )
    return lines


def aggregate_sweep_health(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Fleet summary over sweep/tournament rows carrying ``health`` blocks.

    Counters are summed; latency indicators are aggregated min/mean/max
    across jobs that reported them.
    """
    blocks = [row["health"] for row in rows if row.get("health")]
    summary: Dict[str, object] = {"jobs": len(rows), "jobs_with_health": len(blocks)}
    if not blocks:
        return summary
    for key in ("detections", "false_disables", "alerts_fired"):
        summary[key] = sum(int(block.get(key) or 0) for block in blocks)
    for key in (
        "detection_latency_p50_s",
        "detection_latency_p95_s",
        "ttm_p50_s",
        "ttm_p95_s",
        "false_disable_rate",
        "breaker_open_duty",
        "headroom_min",
    ):
        values = [
            float(block[key])
            for block in blocks
            if isinstance(block.get(key), (int, float))
            and not isinstance(block.get(key), bool)
        ]
        if values:
            summary[key] = {
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }
    summary["slo_ok_jobs"] = sum(
        1 for block in blocks if block.get("slo_ok", True)
    )
    return summary
