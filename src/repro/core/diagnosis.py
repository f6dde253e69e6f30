"""Cause attribution at the sensing → controller boundary.

The paper separates corruption from congestion by their signatures (§3:
corruption shows FCS errors and does *not* track utilization; congestion
drops track utilization and carry no FCS signature) and maps symptoms to
root causes (§4).  Historically our sensing pipelines handed the
controller a bare loss rate, so it could not ask *why* a link is lossy
before disabling it.  This module is the refactored contract: pipelines
emit structured :class:`LinkDiagnosis` records, and the controller side
decides per cause whether mitigation is warranted.

Everything here is pure arithmetic over already-collected samples — no
RNG, no wall clock — so diagnosis-aware runs stay deterministic and the
compatibility shim (classifying with an empty congestion channel) is
byte-identical to the pre-diagnosis pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.penalty import ordered_sum
from repro.topology.elements import Direction, LinkId

#: The cause taxonomy.  ``corruption`` and ``congestion`` are the §3
#: dichotomy; ``both`` is the adversarial overlap the discriminator must
#: untangle; ``miswired`` is the A3-style case where the *map* is wrong
#: (counters are real but attributed to the wrong link); ``unknown``
#: means the evidence supports no verdict — treated as corruption for
#: mitigation (fail-safe: an undiagnosed lossy link is still lossy).
CAUSE_CORRUPTION = "corruption"
CAUSE_CONGESTION = "congestion"
CAUSE_BOTH = "both"
CAUSE_MISWIRED = "miswired"
CAUSE_UNKNOWN = "unknown"

CAUSES: Tuple[str, ...] = (
    CAUSE_CORRUPTION,
    CAUSE_CONGESTION,
    CAUSE_BOTH,
    CAUSE_MISWIRED,
    CAUSE_UNKNOWN,
)

#: Causes for which mitigation (disable / ticket) is on the table.
#: Congestion-only links are *never* actionable — disabling a congested
#: link shifts its traffic and makes the congestion worse — and miswired
#: links must not be disabled by counter evidence because the counters
#: belong to some other link.
ACTIONABLE_CAUSES = frozenset(
    {CAUSE_CORRUPTION, CAUSE_BOTH, CAUSE_UNKNOWN}
)


@dataclass(frozen=True)
class LinkDiagnosis:
    """One structured verdict about one link direction at one poll.

    Attributes:
        link_id: The (possibly map-corrupted) link the sample is
            attributed to.
        direction: Which direction of the link.
        cause: One of :data:`CAUSES`.
        confidence: Classifier confidence in ``[0, 1]``; evidence-backed
            verdicts score higher than threshold-only ones.
        corruption_rate: Sanitized FCS-error rate at diagnosis time.
        congestion_rate: Sanitized queue-drop rate at diagnosis time.
        utilization: Link utilization at diagnosis time (0 when the
            pipeline has no utilization channel).
        evidence: Human-auditable clauses that produced the verdict,
            in evaluation order.
        time_s: Simulation time of the sample.
    """

    link_id: LinkId
    direction: Direction
    cause: str
    confidence: float
    corruption_rate: float
    congestion_rate: float = 0.0
    utilization: float = 0.0
    evidence: Tuple[str, ...] = ()
    time_s: float = 0.0

    def actionable(self) -> bool:
        """May the controller mitigate (disable/ticket) on this verdict?"""
        return self.cause in ACTIONABLE_CAUSES


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; 0.0 when degenerate (short or flat series)."""
    n = min(len(xs), len(ys))
    if n < 3:
        return 0.0
    xs, ys = xs[-n:], ys[-n:]
    mean_x = ordered_sum(xs) / n
    mean_y = ordered_sum(ys) / n
    cov = ordered_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = ordered_sum((x - mean_x) ** 2 for x in xs)
    var_y = ordered_sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0.0 or var_y <= 0.0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


class CauseClassifier:
    """Threshold + correlation discriminator for the §3 dichotomy.

    Rules, in order:

    1. a standing miswire flag (from the active-probe cross-check)
       dominates every counter argument — the counters are someone
       else's;
    2. FCS errors ≥ threshold and drops ≥ threshold → ``both``;
    3. FCS errors alone → ``corruption``;
    4. drops alone → ``congestion``, with confidence boosted by a
       positive utilization↔drop correlation over the recent history
       (the §3 signature) and damped when the correlation is absent;
    5. neither channel above threshold → ``unknown``.

    The classifier is stateless; history series are passed in so the
    caller controls the window (and so this stays trivially picklable).
    """

    def __init__(
        self,
        corruption_threshold: float = 1e-7,
        congestion_threshold: float = 1e-7,
        correlation_window: int = 16,
    ):
        if correlation_window < 1:
            raise ValueError("correlation_window must be >= 1")
        self.corruption_threshold = corruption_threshold
        self.congestion_threshold = congestion_threshold
        self.correlation_window = correlation_window

    def classify(
        self,
        link_id: LinkId,
        direction: Direction,
        corruption_rate: float,
        congestion_rate: float = 0.0,
        utilization: float = 0.0,
        time_s: float = 0.0,
        utilization_history: Optional[Sequence[float]] = None,
        congestion_history: Optional[Sequence[float]] = None,
        miswire_suspected: bool = False,
    ) -> LinkDiagnosis:
        evidence: List[str] = []
        corr = corruption_rate >= self.corruption_threshold
        cong = congestion_rate >= self.congestion_threshold
        if miswire_suspected:
            evidence.append("probe-crosscheck: counter/probe disagreement")
            return LinkDiagnosis(
                link_id, direction, CAUSE_MISWIRED, 0.9,
                corruption_rate, congestion_rate, utilization,
                tuple(evidence), time_s,
            )
        correlation = 0.0
        if cong and utilization_history and congestion_history:
            window = self.correlation_window
            correlation = pearson(
                list(utilization_history)[-window:],
                list(congestion_history)[-window:],
            )
        if corr and cong:
            evidence.append(
                f"fcs-errors {corruption_rate:.3g} and "
                f"drops {congestion_rate:.3g} both over threshold"
            )
            confidence = 0.6 + 0.3 * max(0.0, correlation)
            cause = CAUSE_BOTH
        elif corr:
            evidence.append(
                f"fcs-errors {corruption_rate:.3g} over threshold, "
                "no drop signature"
            )
            cause = CAUSE_CORRUPTION
            confidence = 0.8
        elif cong:
            evidence.append(
                f"drops {congestion_rate:.3g} over threshold, no FCS errors"
            )
            if correlation > 0.0:
                evidence.append(
                    f"drops track utilization (pearson {correlation:+.2f})"
                )
            cause = CAUSE_CONGESTION
            confidence = 0.5 + 0.4 * max(0.0, correlation)
        else:
            evidence.append("no channel over threshold")
            cause = CAUSE_UNKNOWN
            confidence = 0.0
        return LinkDiagnosis(
            link_id, direction, cause, min(1.0, confidence),
            corruption_rate, congestion_rate, utilization,
            tuple(evidence), time_s,
        )


@dataclass
class DiagnosisStats:
    """Confusion-matrix accounting of diagnoses vs ground truth.

    ``note(truth, diagnosed)`` is called once per (link, cause-episode)
    by the sensing pipeline; per-cause precision/recall plus the two
    operator-facing hazard rates (false disables of clean-or-congested
    links, corrupting links never diagnosed) come out of :meth:`row`.
    Plain counters only — picklable and mergeable across shards.
    """

    #: ``confusion[truth][diagnosed]`` → count.
    confusion: Dict[str, Dict[str, int]] = field(default_factory=dict)
    diagnoses: int = 0
    congestion_mitigations: int = 0
    missed_corrupting: int = 0

    def note(self, truth: str, diagnosed: str) -> None:
        if truth not in CAUSES or diagnosed not in CAUSES:
            raise ValueError(
                f"unknown cause {truth!r}/{diagnosed!r}; "
                f"choose from {list(CAUSES)}"
            )
        by_diag = self.confusion.setdefault(truth, {})
        by_diag[diagnosed] = by_diag.get(diagnosed, 0) + 1
        self.diagnoses += 1

    def _diagnosed_count(self, cause: str) -> int:
        return sum(
            by_diag.get(cause, 0) for by_diag in self.confusion.values()
        )

    def _truth_count(self, cause: str) -> int:
        return sum(self.confusion.get(cause, {}).values())

    def precision(self, cause: str) -> Optional[float]:
        """Of everything diagnosed ``cause``, how much truly was?"""
        diagnosed = self._diagnosed_count(cause)
        if diagnosed == 0:
            return None
        return self.confusion.get(cause, {}).get(cause, 0) / diagnosed

    def recall(self, cause: str) -> Optional[float]:
        """Of everything truly ``cause``, how much was diagnosed so?"""
        truth = self._truth_count(cause)
        if truth == 0:
            return None
        return self.confusion.get(cause, {}).get(cause, 0) / truth

    def merge(self, other: "DiagnosisStats") -> None:
        for truth, by_diag in other.confusion.items():
            mine = self.confusion.setdefault(truth, {})
            for diagnosed, count in by_diag.items():
                mine[diagnosed] = mine.get(diagnosed, 0) + count
        self.diagnoses += other.diagnoses
        self.congestion_mitigations += other.congestion_mitigations
        self.missed_corrupting += other.missed_corrupting

    def row(self) -> Dict[str, object]:
        """Flat JSON-safe block for health scorecards and sweep rows."""
        out: Dict[str, object] = {
            "diagnoses": self.diagnoses,
            "congestion_mitigations": self.congestion_mitigations,
            "missed_corrupting": self.missed_corrupting,
        }
        for cause in CAUSES:
            precision = self.precision(cause)
            recall = self.recall(cause)
            if precision is None and recall is None:
                continue
            out[f"precision_{cause}"] = (
                None if precision is None else round(precision, 6)
            )
            out[f"recall_{cause}"] = (
                None if recall is None else round(recall, 6)
            )
        return out
