"""CorrOpt: the paper's primary contribution (§5–6).

Components:

- :class:`~repro.core.path_counting.PathCounter` — O(|E|) valley-free
  path-count DP;
- :class:`~repro.core.constraints.CapacityConstraint` — per-ToR thresholds;
- :class:`~repro.core.fast_checker.FastChecker` — fast admission check for
  disabling a newly corrupting link;
- :class:`~repro.core.optimizer.GlobalOptimizer` — exact global
  optimization with pruning, reject cache, and segmentation;
- :class:`~repro.core.switch_local.SwitchLocalChecker` — the production
  baseline (``sc = c**(1/r)``);
- :class:`~repro.core.recommendation.RecommendationEngine` — Algorithm 1;
- :class:`~repro.core.controller.CorrOptController` — the Figure-13
  workflow tying them together;
- penalty functions ``I(f)`` (:mod:`repro.core.penalty`);
- the sensing → controller cause-attribution contract
  (:mod:`repro.core.diagnosis`).
"""

from repro.core.constraints import CapacityConstraint, connectivity_constraint
from repro.core.diagnosis import (
    ACTIONABLE_CAUSES,
    CAUSES,
    CauseClassifier,
    DiagnosisStats,
    LinkDiagnosis,
)
from repro.core.controller import (
    ControllerDecision,
    ControllerLog,
    CorrOptController,
)
from repro.core.fast_checker import FastChecker, FastCheckResult
from repro.core.optimizer import (
    GlobalOptimizer,
    OptimizerResult,
    OptimizerStats,
)
from repro.core.path_counting import PathCounter, PathCounterStats
from repro.core.penalty import (
    PenaltyFn,
    linear_penalty,
    step_penalty,
    tcp_throughput_penalty,
    total_penalty,
)
from repro.core.recommendation import (
    LinkObservation,
    Recommendation,
    RecommendationEngine,
    RepairAction,
    deployed_engine,
    full_engine,
)
from repro.core.resilience import (
    AuditLog,
    AuditRecord,
    BreakerState,
    CircuitBreaker,
    OnsetDebouncer,
    retry_with_backoff,
)
from repro.core.segmentation import Segment, segment_links
from repro.core.switch_local import (
    SwitchLocalChecker,
    SwitchLocalResult,
)

__all__ = [
    "ACTIONABLE_CAUSES",
    "AuditLog",
    "AuditRecord",
    "BreakerState",
    "CAUSES",
    "CapacityConstraint",
    "CauseClassifier",
    "CircuitBreaker",
    "ControllerDecision",
    "DiagnosisStats",
    "LinkDiagnosis",
    "OnsetDebouncer",
    "retry_with_backoff",
    "ControllerLog",
    "CorrOptController",
    "FastCheckResult",
    "FastChecker",
    "GlobalOptimizer",
    "LinkObservation",
    "OptimizerResult",
    "OptimizerStats",
    "PathCounter",
    "PathCounterStats",
    "PenaltyFn",
    "Recommendation",
    "RecommendationEngine",
    "RepairAction",
    "Segment",
    "SwitchLocalChecker",
    "SwitchLocalResult",
    "connectivity_constraint",
    "deployed_engine",
    "full_engine",
    "linear_penalty",
    "segment_links",
    "step_penalty",
    "tcp_throughput_penalty",
    "total_penalty",
]
