"""Unified observability: metrics registry, span tracing, run provenance.

The paper's operational core (§2, §5–7) is *seeing* corruption — SNMP
counters, optical power, and decision outcomes across 350K links.  This
package is the reproduction's equivalent: a session-scoped
:class:`MetricsRegistry`, a dual-clock (wall + sim time)
:class:`SpanTracer` covering the closed loop poll → sanitize → store →
detect → decide → repair, and a :class:`RunManifest` so every artifact
names the config, seeds, version, and topology that produced it.

Instrumentation points all through the mitigation pipeline accept an
``obs`` recorder and default to :data:`NULL_RECORDER`, a strict no-op:
uninstrumented runs stay bit-identical to pre-observability behaviour.

Exporters: Prometheus text (:func:`prometheus_text`), JSONL events, and
Chrome-trace JSON loadable in ``about:tracing`` / Perfetto.  Schema
validators for all formats live in :mod:`repro.obs.schema`.
"""

from repro.obs.exporters import (  # noqa: F401
    chrome_trace,
    events_jsonl_lines,
    prometheus_text,
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.health import (  # noqa: F401
    HealthReport,
    HealthTracker,
    aggregate_sweep_health,
    alert_lines_from_report,
    health_from_run_result,
    scorecard_json,
    summarize_scorecard,
    write_scorecard,
)
from repro.obs.manifest import (  # noqa: F401
    RunManifest,
    build_manifest,
    git_sha,
    package_version,
    topology_digest,
)
from repro.obs.recorder import (  # noqa: F401
    NULL_RECORDER,
    NullRecorder,
    Recorder,
)
from repro.obs.registry import MetricsRegistry  # noqa: F401
from repro.obs.schema import (  # noqa: F401
    validate_alerts_jsonl,
    validate_audit_jsonl,
    validate_bench_trajectory,
    validate_benchmark_record,
    validate_checkpoint_file,
    validate_chrome_trace,
    validate_events_jsonl,
    validate_health_scorecard,
    validate_prometheus_text,
    validate_service_report_jsonl,
    validate_sweep_jsonl,
)
from repro.obs.session import ObsRecorder  # noqa: F401
from repro.obs.slo import (  # noqa: F401
    DEFAULT_SLO_RULES,
    SLOEngine,
    SLORule,
    rules_from_json,
)
from repro.obs.tracing import SpanRecord, SpanTracer  # noqa: F401

__all__ = [
    "DEFAULT_SLO_RULES",
    "HealthReport",
    "HealthTracker",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsRecorder",
    "Recorder",
    "RunManifest",
    "SLOEngine",
    "SLORule",
    "SpanRecord",
    "SpanTracer",
    "aggregate_sweep_health",
    "alert_lines_from_report",
    "build_manifest",
    "chrome_trace",
    "events_jsonl_lines",
    "git_sha",
    "health_from_run_result",
    "package_version",
    "prometheus_text",
    "rules_from_json",
    "scorecard_json",
    "summarize_scorecard",
    "topology_digest",
    "validate_alerts_jsonl",
    "validate_audit_jsonl",
    "validate_bench_trajectory",
    "validate_benchmark_record",
    "validate_checkpoint_file",
    "validate_chrome_trace",
    "validate_events_jsonl",
    "validate_health_scorecard",
    "validate_prometheus_text",
    "validate_service_report_jsonl",
    "validate_sweep_jsonl",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_prometheus",
    "write_scorecard",
]
