"""Which callables of which module make up a layer, and its metrics.

One row per wrapped callable: where it is looked up, the layer (the
``repro`` module that owns it), the span name, and an optional hook that
reads a work count off the call.  ``PER_LAYER`` lists every metric a
traced run reports, in ``BENCHMARK.json`` order; :func:`layer_metrics`
computes them from a finished :class:`~bench.trace.Tracer`.

Functions imported by name (``from x import f``) are patched in the
namespace that calls them, not where they are defined.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from bench.trace import Hook, Tracer


def _bump(counts: Dict[str, float], key: str, amount) -> None:
    counts[key] = counts.get(key, 0) + amount


def _add(key: str, amount) -> Hook:
    """Hook adding ``amount(args, result)`` to ``counts[key]``."""

    def hook(counts, args, result):
        _bump(counts, key, amount(args, result))

    return hook


def _peak(key: str) -> Hook:
    """Hook keeping the largest return value in ``counts[key]``."""

    def hook(counts, args, result):
        counts[key] = max(counts.get(key, 0), result)

    return hook


def _fast_check(counts, args, result) -> None:
    _bump(counts, "core.fast_checker.checks", 1)
    _bump(counts, "core.fast_checker.allowed", 1 if result.allowed else 0)


def _plan(counts, args, result) -> None:
    stats = result.stats
    _bump(counts, "core.optimizer.candidates", stats.num_candidates)
    _bump(counts, "core.optimizer.feasibility_checks", stats.feasibility_checks)
    _bump(counts, "core.optimizer.reject_cache_hits", stats.reject_cache_hits)
    _bump(counts, "core.optimizer.subsets_evaluated", stats.subsets_evaluated)


def _sweep(counts, args, result) -> None:
    counts["parallel.cache_hits"] = result.cache_stats.get("hits", 0)
    counts["parallel.cache_builds"] = result.cache_stats.get("misses", 0)
    counts["parallel.job_s_max"] = max(
        (record.wall_s for record in result.records), default=0.0
    )


_KERNEL = "repro.simulation.kernel"

#: (target, layer, span name, hook)
PROBES: List[Tuple[str, str, str, Optional[Hook]]] = [
    # workloads — trace generation (set-up on every workload)
    (
        "repro.simulation.scenarios:generate_trace",
        "workloads",
        "generate_trace",
        _add("workloads.events", lambda a, trace: len(trace.events)),
    ),
    ("repro.simulation.scenarios:deduplicate_active", "workloads",
     "deduplicate_active", None),
    # topology
    ("repro.workloads.dcn_profiles:DCNProfile.build", "topology",
     "DCNProfile.build", None),
    ("repro.topology.graph:Topology.copy", "topology", "Topology.copy", None),
    (
        "repro.topology.graph:Topology.corrupting_links",
        "topology",
        "Topology.corrupting_links",
        _add(
            "topology.corrupting_links.links_scanned",
            lambda a, _r: a[0].num_links,
        ),
    ),
    ("repro.topology.graph:Topology.disable_link", "topology",
     "Topology.disable_link", None),
    ("repro.topology.graph:Topology.enable_link", "topology",
     "Topology.enable_link", None),
    ("repro.topology.columnar:ColumnarTopology.build_clos", "topology",
     "ColumnarTopology.build_clos", None),
    ("repro.topology.columnar:ColumnarTopology.from_topology", "topology",
     "ColumnarTopology.from_topology", None),
    # core.path_counting
    ("repro.core.path_counting:PathCounter.tor_fractions",
     "core.path_counting", "PathCounter.tor_fractions", None),
    ("repro.core.path_counting:PathCounter.worst_tor_fraction",
     "core.path_counting", "PathCounter.worst_tor_fraction", None),
    ("repro.core.path_counting:PathCounter.average_tor_fraction",
     "core.path_counting", "PathCounter.average_tor_fraction", None),
    ("repro.topology.columnar:ColumnarPathCounter.tor_fraction_array",
     "core.path_counting", "ColumnarPathCounter.tor_fraction_array", None),
    # core.fast_checker
    ("repro.core.fast_checker:FastChecker.check", "core.fast_checker",
     "FastChecker.check", _fast_check),
    ("repro.core.fast_checker:FastChecker.check_and_disable",
     "core.fast_checker", "FastChecker.check_and_disable", None),
    # core.optimizer
    ("repro.core.optimizer:GlobalOptimizer.plan", "core.optimizer",
     "GlobalOptimizer.plan", _plan),
    ("repro.core.optimizer:GlobalOptimizer.optimize", "core.optimizer",
     "GlobalOptimizer.optimize", None),
    # core.switch_local
    ("repro.core.switch_local:SwitchLocalChecker.check_and_disable",
     "core.switch_local", "SwitchLocalChecker.check_and_disable", None),
    ("repro.core.switch_local:SwitchLocalChecker.reevaluate",
     "core.switch_local", "SwitchLocalChecker.reevaluate", None),
    # core.controller
    ("repro.core.controller:CorrOptController.report_corruption",
     "core.controller", "CorrOptController.report_corruption", None),
    ("repro.core.controller:CorrOptController.activate_link",
     "core.controller", "CorrOptController.activate_link", None),
    # core.penalty — the per-snapshot penalty sum
    (f"{_KERNEL}:TelemetrySensing.current_penalty", "core.penalty",
     "pipeline.current_penalty", None),
    (f"{_KERNEL}:OracleSensing.current_penalty", "core.penalty",
     "pipeline.current_penalty", None),
    # core.diagnosis
    (
        "repro.core.diagnosis:CauseClassifier.classify",
        "core.diagnosis",
        "CauseClassifier.classify",
        _add("core.diagnosis.diagnoses", lambda a, _r: 1),
    ),
    # congestion
    ("repro.congestion.losses:CongestionModel.utilization", "congestion",
     "CongestionModel.utilization", None),
    ("repro.congestion.losses:CongestionModel.loss_rate", "congestion",
     "CongestionModel.loss_rate", None),
    # faults
    ("repro.faults.telemetry_faults:FaultyTransport.deliver", "faults",
     "FaultyTransport.deliver", None),
    # telemetry.poller
    ("repro.telemetry.poller:SnmpPoller.poll_once", "telemetry.poller",
     "poll_once", None),
    ("repro.service.ingest:IngestingPoller.poll_once", "telemetry.poller",
     "poll_once", None),
    # telemetry.sanitizer
    ("repro.telemetry.sanitizer:TelemetrySanitizer.ingest",
     "telemetry.sanitizer", "TelemetrySanitizer.ingest", None),
    ("repro.telemetry.sanitizer:TelemetrySanitizer.observe_missing",
     "telemetry.sanitizer", "TelemetrySanitizer.observe_missing", None),
    ("repro.telemetry.sanitizer:TelemetrySanitizer.quarantined",
     "telemetry.sanitizer", "TelemetrySanitizer.quarantined", None),
    (
        "repro.telemetry.sanitizer:TelemetrySanitizer.quarantined_directions",
        "telemetry.sanitizer",
        "TelemetrySanitizer.quarantined_directions",
        _peak("telemetry.sanitizer.quarantined_peak"),
    ),
    # telemetry.store
    ("repro.telemetry.store:TelemetryStore.append_rates", "telemetry.store",
     "TelemetryStore.append_rates", None),
    ("repro.telemetry.store:TelemetryStore.last_sample", "telemetry.store",
     "TelemetryStore.last_sample", None),
    # simulation.kernel
    (
        f"{_KERNEL}:SimulationKernel.run_until",
        "simulation.kernel",
        "SimulationKernel.run_until",
        _add("simulation.kernel.events", lambda a, processed: processed),
    ),
    (f"{_KERNEL}:SimulationKernel.snapshot", "simulation.kernel",
     "SimulationKernel.snapshot", None),
    (f"{_KERNEL}:TelemetrySensing.handle_poll", "simulation.kernel",
     "pipeline.handle_poll", None),
    (f"{_KERNEL}:TelemetrySensing.handle_onset", "simulation.kernel",
     "pipeline.handle_onset", None),
    (f"{_KERNEL}:TelemetrySensing.handle_repair", "simulation.kernel",
     "pipeline.handle_repair", None),
    (f"{_KERNEL}:OracleSensing.handle_onset", "simulation.kernel",
     "pipeline.handle_onset", None),
    (f"{_KERNEL}:OracleSensing.handle_repair", "simulation.kernel",
     "pipeline.handle_repair", None),
    # obs.health
    (f"{_KERNEL}:TelemetrySensing.after_snapshot", "obs.health",
     "pipeline.after_snapshot", None),
    (f"{_KERNEL}:OracleSensing.after_snapshot", "obs.health",
     "pipeline.after_snapshot", None),
    ("repro.obs.health:HealthTracker.report", "obs.health",
     "HealthTracker.report", None),
    # service
    ("repro.service.queues:BoundedWorkQueue.push", "service",
     "BoundedWorkQueue.push", None),
    ("repro.service.queues:BoundedWorkQueue.drain", "service",
     "BoundedWorkQueue.drain", None),
    (
        "repro.service.service:ControllerService.checkpoint",
        "service",
        "ControllerService.checkpoint",
        _add(
            "service.checkpoint_bytes_total",
            lambda a, header: header["payload_bytes"],
        ),
    ),
    ("repro.service.service:read_checkpoint", "service", "read_checkpoint",
     None),
    ("pickle:dumps", "service", "pickle", None),
    ("pickle:loads", "service", "pickle", None),
    # parallel
    ("repro.parallel:run_sweep", "parallel", "run_sweep", _sweep),
]

#: Classes whose instances carry end-of-run stats.
COLLECTED = {
    "counters": "repro.core.path_counting:PathCounter",
    "controllers": "repro.core.controller:CorrOptController",
    "transports": "repro.faults.telemetry_faults:FaultyTransport",
    "pollers": "repro.telemetry.poller:SnmpPoller",
    "sanitizers": "repro.telemetry.sanitizer:TelemetrySanitizer",
    "stores": "repro.telemetry.store:TelemetryStore",
    "queues": "repro.service.queues:BoundedWorkQueue",
}

LAYERS = [
    "workloads",
    "topology",
    "core.path_counting",
    "core.fast_checker",
    "core.optimizer",
    "core.switch_local",
    "core.controller",
    "core.penalty",
    "core.diagnosis",
    "congestion",
    "faults",
    "telemetry.poller",
    "telemetry.sanitizer",
    "telemetry.store",
    "simulation.kernel",
    "obs.health",
    "service",
    "parallel",
]

#: Metrics beyond ``calls`` and ``busy_s``: (name, unit, better).
_EXTRA = [
    ("workloads.events", "count", "lower"),
    ("topology.corrupting_links.links_scanned", "count", "lower"),
    ("topology.copy_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("core.path_counting.links_visited", "count", "lower"),
    ("core.path_counting.recount_first_ms", "ms", "lower"),
    ("core.path_counting.recount_ms_p50", "ms", "lower"),
    ("core.fast_checker.allowed_ratio", "ratio", "higher"),
    ("core.fast_checker.check_us_p50", "us", "lower"),
    ("core.fast_checker.check_us_p90", "us", "lower"),
    ("core.optimizer.candidates", "count", "lower"),
    ("core.optimizer.feasibility_checks", "count", "lower"),
    ("core.optimizer.reject_cache_hit_ratio", "ratio", "higher"),
    ("core.optimizer.plan_ms_p50", "ms", "lower"),
    ("core.controller.failsafe_keeps", "count", "lower"),
    ("core.controller.degraded_decisions", "count", "lower"),
    ("core.diagnosis.diagnoses", "count", "lower"),
    ("faults.delivered", "count", "higher"),
    ("faults.missed", "count", "lower"),
    ("faults.duplicated", "count", "lower"),
    ("telemetry.poller.polls", "count", "higher"),
    ("telemetry.poller.missed_polls", "count", "lower"),
    ("telemetry.sanitizer.samples", "count", "higher"),
    ("telemetry.sanitizer.degraded_ratio", "ratio", "lower"),
    ("telemetry.sanitizer.wraps_unwrapped", "count", "lower"),
    ("telemetry.sanitizer.freezes_detected", "count", "lower"),
    ("telemetry.sanitizer.gaps_bridged", "count", "lower"),
    ("telemetry.sanitizer.quarantined_peak", "count", "lower"),
    ("telemetry.store.appends", "count", "higher"),
    ("telemetry.store.samples_held", "count", "lower"),
    ("simulation.kernel.events", "count", "higher"),
    ("simulation.kernel.detect_s", "s", "lower"),
    ("simulation.kernel.snapshot_s", "s", "lower"),
    ("service.offered", "count", "higher"),
    ("service.deferred", "count", "lower"),
    ("service.dropped", "count", "lower"),
    ("service.high_watermark", "count", "lower"),
    ("service.checkpoint_bytes_total", "count", "lower"),
    ("service.pickle_s", "s", "lower"),
    ("service.ckpt_write_s", "s", "lower"),
    ("service.restore_s", "s", "lower"),
    ("service.ckpt_mb", "MB", "lower"),
    ("parallel.cache_hits", "count", "higher"),
    ("parallel.cache_builds", "count", "lower"),
    ("parallel.job_s_max", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.covered_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]

#: Every per-layer metric, in report order: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    metric
    for layer in LAYERS
    for metric in (
        (f"{layer}.calls", "count", "lower"),
        (f"{layer}.busy_s", "s", "lower"),
    )
] + _EXTRA


def install(tracer: Tracer) -> None:
    """Wrap every listed callable and start collecting instances."""
    for target, layer, name, hook in PROBES:
        tracer.probe(target, layer, name, hook)
    for target in COLLECTED.values():
        tracer.collect(target)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The tracer-derived per-layer metrics (set-up and timed section).

    Metrics timed by the harness itself (``*_p50``, ``service.ckpt_*``,
    ``trace.*``) are filled in by the caller.
    """
    out: Dict[str, float] = dict(tracer.counts)
    for layer, (calls, busy_s) in tracer.by_layer().items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy_s

    def inclusive(name: str) -> float:
        return tracer.by_name(name)[1]

    out["topology.copy_s"] = inclusive("Topology.copy")
    out["topology.build_s"] = (
        inclusive("DCNProfile.build")
        + inclusive("ColumnarTopology.build_clos")
        + inclusive("ColumnarTopology.from_topology")
    )
    # Detection is what handle_poll does itself, between the poll and the
    # controller calls it makes.
    out["simulation.kernel.detect_s"] = tracer.by_name("pipeline.handle_poll")[2]
    out["simulation.kernel.snapshot_s"] = inclusive("SimulationKernel.snapshot")
    out["service.pickle_s"] = inclusive("pickle")
    out["telemetry.poller.polls"] = tracer.by_name("poll_once")[0]
    out["telemetry.store.appends"] = tracer.by_name(
        "TelemetryStore.append_rates"
    )[0]

    found = {key: tracer.instances[t] for key, t in COLLECTED.items()}
    out["core.path_counting.links_visited"] = sum(
        c.stats.links_visited for c in found["counters"]
    )
    out["core.fast_checker.allowed_ratio"] = _ratio(
        out.pop("core.fast_checker.allowed", 0),
        out.pop("core.fast_checker.checks", 0),
    )
    hits = out.pop("core.optimizer.reject_cache_hits", 0)
    out["core.optimizer.reject_cache_hit_ratio"] = _ratio(
        hits, hits + out.pop("core.optimizer.subsets_evaluated", 0)
    )
    logs = [c.log for c in found["controllers"]]
    out["core.controller.failsafe_keeps"] = sum(
        log.fail_safe_keeps for log in logs
    )
    out["core.controller.degraded_decisions"] = sum(
        log.fail_safe_keeps + log.optimizer_fallbacks for log in logs
    )
    delivered = sum(t.polls_delivered for t in found["transports"])
    missed = sum(t.polls_missed for t in found["transports"])
    out["faults.delivered"] = delivered
    out["faults.missed"] = missed
    # Snapshots handed on beyond one per call that delivered anything.
    out["faults.duplicated"] = max(
        0, delivered - (tracer.by_name("FaultyTransport.deliver")[0] - missed)
    )
    out["telemetry.poller.missed_polls"] = sum(
        p.missed_polls for p in found["pollers"]
    )
    stats = [s.stats for s in found["sanitizers"]]
    samples = sum(s.samples for s in stats)
    out["telemetry.sanitizer.samples"] = samples
    out["telemetry.sanitizer.degraded_ratio"] = _ratio(
        sum(
            s.missing
            + s.resets_detected
            + s.freezes_detected
            + s.duplicates_dropped
            + s.out_of_order_dropped
            for s in stats
        ),
        samples,
    )
    for field in ("wraps_unwrapped", "freezes_detected", "gaps_bridged"):
        out[f"telemetry.sanitizer.{field}"] = sum(
            getattr(s, field) for s in stats
        )
    out["telemetry.store.samples_held"] = sum(
        len(store.times(did))
        for store in found["stores"]
        for did in store.directions()
    )
    queues = [q.stats for q in found["queues"]]
    for field in ("offered", "deferred", "dropped"):
        out[f"service.{field}"] = sum(getattr(q, field) for q in queues)
    out["service.high_watermark"] = max(
        (q.high_watermark for q in queues), default=0
    )
    return out
