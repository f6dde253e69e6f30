"""The reach gate's allowlist: functions no production run enters that stay.

Each entry is ``"<package-relative file>:<qualified name>"`` with the one
reason it stays.  An entry that names no function fails the gate, so the
list shrinks with the code.  The ``_TESTS_ONLY`` entries are code that
only tests call: deleting them is ROADMAP item 18.
"""

from __future__ import annotations

from typing import Dict

_HOOK = "base-class hook: every subclass in use overrides it"
_FENCE = "bench/layers.py probes it by name (benchmark fence)"
_FENCE_HELPER = "the per-call form bench/layers.py probes runs it"
_HTTP = "`repro serve --http` introspection server: no CI step starts it"
_OPTICS = (
    "ROADMAP item 3's optics path: item 3 wires it into a run or deletes it"
)
_ORACLE = "tests compare the production code against it (test oracle)"
_FIXTURE = "test fixture generator: builds the irregular inputs tests need"
_REPR = "repr for debugging"
_REPAIR_HORIZON = (
    "runs when a repaired link returns during a telemetry run; CI's chaos "
    "and serve horizons (at most 2 days) end before the two-day repair "
    "queue returns one"
)
_POOL = (
    "technician-pool repairs: a sweep grid (`repro sweep --grid`) sets "
    "JobSpec.technician_pool; no production run does"
)
_RUNNER_FAULT = (
    "ParallelRunner's crash and hang handling: runs only when a pool "
    "worker dies or stalls"
)
_BREAKER = (
    "optimizer failure handling: runs only when the optimizer raises "
    "(the circuit breaker and its fast-checker fallback)"
)
_LIVE_COUNTER = (
    "live binding of a path counter to a topology that changes shape or "
    "unbinds; no production run adds links or detaches a counter"
)
_BENCH_TRACK = (
    "`repro bench-track --check` either lists the regressed metrics or "
    "rewrites the trajectory, as the host's timings fall; a run enters one "
    "side only"
)
_TESTS_ONLY = (
    "only tests call it: deleting it, with the tests that check nothing "
    "else, is ROADMAP item 18"
)


def _figure(name: str) -> str:
    return f"benchmarks/{name} calls it (a paper figure CI does not run)"


ALLOWED: Dict[str, str] = {
    # -- analysis -------------------------------------------------------- #
    "analysis/asymmetry.py:bidirectional_pairs": _figure(
        "test_fig5_asymmetry.py"),
    "analysis/asymmetry.py:direction_similarity": _figure(
        "test_fig5_asymmetry.py"),
    "analysis/comparison.py:aggregate_loss_parity": _figure(
        "test_fig1_extent.py"),
    "analysis/stats.py:summarize_distribution": _TESTS_ONLY,
    # -- bench-track ----------------------------------------------------- #
    "benchtrack.py:trajectory_json": _BENCH_TRACK,
    "benchtrack.py:write_trajectory": _BENCH_TRACK,
    "benchtrack.py:Regression.__init__": _BENCH_TRACK,
    "benchtrack.py:Regression.ratio": _BENCH_TRACK,
    "benchtrack.py:Regression.describe": _BENCH_TRACK,
    # -- cli ------------------------------------------------------------- #
    "cli.py:_cmd_serve._request_stop": (
        "`repro serve`'s SIGINT/SIGTERM handler: no run is signalled"),
    # -- congestion ------------------------------------------------------ #
    "congestion/losses.py:CongestionModel.utilization": _FENCE,
    "congestion/losses.py:CongestionModel.loss_rate": _FENCE,
    "congestion/losses.py:CongestionModel._detach": _FENCE_HELPER,
    "congestion/losses.py:CongestionModel._values": _TESTS_ONLY,
    "congestion/losses.py:CongestionModel.profile": _TESTS_ONLY,
    "congestion/losses.py:CongestionModel.hot_directions": _TESTS_ONLY,
    "congestion/queueing.py:congestion_loss_rate": _FENCE_HELPER,
    "congestion/queueing.py:mm1k_loss": _FENCE_HELPER,
    "congestion/traffic.py:TrafficProfile.__post_init__": _TESTS_ONLY,
    "congestion/traffic.py:TrafficProfile.__getstate__": _TESTS_ONLY,
    "congestion/traffic.py:TrafficProfile.__setstate__": _TESTS_ONLY,
    "congestion/traffic.py:TrafficProfile.utilization": _TESTS_ONLY,
    "congestion/traffic.py:TrafficProfile.series": _TESTS_ONLY,
    "congestion/traffic.py:sample_profile": _TESTS_ONLY,
    # -- core ------------------------------------------------------------ #
    "core/constraints.py:CapacityConstraint.threshold": _TESTS_ONLY,
    "core/constraints.py:CapacityConstraint.satisfied_by": _TESTS_ONLY,
    "core/constraints.py:CapacityConstraint.violations": _TESTS_ONLY,
    "core/constraints.py:CapacityConstraint.all_satisfied": _TESTS_ONLY,
    "core/constraints.py:CapacityConstraint.__repr__": _REPR,
    "core/controller.py:CorrOptController._fallback_sweep": _BREAKER,
    "core/controller.py:CorrOptController._note_breaker_state": _BREAKER,
    "core/controller.py:CorrOptController.tor_fractions": _TESTS_ONLY,
    "core/diagnosis.py:LinkDiagnosis.row": _TESTS_ONLY,
    "core/optimizer.py:brute_force_optimal": _ORACLE,
    "core/path_counting.py:PathCounter.incremental": _TESTS_ONLY,
    "core/path_counting.py:PathCounter.detach": _LIVE_COUNTER,
    "core/path_counting.py:PathCounter.notify_link_change": _TESTS_ONLY,
    "core/path_counting.py:PathCounter._on_structure_change": _LIVE_COUNTER,
    "core/path_counting.py:PathCounter._by_name": _TESTS_ONLY,
    "core/path_counting.py:PathCounter.baseline": _TESTS_ONLY,
    "core/path_counting.py:PathCounter.baseline_for": _TESTS_ONLY,
    "core/path_counting.py:PathCounter.counts": _TESTS_ONLY,
    "core/path_counting.py:PathCounter.upstream_closure": _TESTS_ONLY,
    "core/path_counting.py:PathCounter.effective_worst_tor_fraction":
        _TESTS_ONLY,
    "core/penalty.py:step_penalty": _figure(
        "test_ablation_penalty_and_drain.py"),
    "core/penalty.py:penalty_of_links": _TESTS_ONLY,
    "core/resilience.py:OnsetDebouncer.is_confirmed": _TESTS_ONLY,
    "core/resilience.py:OnsetDebouncer.clear": _TESTS_ONLY,
    "core/resilience.py:CircuitBreaker._transition": _BREAKER,
    "core/resilience.py:CircuitBreaker.allow": _BREAKER,
    "core/resilience.py:CircuitBreaker.record_success": _BREAKER,
    "core/resilience.py:CircuitBreaker.record_failure": _BREAKER,
    "core/resilience.py:AuditLog.count": _TESTS_ONLY,
    "core/resilience.py:AuditLog.fail_safe_records": _TESTS_ONLY,
    "core/segmentation.py:Segment.__repr__": _REPR,
    "core/segmentation.py:segmentation_summary": _TESTS_ONLY,
    "core/switch_local.py:SwitchLocalChecker.max_disabled": _TESTS_ONLY,
    "core/switch_local.py:uplink_budget_report": _TESTS_ONLY,
    # -- faults ---------------------------------------------------------- #
    "faults/condition.py:LinkCondition.is_bidirectional": _TESTS_ONLY,
    "faults/injector.py:default_rate_sampler": (
        "FaultInjector's default rate sampler: every run passes its own"),
    "faults/injector.py:FaultEvent.root_cause": _TESTS_ONLY,
    "faults/injector.py:apply_event": _TESTS_ONLY,
    "faults/injector.py:clear_event": _TESTS_ONLY,
    "faults/telemetry_faults.py:FaultyTransport.deliver": _FENCE,
    "faults/telemetry_faults.py:FaultyTransport.deliver_optical": _OPTICS,
    # -- obs ------------------------------------------------------------- #
    "obs/exporters.py:unescape_label": _TESTS_ONLY,
    "obs/health.py:HealthTracker.note_repair": _REPAIR_HORIZON,
    "obs/health.py:health_from_run_result": (
        "`repro simulate --health-out`: no production run writes it"),
    "obs/recorder.py:NullSpan.set": (
        "the disabled recorder's span: callers set span fields only when "
        "the recorder is enabled"),
    "obs/recorder.py:Recorder.gauge": _HOOK,
    "obs/recorder.py:Recorder.observe": _HOOK,
    "obs/recorder.py:Recorder.event": _HOOK,
    "obs/recorder.py:Recorder.scrape_path_counter": _HOOK,
    "obs/recorder.py:Recorder.scrape_optimizer_stats": _HOOK,
    "obs/registry.py:Histogram.quantile": _TESTS_ONLY,
    "obs/registry.py:MetricsRegistry.describe": _TESTS_ONLY,
    "obs/registry.py:MetricsRegistry.get_value": _TESTS_ONLY,
    "obs/registry.py:MetricsRegistry.counter_total": _TESTS_ONLY,
    "obs/registry.py:MetricsRegistry.__contains__": _TESTS_ONLY,
    "obs/schema.py:_show": (
        "formats a problem the validators find in a malformed file of a "
        "kind no mangled-artifact run covers"),
    "obs/session.py:ObsRecorder.sim_time_s": _HTTP,
    "obs/slo.py:rules_from_json": (
        "`--slo-rules FILE`: no production run loads custom rules"),
    "obs/slo.py:SLOEngine.firing": _TESTS_ONLY,
    "obs/tracing.py:_zero_sim_time": (
        "SpanTracer's default sim clock: every recorder passes its own"),
    "obs/tracing.py:SpanTracer.depth": _TESTS_ONLY,
    "obs/tracing.py:SpanTracer.by_name": _TESTS_ONLY,
    "obs/tracing.py:SpanTracer.total_wall_us": _TESTS_ONLY,
    # -- optics ---------------------------------------------------------- #
    "optics/power.py:dbm_to_mw": _TESTS_ONLY,
    "optics/power.py:mw_to_dbm": _TESTS_ONLY,
    "optics/power.py:PowerThresholds.tx_is_low": _TESTS_ONLY,
    "optics/transceiver.py:decode_corruption_rate": _ORACLE,
    "optics/transceiver.py:Transceiver.tx_power_dbm": _TESTS_ONLY,
    "optics/transceiver.py:Transceiver.age_laser": _TESTS_ONLY,
    "optics/transceiver.py:Transceiver.reseat": _TESTS_ONLY,
    "optics/transceiver.py:Transceiver.replace": _TESTS_ONLY,
    "optics/transceiver.py:LinkOptics.__post_init__": _TESTS_ONLY,
    "optics/transceiver.py:LinkOptics.rx_power_at_b": _TESTS_ONLY,
    "optics/transceiver.py:LinkOptics.rx_power_at_a": _TESTS_ONLY,
    "optics/transceiver.py:LinkOptics.corruption_toward_b": _TESTS_ONLY,
    "optics/transceiver.py:LinkOptics.corruption_toward_a": _TESTS_ONLY,
    # -- parallel -------------------------------------------------------- #
    "parallel/grid.py:GridSpec.from_dict": (
        "`repro sweep --grid FILE`: no production run loads a grid file"),
    "parallel/grid.py:GridSpec.from_json_file": (
        "`repro sweep --grid FILE`: no production run loads a grid file"),
    "parallel/spec.py:JobSpec.from_dict": (
        "`repro sweep --grid FILE`: no production run loads a grid file"),
    "parallel/runner.py:_failure": _RUNNER_FAULT,
    "parallel/runner.py:ParallelRunner._run_isolated": _RUNNER_FAULT,
    "parallel/runner.py:ParallelRunner._kill_pool": _RUNNER_FAULT,
    "parallel/worker.py:ScenarioCache.__len__": _TESTS_ONLY,
    # -- routing --------------------------------------------------------- #
    "routing/ecmp.py:EcmpRouter.flows_over_link": _figure(
        "test_ablation_heterogeneous_rerouting.py"),
    "routing/ecmp.py:enumerate_up_paths": _ORACLE,
    "routing/ecmp.py:enumerate_up_paths.walk": _ORACLE,
    "routing/rerouting.py:ReroutePlan.flows_moved": _figure(
        "test_ablation_heterogeneous_rerouting.py"),
    "routing/rerouting.py:ReroutePlan.reordering_count": _figure(
        "test_ablation_heterogeneous_rerouting.py"),
    "routing/rerouting.py:plan_reroute": _figure(
        "test_ablation_heterogeneous_rerouting.py"),
    "routing/rerouting.py:generate_tor_flows": _figure(
        "test_ablation_heterogeneous_rerouting.py"),
    # -- service --------------------------------------------------------- #
    "service/checkpoint.py:read_checkpoint_header": _TESTS_ONLY,
    "service/http.py:_health_metrics_text": _HTTP,
    "service/http.py:_Snapshot.__init__": _HTTP,
    "service/http.py:_canonical_bytes": _HTTP,
    "service/http.py:_Handler._send": _HTTP,
    "service/http.py:_Handler.do_GET": _HTTP,
    "service/http.py:_Handler.log_message": _HTTP,
    "service/http.py:ServiceIntrospectionServer.__init__": _HTTP,
    "service/http.py:ServiceIntrospectionServer.port": _HTTP,
    "service/http.py:ServiceIntrospectionServer.start": _HTTP,
    "service/http.py:ServiceIntrospectionServer.stop": _HTTP,
    "service/http.py:ServiceIntrospectionServer.publish_service": _HTTP,
    "service/queues.py:BoundedWorkQueue.__len__": _TESTS_ONLY,
    "service/service.py:ServiceSensing._scrape_final": (
        "runs at the end of `repro serve` with an enabled recorder; no "
        "serve run writes metrics"),
    # -- simulation ------------------------------------------------------ #
    "simulation/kernel.py:SensingPipeline.bootstrap": _HOOK,
    "simulation/kernel.py:SensingPipeline.handle_onset": _HOOK,
    "simulation/kernel.py:SensingPipeline.handle_repair": _HOOK,
    "simulation/kernel.py:SensingPipeline.handle_poll": _HOOK,
    "simulation/kernel.py:SensingPipeline.pool_repair_succeeded": _HOOK,
    "simulation/kernel.py:SensingPipeline.current_penalty": _HOOK,
    "simulation/kernel.py:SensingPipeline.tor_fractions": _HOOK,
    "simulation/kernel.py:SensingPipeline.after_snapshot": _HOOK,
    "simulation/kernel.py:SensingPipeline.finish": _HOOK,
    "simulation/kernel.py:SensingPipeline.result_sections": _HOOK,
    "simulation/kernel.py:SimulationKernel.repair_pending": _REPAIR_HORIZON,
    "simulation/kernel.py:SimulationKernel.schedule_pool_check": _POOL,
    "simulation/kernel.py:SimulationKernel._handle_pool_check": _POOL,
    "simulation/kernel.py:OracleSensing.pool_repair_succeeded": _POOL,
    "simulation/kernel.py:TelemetrySensing.handle_repair": _REPAIR_HORIZON,
    "simulation/metrics.py:StepSeries.__len__": _TESTS_ONLY,
    "simulation/scenarios.py:medium_scenario": _TESTS_ONLY,
    "simulation/scenarios.py:large_scenario": _TESTS_ONLY,
    "simulation/strategies.py:MitigationStrategy.on_onset": _HOOK,
    "simulation/strategies.py:MitigationStrategy.on_activation": _HOOK,
    "simulation/strategies.py:NoMitigationStrategy.on_activation": (
        "runs when a repaired link returns under the `none` strategy; no "
        "production run repairs a link under it"),
    "simulation/strategies.py:LinkGuardianStrategy.on_activation": (
        "runs when a repaired link returns under the `linkguardian` "
        "strategy; no production run repairs a link under it"),
    # -- telemetry ------------------------------------------------------- #
    "telemetry/counters.py:CounterSnapshot.corruption_rate_since": _TESTS_ONLY,
    "telemetry/counters.py:CounterSnapshot.congestion_rate_since": _TESTS_ONLY,
    "telemetry/poller.py:TelemetryBatch.lost": (
        "a push the ingest queue drops (the `drop` backpressure policy); no "
        "production run fills the queue under it"),
    "telemetry/poller.py:SnmpPoller._on_structure_change": (
        "runs when links are added to a polled topology; no production run "
        "adds one"),
    "telemetry/poller.py:SnmpPoller.optical_reading": _OPTICS,
    "telemetry/sanitizer.py:SampleQuality.degraded": _TESTS_ONLY,
    "telemetry/sanitizer.py:SampleQuality.code": _FENCE_HELPER,
    "telemetry/sanitizer.py:TelemetrySanitizer._ingest_one": _FENCE_HELPER,
    "telemetry/sanitizer.py:TelemetrySanitizer.observe_missing": _FENCE,
    "telemetry/sanitizer.py:TelemetrySanitizer.ingest": _FENCE,
    "telemetry/sanitizer.py:optical_reading_plausible": _OPTICS,
    "telemetry/store.py:TelemetryStore.append_rates": _FENCE,
    "telemetry/store.py:TelemetryStore.num_directions": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore._series": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore.corruption_series": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore.congestion_series": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore.utilization_series": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore.quality_series": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore.quality_counts": _TESTS_ONLY,
    "telemetry/store.py:TelemetryStore.mean_rates": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.__init__": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.__len__": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.times": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.mean": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.std": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.max": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.coefficient_of_variation":
        _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.pearson_with": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.log10": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.resample_daily": _TESTS_ONLY,
    "telemetry/timeseries.py:TimeSeries.slice": _TESTS_ONLY,
    "telemetry/timeseries.py:cdf_points": _figure("test_fig2_stability.py"),
    # -- theory ---------------------------------------------------------- #
    "theory/reduction.py:max_disable_size_bruteforce": _ORACLE,
    # -- ticketing ------------------------------------------------------- #
    "ticketing/batching.py:CollateralAwareScheduler.__init__": _TESTS_ONLY,
    "ticketing/batching.py:CollateralAwareScheduler._collateral_safe":
        _TESTS_ONLY,
    "ticketing/batching.py:CollateralAwareScheduler.plan": _TESTS_ONLY,
    "ticketing/batching.py:CollateralAwareScheduler.dispatchable":
        _TESTS_ONLY,
    "ticketing/queue.py:TechnicianPoolQueue.__init__": _POOL,
    "ticketing/queue.py:TechnicianPoolQueue.submit": _POOL,
    "ticketing/queue.py:TechnicianPoolQueue._dispatch": _POOL,
    "ticketing/queue.py:TechnicianPoolQueue.pop_due": _POOL,
    "ticketing/queue.py:TechnicianPoolQueue.next_completion": _POOL,
    "ticketing/queue.py:TechnicianPoolQueue.backlog": _TESTS_ONLY,
    "ticketing/queue.py:TechnicianPoolQueue.__len__": _TESTS_ONLY,
    "ticketing/repair.py:repair_duration_days": _TESTS_ONLY,
    # -- topology -------------------------------------------------------- #
    "topology/breakout.py:repair_collateral": _TESTS_ONLY,
    "topology/clos.py:build_multi_tier": _FIXTURE,
    "topology/columnar.py:ColumnarTopology.link_index": _TESTS_ONLY,
    "topology/columnar.py:ColumnarTopology.to_topology": (
        "tests check that from_topology loses nothing by converting back "
        "(test oracle)"),
    "topology/columnar.py:ColumnarPathCounter.detach": _LIVE_COUNTER,
    "topology/columnar.py:ColumnarPathCounter._on_admin_change":
        _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.notify_link_change":
        _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter._on_structure_change":
        _LIVE_COUNTER,
    "topology/columnar.py:ColumnarPathCounter.columnar": _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.baseline_array": _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.baseline": _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.baseline_for": _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.counts": _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.average_tor_fraction":
        _TESTS_ONLY,
    "topology/columnar.py:ColumnarPathCounter.affected_tors": _TESTS_ONLY,
    "topology/elements.py:Switch.is_tor": _TESTS_ONLY,
    "topology/elements.py:_Rates.__setitem__": _TESTS_ONLY,
    "topology/elements.py:_Rates.__iter__": (
        "required by the Mapping base class; no production run iterates "
        "a link's rates"),
    "topology/elements.py:_Rates.__len__": (
        "required by the Mapping base class; no production run takes its "
        "length"),
    "topology/elements.py:Link.effective_corruption_rate": _TESTS_ONLY,
    "topology/elements.py:Link.effective_capacity_fraction": _TESTS_ONLY,
    "topology/elements.py:Link.is_corrupting": _TESTS_ONLY,
    "topology/elements.py:Link.__repr__": _REPR,
    "topology/graph.py:Topology._restore_links": (
        "the JSON loader and ColumnarTopology.to_topology restore a "
        "topology through it; no production run loads one"),
    "topology/graph.py:Topology.unsubscribe_structure_changes":
        _LIVE_COUNTER,
    "topology/graph.py:Topology.has_link": _TESTS_ONLY,
    "topology/graph.py:Topology.downlinks": _TESTS_ONLY,
    "topology/graph.py:Topology.set_lg_capable": _TESTS_ONLY,
    "topology/graph.py:Topology.unprotect_link": (
        "runs when a LinkGuardian-protected link is repaired or loses LG "
        "capability; no production run does either"),
    "topology/graph.py:Topology.lg_protected_links": _TESTS_ONLY,
    "topology/graph.py:Topology.lg_capable_count": _TESTS_ONLY,
    "topology/graph.py:Topology.downstream_switches": _FIXTURE,
    "topology/graph.py:Topology.downstream_tors": _FIXTURE,
    "topology/graph.py:Topology.upstream_links": _ORACLE,
    "topology/graph.py:Topology.breakout_members": (
        "FaultInjector's breakout-cable fault: no production topology has "
        "breakout groups"),
    "topology/graph.py:Topology.__repr__": _REPR,
    "topology/random_topo.py:build_irregular_clos": _FIXTURE,
    "topology/random_topo.py:degrade": _FIXTURE,
    "topology/serialization.py:topology_from_dict": (
        "the JSON topology loader: no production run loads a topology"),
    "topology/serialization.py:load_topology": (
        "the JSON topology loader: no production run loads a topology"),
    "topology/validate.py:is_connected_to_spine": _FIXTURE,
    # -- workloads ------------------------------------------------------- #
    "workloads/generator.py:burst_trace": _FIXTURE,
    "workloads/rates.py:sample_congestion_rate": _TESTS_ONLY,
    "workloads/trace.py:CorruptionTrace.__iter__": _TESTS_ONLY,
    "workloads/trace.py:CorruptionTrace.links_affected": _TESTS_ONLY,
    "workloads/trace.py:CorruptionTrace.summary": _TESTS_ONLY,
}
