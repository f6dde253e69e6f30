"""The reach gate's allowlist: functions no production run enters that stay.

Each entry is ``"<package-relative file>:<qualified name>"`` with the one
reason it stays.  An entry that names no function fails the gate, so the
list shrinks with the code.  "Only tests call it" is not a reason: code
that only tests reach is deleted, or moved under ``tests/`` when tests use
it to check production code (``tests/tools/test_reach.py`` checks this).
"""

from __future__ import annotations

from typing import Dict

_HOOK = "base-class hook: every subclass in use overrides it"
_FENCE = "bench/layers.py probes it by name (benchmark fence)"
_FENCE_HELPER = "the per-call form bench/layers.py probes runs it"
_OPTICS = (
    "ROADMAP item 3's optics path: item 3 wires it into a run or deletes it"
)
_ORACLE = "tests compare the production code against it (test oracle)"
_FIXTURE = "test fixture generator: builds the irregular inputs tests need"
_REPR = "repr for debugging"
_RUNNER_FAULT = (
    "ParallelRunner's crash and hang handling: runs only when a pool "
    "worker dies or stalls"
)
_BREAKER = (
    "optimizer failure handling: runs only when the optimizer raises "
    "(the circuit breaker)"
)
_LIVE_COUNTER = (
    "live binding of a path counter to a topology that changes shape or "
    "unbinds; no production run adds links or detaches a counter"
)
_FENCED_UTILIZATION = (
    "CongestionModel.utilization, which bench/layers.py probes by name, "
    "runs it (benchmark fence)"
)
_BRUTE_FORCE = (
    "tests/oracles/brute_force.py, the optimizer's test oracle, checks "
    "every subset through CapacityConstraint.violations"
)


ALLOWED: Dict[str, str] = {
    # -- cli ------------------------------------------------------------- #
    "cli.py:_cmd_serve._request_stop": (
        "`repro serve`'s SIGINT/SIGTERM handler: no run is signalled"),
    # -- congestion ------------------------------------------------------ #
    "congestion/losses.py:CongestionModel.utilization": _FENCE,
    "congestion/losses.py:CongestionModel.loss_rate": _FENCE,
    "congestion/losses.py:CongestionModel._detach": _FENCE_HELPER,
    "congestion/losses.py:CongestionModel._values": _FENCED_UTILIZATION,
    "congestion/queueing.py:congestion_loss_rate": _FENCE_HELPER,
    "congestion/queueing.py:mm1k_loss": _FENCE_HELPER,
    "congestion/traffic.py:TrafficProfile.utilization": _FENCED_UTILIZATION,
    # -- core ------------------------------------------------------------ #
    "core/constraints.py:CapacityConstraint.satisfied_by": _BRUTE_FORCE,
    "core/constraints.py:CapacityConstraint.violations": _BRUTE_FORCE,
    "core/constraints.py:CapacityConstraint.__repr__": _REPR,
    "core/controller.py:MitigationStrategy.on_onset": _HOOK,
    "core/controller.py:MitigationStrategy.on_activation": _HOOK,
    "core/path_counting.py:PathCounter.detach": _LIVE_COUNTER,
    "core/path_counting.py:PathCounter._on_structure_change": _LIVE_COUNTER,
    "core/resilience.py:CircuitBreaker.record_failure": _BREAKER,
    "core/segmentation.py:Segment.__repr__": _REPR,
    # -- faults ---------------------------------------------------------- #
    "faults/injector.py:default_rate_sampler": (
        "FaultInjector's default rate sampler: every run passes its own"),
    "faults/telemetry_faults.py:FaultyTransport.deliver": _FENCE,
    "faults/telemetry_faults.py:FaultyTransport.deliver_optical": _OPTICS,
    # -- obs ------------------------------------------------------------- #
    "obs/recorder.py:NullSpan.set": (
        "the disabled recorder's span: callers set span fields only when "
        "the recorder is enabled"),
    "obs/recorder.py:Recorder.gauge": _HOOK,
    "obs/recorder.py:Recorder.observe": _HOOK,
    "obs/recorder.py:Recorder.event": _HOOK,
    "obs/recorder.py:Recorder.scrape_path_counter": _HOOK,
    "obs/recorder.py:Recorder.scrape_optimizer_stats": _HOOK,
    "obs/schema.py:_show": (
        "formats a problem the validators find in a malformed file of a "
        "kind no mangled-artifact run covers"),
    "obs/tracing.py:_zero_sim_time": (
        "SpanTracer's default sim clock: every recorder passes its own"),
    # -- optics ---------------------------------------------------------- #
    "optics/transceiver.py:decode_corruption_rate": _ORACLE,
    # -- parallel -------------------------------------------------------- #
    "parallel/runner.py:_failure": _RUNNER_FAULT,
    "parallel/runner.py:ParallelRunner._run_isolated": _RUNNER_FAULT,
    "parallel/runner.py:ParallelRunner._kill_pool": _RUNNER_FAULT,
    # -- routing --------------------------------------------------------- #
    "routing/ecmp.py:enumerate_up_paths": _ORACLE,
    "routing/ecmp.py:enumerate_up_paths.walk": _ORACLE,
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
    "simulation/strategies.py:NoMitigationStrategy.on_activation": (
        "runs when a repaired link returns under the `none` strategy; no "
        "production run repairs a link under it"),
    "simulation/strategies.py:LinkGuardianStrategy.on_activation": (
        "runs when a repaired link returns under the `linkguardian` "
        "strategy; no production run repairs a link under it"),
    # -- telemetry ------------------------------------------------------- #
    "telemetry/poller.py:SnmpPoller._on_structure_change": (
        "runs when links are added to a polled topology; no production run "
        "adds one"),
    "telemetry/poller.py:SnmpPoller.optical_reading": _OPTICS,
    "telemetry/sanitizer.py:SampleQuality.code": _FENCE_HELPER,
    "telemetry/sanitizer.py:TelemetrySanitizer._ingest_one": _FENCE_HELPER,
    "telemetry/sanitizer.py:TelemetrySanitizer.observe_missing": _FENCE,
    "telemetry/sanitizer.py:TelemetrySanitizer.ingest": _FENCE,
    "telemetry/sanitizer.py:optical_reading_plausible": _OPTICS,
    "telemetry/store.py:TelemetryStore.append_rates": _FENCE,
    # -- theory ---------------------------------------------------------- #
    "theory/reduction.py:max_disable_size_bruteforce": _ORACLE,
    # -- topology -------------------------------------------------------- #
    "topology/clos.py:build_multi_tier": _FIXTURE,
    "topology/columnar.py:ColumnarTopology.to_topology": (
        "tests check that from_topology loses nothing by converting back "
        "(test oracle)"),
    "topology/elements.py:_Rates.__iter__": (
        "required by the Mapping base class; no production run iterates "
        "a link's rates"),
    "topology/elements.py:_Rates.__len__": (
        "required by the Mapping base class; no production run takes its "
        "length"),
    "topology/elements.py:Link.__repr__": _REPR,
    "topology/graph.py:Topology._restore_links": (
        "the JSON loader and ColumnarTopology.to_topology restore a "
        "topology through it; no production run loads one"),
    "topology/graph.py:Topology.unsubscribe_structure_changes":
        _LIVE_COUNTER,
    "topology/graph.py:Topology.unprotect_link": (
        "runs when a LinkGuardian-protected link is repaired or loses LG "
        "capability; no production run does either"),
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
}
