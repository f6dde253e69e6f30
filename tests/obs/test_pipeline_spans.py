"""Integration: one instrumented chaos run has the full span hierarchy.

The acceptance criterion is that a trace shows the closed loop with
correct nesting.  Under the unified kernel, onsets and repair
completions are first-class heap events with their own top-level spans,
and each poll tick nests the telemetry subtree:

    chaos.onsets                      (top-level event)
    chaos.repair > controller.activate (top-level event)
    tick > {poll > {collect, sanitize, store}, detect > decide > fast_check}

Depth is recorded from the live span stack, so these assertions pin the
real call structure, not timestamp heuristics.
"""

import pytest

from repro.obs import ObsRecorder, build_manifest
from repro.obs.schema import (
    validate_chrome_trace,
    validate_events_jsonl,
    validate_prometheus_text,
)
from repro.obs.exporters import (
    chrome_trace,
    events_jsonl_lines,
    prometheus_text,
)
from repro.simulation.chaos import ChaosSimulation, chaos_preset
from repro.simulation.scenarios import chaos_scenario
from tests.metrics import total


@pytest.fixture(scope="module")
def instrumented_run():
    obs = ObsRecorder(manifest=build_manifest("chaos", with_git=False))
    # 3 days so 2-day repair visits complete inside the horizon and the
    # chaos.repair event span actually appears in the trace.
    scenario = chaos_scenario(scale=0.06, duration_days=3.0, seed=3)
    result = ChaosSimulation(
        scenario, fault_config=chaos_preset("mild"), seed=3, obs=obs
    ).kernel.run()
    return obs, result


# Expected depth of each span name in the chaos loop hierarchy.
EXPECTED_DEPTHS = {
    "tick": {0},
    "chaos.onsets": {0},
    "chaos.repair": {0},
    "poll": {1},
    "chaos.detect": {1},
    "poll.collect": {2},
    "poll.sanitize": {2},
    "poll.store": {2},
    "controller.decide": {2},
    # Via detect > decide (3) or via a repair event's activation (2).
    "fast_check": {2, 3},
}


class TestSpanHierarchy:
    def test_every_stage_of_the_loop_is_traced(self, instrumented_run):
        obs, result = instrumented_run
        names = {span.name for span in obs.tracer.spans}
        missing = set(EXPECTED_DEPTHS) - names
        assert not missing, f"untraced pipeline stages: {sorted(missing)}"

    def test_nesting_depths_are_exact(self, instrumented_run):
        obs, _ = instrumented_run
        for span in obs.tracer.spans:
            expected = EXPECTED_DEPTHS.get(span.name)
            if expected is not None:
                assert span.depth in expected, (
                    f"span {span.name!r} at depth {span.depth}, "
                    f"expected {sorted(expected)}"
                )

    def test_one_poll_span_per_tick(self, instrumented_run):
        obs, result = instrumented_run
        names = [span.name for span in obs.tracer.spans]
        assert names.count("poll") == result.chaos.polls
        assert names.count("tick") == result.chaos.polls

    def test_spans_carry_sim_time(self, instrumented_run):
        obs, _ = instrumented_run
        ticks = [span for span in obs.tracer.spans if span.name == "tick"]
        starts = [span.start_sim_s for span in ticks]
        assert starts == sorted(starts)
        assert starts[0] > 0.0


class TestMetricsCoverage:
    def test_core_counters_populated(self, instrumented_run):
        obs, result = instrumented_run
        reg = obs.registry
        assert total(reg, "polls_total") == result.chaos.polls
        assert total(reg, "sanitizer_samples_total") > 0
        scraped = {instrument.name for instrument in reg.instruments()}
        for name in (
            "path_counter_stats_links_visited",
            "optimizer_stats_runs",
            "sanitizer_stats_samples",
        ):
            assert name in scraped, f"end-of-run scrape missing {name!r}"


class TestArtifactsValidate:
    def test_all_three_exports_are_schema_valid(self, instrumented_run):
        obs, _ = instrumented_run
        text = prometheus_text(obs.registry, obs.manifest, obs.sim_time_s)
        assert validate_prometheus_text(text) == []
        lines = list(events_jsonl_lines(obs.events, obs.manifest))
        assert validate_events_jsonl(lines) == []
        assert validate_chrome_trace(chrome_trace(obs.tracer, obs.manifest)) == []
