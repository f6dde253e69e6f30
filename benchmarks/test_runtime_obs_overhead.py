"""Acceptance criterion: enabled instrumentation costs <10% wall clock.

Replays the same seeded chaos scenario twice — once with the default
:data:`NULL_RECORDER`, once with a live :class:`ObsRecorder` collecting
metrics, spans, and events — and compares wall clock, under the ``mild``
preset (gated) and the ``harsh`` one (recorded).  Runs are
interleaved and the median of each mode is compared, so a single noisy
scheduler spike on a shared box cannot fabricate (or hide) overhead the
way a min/min comparison can.  Also re-checks the determinism contract on
the exact runs being timed: the instrumented fingerprint must be
bit-identical.

Writes ``benchmarks/results/runtime_obs_overhead.json`` so CI archives the
measured ratio alongside the figure tables.
"""

import statistics
import time

from conftest import write_benchmark_json, write_report

from repro.obs import ObsRecorder
from repro.simulation.chaos import ChaosSimulation, chaos_preset
from repro.simulation.scenarios import chaos_scenario

#: Hard ceiling on the ``mild`` ratio.
MAX_OVERHEAD_RATIO = 1.10
REPEATS = 9
BENCH_DAYS = 2.0
SCALE = 0.12
#: ``mild`` is gated; ``harsh``, whose quarantines the recorder reports
#: as events, is recorded alongside.
PRESETS = ("mild", "harsh")


def _run_once(preset, obs=None):
    scenario = chaos_scenario(scale=SCALE, duration_days=BENCH_DAYS, seed=0)
    kwargs = {"fault_config": chaos_preset(preset), "seed": 0}
    if obs is not None:
        kwargs["obs"] = obs
    sim = ChaosSimulation(scenario, **kwargs)
    start = time.perf_counter()
    result = sim.kernel.run()
    return result, time.perf_counter() - start


def _measure(preset):
    """Median wall clock of each mode over interleaved runs (so drift
    hits both equally), the last recorder, and the polls of a run."""
    times = {"baseline": [], "instrumented": []}
    for _ in range(REPEATS):
        baseline, wall = _run_once(preset)
        times["baseline"].append(wall)
        recorder = ObsRecorder()
        instrumented, wall = _run_once(preset, obs=recorder)
        times["instrumented"].append(wall)
        assert instrumented.fingerprint() == baseline.fingerprint(), (
            f"instrumented {preset} run diverged from baseline"
        )
    summary = recorder.summary()
    assert summary["spans"] > 0 and summary["metrics"] > 0
    medians = {mode: statistics.median(walls) for mode, walls in times.items()}
    return medians, times, summary, instrumented.chaos.polls


def test_enabled_instrumentation_overhead_under_10_percent():
    runs = {preset: _measure(preset) for preset in PRESETS}
    metrics = {"max_allowed_ratio": MAX_OVERHEAD_RATIO, "repeats": REPEATS,
               "bit_identical": True}
    samples, recorders, lines = {}, {}, []
    for preset, (medians, times, summary, _polls) in runs.items():
        # The gated preset keeps the unprefixed keys of earlier records.
        prefix = "" if preset == "mild" else f"{preset}_"
        ratio = medians["instrumented"] / medians["baseline"]
        for mode in ("baseline", "instrumented"):
            metrics[f"{prefix}{mode}_wall_s"] = round(medians[mode], 4)
            samples[f"{prefix}{mode}_wall_s"] = [
                round(t, 4) for t in times[mode]
            ]
        metrics[f"{prefix}overhead_ratio"] = round(ratio, 4)
        recorders[preset] = {
            key: summary[key]
            for key in ("metrics", "spans", "events", "dropped_spans",
                        "dropped_events")
        }
        lines += [
            f"{preset}:",
            f"  baseline      {medians['baseline']:8.3f} s",
            f"  instrumented  {medians['instrumented']:8.3f} s  "
            f"({summary['spans']} spans, {summary['metrics']} instruments, "
            f"{summary['events']} events)",
            f"  overhead      {(ratio - 1) * 100:+7.2f} %",
        ]
    write_benchmark_json(
        "runtime_obs_overhead",
        metrics,
        scenario={
            "scale": SCALE,
            "duration_days": BENCH_DAYS,
            "presets": list(PRESETS),
            "polls": runs["mild"][3],
        },
        samples=samples,
        recorder=recorders,
    )
    write_report(
        "runtime_obs_overhead",
        [
            "Observability overhead: instrumented vs NULL_RECORDER chaos "
            "replay",
            f"(scale={SCALE}, {BENCH_DAYS} days, median of {REPEATS} "
            "interleaved per preset; fingerprints bit-identical; ceiling "
            f"+{(MAX_OVERHEAD_RATIO - 1) * 100:.0f} % on mild)",
            "",
        ]
        + lines,
    )
    ratio = metrics["overhead_ratio"]
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"instrumentation overhead {ratio:.3f}x exceeds "
        f"{MAX_OVERHEAD_RATIO}x ceiling"
    )
