"""Tentpole perf claim: the process-pool sweep runner actually scales.

Two measurements on a ≥16-job grid, both recorded to
``benchmarks/results/runtime_parallel_sweep.{txt,json}``:

1. **Harness scaling** — identical sleep-calibrated jobs (I/O-shaped, so
   workers overlap even on a 1-core CI box) must finish ≥3× faster at 4
   workers than serially.  This isolates the runner's dispatch/retry
   overhead from simulation cost: a 4-worker pool over 16 × 120 ms jobs
   has ~480 ms of useful parallel work against ~1.9 s serial.
2. **Real sweep** — a 16-job strategies × capacities × seeds simulation
   grid run serially and on a 4-worker pool (each worker builds a
   scenario on first touch and serves later jobs from its cache).  Rows
   must be byte-identical between the two (the determinism contract).
   ``sim_speedup`` (serial / pool) is core-bound — CPU-bound jobs cannot
   overlap on one core — so it is asserted >1× with ≥2 cores and ≥3×
   with ≥4 cores, and recorded as informational otherwise.
"""

import json

from conftest import write_benchmark_json, write_report

from repro.parallel import ParallelRunner, worker_cache
from repro.parallel.aggregate import sweep_rows
from repro.parallel.grid import GridSpec, calibration_grid
from repro.parallel.runner import available_cpus

CALIBRATE_JOBS = 16
SLEEP_MS = 120.0
POOL_WORKERS = 4
TARGET_SPEEDUP = 3.0

SIM_GRID = GridSpec(
    strategies=["corropt", "switch-local"],
    capacities=[0.5, 0.75],
    trace_seeds=[0, 1, 2, 3],
    scale=0.25,
    duration_days=15.0,
    events_per_10k=100.0,
)

_REPORT = []
_METRICS = {}


def _canonical(sweep):
    rows = sweep_rows(sweep, timing=False)
    return "\n".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows
    )


def test_calibrated_grid_speedup_at_4_workers():
    specs = calibration_grid(CALIBRATE_JOBS, sleep_ms=SLEEP_MS)
    serial = ParallelRunner(jobs=1).run(specs)
    pooled = ParallelRunner(jobs=POOL_WORKERS).run(specs)
    assert all(r.ok for r in serial.records)
    assert all(r.ok for r in pooled.records)
    speedup = serial.wall_s / max(pooled.wall_s, 1e-9)
    _REPORT.extend(
        [
            f"harness scaling: {CALIBRATE_JOBS} x {SLEEP_MS:.0f} ms "
            f"calibrated jobs",
            f"  serial      {serial.wall_s:7.2f} s",
            f"  {POOL_WORKERS} workers   {pooled.wall_s:7.2f} s  "
            f"speedup {speedup:.1f}x (target >= {TARGET_SPEEDUP:.0f}x)",
            "",
        ]
    )
    _METRICS["calibrated_serial_s"] = round(serial.wall_s, 3)
    _METRICS["calibrated_pool_s"] = round(pooled.wall_s, 3)
    _METRICS["calibrated_speedup"] = round(speedup, 2)
    _METRICS["calibrated_jobs"] = CALIBRATE_JOBS
    _METRICS["pool_workers"] = POOL_WORKERS
    assert speedup >= TARGET_SPEEDUP, (
        f"pool speedup {speedup:.2f}x below {TARGET_SPEEDUP}x on "
        f"{CALIBRATE_JOBS} calibrated jobs"
    )


def test_simulation_grid_identical_and_timed():
    specs = SIM_GRID.expand()
    assert len(specs) == 16

    def timed_run(jobs):
        # Best-of-2: a fork/scheduling hiccup on a busy box otherwise
        # dominates the recorded wall for a ~2 s measurement.
        best = None
        for _ in range(2):
            worker_cache().clear()
            sweep = ParallelRunner(jobs=jobs).run(specs)
            assert not sweep.failures()
            if best is None or sweep.wall_s < best.wall_s:
                best = sweep
        return best

    serial = timed_run(1)
    pooled = timed_run(POOL_WORKERS)
    assert _canonical(serial) == _canonical(pooled), (
        "sweep rows diverged between serial and pool"
    )

    sim_speedup = serial.wall_s / max(pooled.wall_s, 1e-9)
    cores = available_cpus()
    _REPORT.extend(
        [
            f"real sweep: 16-job simulation grid "
            f"(2 strategies x 2 capacities x 4 seeds), {cores} core(s)",
            f"  serial           {serial.wall_s:7.2f} s  "
            f"(cache {serial.cache_stats['misses']} builds, "
            f"{serial.cache_stats['hits']} hits)",
            f"  {POOL_WORKERS} workers        {pooled.wall_s:7.2f} s  "
            f"(cache {pooled.cache_stats['misses']} builds, "
            f"{pooled.cache_stats['hits']} hits over all workers)",
            f"  sim speedup (serial/pool)  {sim_speedup:.2f}x"
            + (
                "  (informational: CPU-bound jobs cannot overlap "
                "on 1 core)"
                if cores < 2
                else ""
            ),
            "  rows byte-identical serial vs pool: yes",
        ]
    )
    _METRICS["sim_serial_s"] = round(serial.wall_s, 3)
    _METRICS["sim_pool_s"] = round(pooled.wall_s, 3)
    _METRICS["sim_speedup"] = round(sim_speedup, 2)
    _METRICS["sim_jobs"] = len(specs)
    _METRICS["cores"] = cores
    _METRICS["rows_byte_identical"] = True
    if cores >= 2:
        assert sim_speedup > 1.0, (
            f"pool speedup {sim_speedup:.2f}x not above 1x with "
            f"{cores} cores"
        )
    if cores >= POOL_WORKERS:
        assert sim_speedup >= TARGET_SPEEDUP, (
            f"CPU-bound speedup {sim_speedup:.2f}x below "
            f"{TARGET_SPEEDUP}x with {cores} cores"
        )


def test_write_report():
    """Runs last: persist whatever the two measurements appended."""
    assert _REPORT, "measurements did not run"
    write_report(
        "runtime_parallel_sweep",
        [
            "Deterministic parallel sweep runner: serial vs "
            f"{POOL_WORKERS}-worker pool",
            "",
        ]
        + _REPORT,
    )
    write_benchmark_json("runtime_parallel_sweep", _METRICS)
