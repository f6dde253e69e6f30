"""ParallelRunner: determinism, caching, crash/exception/timeout policy.

Crash/hang tests use calibration jobs (repro.parallel.worker) so they are
fast and deterministic; determinism tests use real simulations so they
exercise the whole engine path.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.parallel import (
    JobSpec,
    ParallelRunner,
    run_fleet,
    run_sweep,
    worker_cache,
)
from repro.parallel.grid import GridSpec, calibration_grid
from repro.parallel.aggregate import sweep_rows
from repro.simulation import make_scenario, run_scenario

SIM_GRID = GridSpec(
    strategies=["corropt", "none"],
    capacities=[0.5, 0.9],
    trace_seeds=[0, 1],
    scale=0.2,
    duration_days=8.0,
    events_per_10k=300.0,
)


def rows_without_timing(sweep):
    return sweep_rows(sweep, timing=False)


@pytest.fixture(autouse=True)
def _cold_cache():
    worker_cache().clear()
    yield
    worker_cache().clear()


@pytest.mark.parametrize(
    "strategy,penalty,lg_coverage",
    [("corropt", "linear", 0.0), ("lg+corropt", "step", 0.5)],
)
def test_serial_matches_legacy_run_scenario(strategy, penalty, lg_coverage):
    """jobs=1 is bit-identical to the in-process run_scenario call, under
    every penalty function and LG coverage the spec carries.  A c=0.9 job
    builds the cached scenario first: the checked job must still run at
    its own capacity (the cache key leaves capacity out)."""
    spec = JobSpec(
        scale=0.2,
        duration_days=8.0,
        trace_seed=3,
        events_per_10k=300.0,
        capacity=0.6,
        strategy=strategy,
        penalty=penalty,
        lg_coverage=lg_coverage,
        repair_seed=0,
    )
    warm = dataclasses.replace(spec, capacity=0.9)
    record = ParallelRunner(jobs=1).run([warm, spec]).records[1]
    scenario = make_scenario(
        scale=0.2,
        duration_days=8.0,
        seed=3,
        capacity=0.6,
        events_per_10k_links_per_day=300.0,
    )
    legacy = run_scenario(
        scenario, strategy, penalty=penalty, lg_coverage=lg_coverage
    )
    assert record.ok
    assert record.result.penalty_integral == legacy.penalty_integral
    assert (
        record.result.metrics.penalty.changes()
        == legacy.metrics.penalty.changes()
    )


@pytest.fixture(scope="module")
def sim_grid_runs():
    """``SIM_GRID`` run once serially, then on two workers, from a cold
    worker cache: the runs every assertion on the grid reads."""
    specs = SIM_GRID.expand()
    worker_cache().clear()
    serial = ParallelRunner(jobs=1).run(specs)
    pooled = ParallelRunner(jobs=2).run(specs)
    worker_cache().clear()
    return specs, serial, pooled


def test_pool_results_identical_to_serial(sim_grid_runs):
    """Worker count and completion order never change a single byte."""
    specs, serial, pooled = sim_grid_runs
    assert rows_without_timing(serial) == rows_without_timing(pooled)
    statuses = [r.status for r in pooled.records]
    assert statuses == ["ok"] * len(specs)


def test_scenario_cache_shares_builds_across_jobs(sim_grid_runs):
    # 2 strategies x 2 capacities share a seed.
    _, sweep, pooled = sim_grid_runs
    # 2 trace seeds -> 2 builds; the other 6 jobs hit the cache.
    assert sweep.cache_stats["misses"] == 2
    assert sweep.cache_stats["hits"] == 6
    # Pool mode sums per-worker caches: each of the 2 workers builds a
    # scenario at most once, and how the 8 jobs land decides the split.
    pooled = pooled.cache_stats
    assert pooled["hits"] + pooled["misses"] == 8
    assert 2 <= pooled["misses"] <= 4


def test_worker_crash_is_retried_then_succeeds():
    crash_once = JobSpec(
        kind="calibrate", trace_seed=1, knobs=(("exit_attempts", 1.0),)
    )
    ok = JobSpec(kind="calibrate", trace_seed=2, knobs=(("sleep_ms", 5.0),))
    sweep = ParallelRunner(jobs=2, max_retries=2).run([crash_once, ok])
    assert [r.status for r in sweep.records] == ["ok", "ok"]
    assert sweep.records[0].attempts >= 2


def test_worker_crash_exhausts_retry_bound_without_collateral():
    """A permanently-crashing job fails structurally; its innocent pool
    mates — repeatedly killed by the shared pool breaking — still end ok,
    a real simulation among them."""
    dead = JobSpec(
        kind="calibrate", trace_seed=3, knobs=(("exit_attempts", 99.0),)
    )
    ok = JobSpec(kind="calibrate", trace_seed=4, knobs=(("sleep_ms", 5.0),))
    sim = SIM_GRID.expand()[0]
    sweep = ParallelRunner(jobs=2, max_retries=1).run([dead, ok, sim])
    dead_rec, ok_rec, sim_rec = sweep.records
    assert dead_rec.status == "failed"
    assert dead_rec.error["kind"] == "worker-crash"
    assert dead_rec.attempts == 2  # initial + 1 retry
    assert ok_rec.status == "ok"
    assert sim_rec.status == "ok"


def test_raised_exception_becomes_structured_failure():
    bad = JobSpec(
        kind="calibrate", trace_seed=5, knobs=(("fail_attempts", 99.0),)
    )
    ok = JobSpec(kind="calibrate", trace_seed=6)
    sweep = ParallelRunner(jobs=2, max_retries=1).run([bad, ok])
    bad_rec, ok_rec = sweep.records
    assert bad_rec.status == "failed"
    assert bad_rec.error["kind"] == "exception"
    assert "RuntimeError" in bad_rec.error["message"]
    assert ok_rec.ok


def test_transient_exception_is_retried_in_serial_mode():
    flaky = JobSpec(
        kind="calibrate", trace_seed=7, knobs=(("fail_attempts", 1.0),)
    )
    sweep = ParallelRunner(jobs=1, max_retries=2).run([flaky])
    assert sweep.records[0].ok
    assert sweep.records[0].attempts == 2


def test_hung_job_fails_via_watchdog_without_wedging():
    hang = JobSpec(
        kind="calibrate", trace_seed=8, knobs=(("hang_s", 120.0),)
    )
    ok = JobSpec(kind="calibrate", trace_seed=9, knobs=(("sleep_ms", 5.0),))
    sim = SIM_GRID.expand()[0]
    sweep = ParallelRunner(jobs=2, max_retries=0, timeout_s=1.5).run(
        [hang, ok, sim]
    )
    assert sweep.wall_s < 60.0
    hang_rec, ok_rec, sim_rec = sweep.records
    assert hang_rec.status == "failed"
    assert hang_rec.error["kind"] == "timeout"
    assert ok_rec.ok
    assert sim_rec.ok


@pytest.mark.parametrize(
    "call, raised",
    [
        (lambda: ParallelRunner(jobs=2, transport="shm"), TypeError),
        (lambda: run_sweep([], jobs=2, transport="shm"), TypeError),
        (lambda: run_fleet(jobs=2, transport="shm"), TypeError),
        (lambda: main(["sweep", "--transport", "shm"]), SystemExit),
        (lambda: main(["fleet", "--transport", "shm"]), SystemExit),
    ],
    ids=["ParallelRunner", "run_sweep", "run_fleet", "cli-sweep", "cli-fleet"],
)
def test_transport_argument_is_rejected(call, raised):
    """A scenario reaches a worker one way; there is nothing to select."""
    with pytest.raises(raised) as info:
        call()
    if raised is SystemExit:
        assert info.value.code == 2  # argparse: unrecognized arguments


def test_jobs_zero_means_all_cpus():
    runner = ParallelRunner(jobs=0)
    assert runner.jobs >= 1


def test_run_sweep_convenience_and_calibration_tokens():
    specs = calibration_grid(3)
    sweep = run_sweep(specs, jobs=1)
    tokens = [r.payload["token"] for r in sweep.records]
    assert len(set(tokens)) == 3  # seed-derived, distinct per spec
    assert tokens == [float(s.job_seed() % 2**32) for s in specs]


def test_records_come_back_in_spec_order():
    # Reverse-cost workload: first submitted job finishes last.
    specs = [
        JobSpec(
            kind="calibrate",
            trace_seed=index,
            knobs=(("sleep_ms", float(40 - 10 * index)),),
        )
        for index in range(4)
    ]
    sweep = ParallelRunner(jobs=2).run(specs)
    assert [r.spec.trace_seed for r in sweep.records] == [0, 1, 2, 3]
