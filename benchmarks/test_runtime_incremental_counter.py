"""Tentpole runtime claim: incremental path counting on the hot path.

The mitigation loop (fast check on every onset, optimizer sweep on every
activation, capacity snapshot after every event) used to rerun the O(|E|)
valley-free DP per query.  The incremental :class:`PathCounter` maintains
live counts and recomputes only the dirty region of each admin flip, so a
full trace replay must visit at least 5x fewer links — with bit-identical
metric series, since both modes use exact Fraction aggregates.

Reports link-visit and wall-clock ratios on the medium and large DCN
presets to ``benchmarks/results/runtime_incremental_counter.txt``.
"""

import time

import pytest

from conftest import (
    EVENTS_PER_10K,
    LARGE_SCALE,
    MEDIUM_SCALE,
    write_benchmark_json,
    write_report,
)

from repro.simulation import (
    CorrOptStrategy,
    OracleSensing,
    SimulationKernel,
    make_scenario,
)
from repro.simulation.kernel import DAY_S
from repro.workloads import LARGE_DCN, MEDIUM_DCN

#: Shorter horizon than the 60-day figure scenarios: the recount-per-query
#: baseline is exactly what this benchmark exists to retire, so we keep its
#: runtime CI-friendly.
BENCH_DAYS = 20

_REPORT_LINES = [
    "Incremental vs recount-per-query PathCounter over a full CorrOpt "
    "trace replay",
    f"(c=75%, {BENCH_DAYS}-day traces, {EVENTS_PER_10K} events/10k links/day; "
    "identical seeds per preset)",
    "",
]
_METRICS = {}


def _scenario(profile, scale, seed):
    return make_scenario(
        profile=profile,
        scale=scale,
        duration_days=BENCH_DAYS,
        seed=seed,
        capacity=0.75,
        events_per_10k_links_per_day=EVENTS_PER_10K,
    )


def _replay(scenario, incremental):
    topo = scenario.topo_factory()
    strategy = CorrOptStrategy(topo, scenario.constraint())
    strategy.counter.set_incremental(incremental)
    strategy.counter.stats.reset()
    kernel = SimulationKernel(
        topo,
        scenario.trace.duration_days * DAY_S,
        OracleSensing(scenario.trace, strategy),
        repair_accuracy=0.8,
        seed=7,
    )
    start = time.perf_counter()
    result = kernel.run()
    wall_s = time.perf_counter() - start
    # One shared DP per run.
    assert kernel.pipeline._counter is strategy.counter
    return result, wall_s, strategy.counter.stats


def _series_triplet(result):
    return (
        result.metrics.penalty.changes(),
        result.metrics.worst_tor_fraction.changes(),
        result.metrics.average_tor_fraction.changes(),
    )


def _compare(name, scenario):
    incr_result, incr_wall, incr_stats = _replay(scenario, incremental=True)
    full_result, full_wall, full_stats = _replay(scenario, incremental=False)

    # Bit-identical metrics: same change points, same float values, for the
    # penalty and both capacity series.
    assert _series_triplet(incr_result) == _series_triplet(full_result)
    assert incr_result.penalty_integral == full_result.penalty_integral

    visit_ratio = full_stats.links_visited / max(incr_stats.links_visited, 1)
    wall_ratio = full_wall / max(incr_wall, 1e-9)
    topo = scenario.topo_factory()
    _REPORT_LINES.extend(
        [
            f"{name}: {topo.num_links} links, "
            f"{len(scenario.trace)} trace events",
            f"  link visits: full={full_stats.links_visited:,} "
            f"incremental={incr_stats.links_visited:,} "
            f"ratio={visit_ratio:.1f}x",
            f"  full recounts: full-mode={full_stats.full_recounts:,} "
            f"incremental-mode={incr_stats.full_recounts:,}",
            f"  wall clock: full={full_wall:.2f}s "
            f"incremental={incr_wall:.2f}s ratio={wall_ratio:.1f}x",
            "",
        ]
    )
    tag = name.split()[0]
    _METRICS[f"visit_ratio_{tag}"] = round(visit_ratio, 2)
    _METRICS[f"wall_ratio_{tag}"] = round(wall_ratio, 2)
    _METRICS[f"links_visited_full_{tag}"] = full_stats.links_visited
    _METRICS[f"links_visited_incremental_{tag}"] = incr_stats.links_visited
    return visit_ratio, wall_ratio


@pytest.fixture(scope="module")
def medium_bench_scenario():
    return _scenario(MEDIUM_DCN, MEDIUM_SCALE, seed=100)


@pytest.fixture(scope="module")
def large_bench_scenario():
    return _scenario(LARGE_DCN, LARGE_SCALE, seed=101)


def test_medium_dcn_speedup(medium_bench_scenario):
    visit_ratio, _wall_ratio = _compare("medium DCN", medium_bench_scenario)
    # Acceptance bar: >= 5x fewer link visits with identical metrics.
    assert visit_ratio >= 5.0


def test_large_dcn_speedup(large_bench_scenario):
    visit_ratio, _wall_ratio = _compare("large DCN", large_bench_scenario)
    assert visit_ratio >= 5.0


def test_write_report(medium_bench_scenario, large_bench_scenario):
    """Runs last: persist whatever the two comparisons appended."""
    assert len(_REPORT_LINES) > 3, "comparisons did not run"
    write_report("runtime_incremental_counter", _REPORT_LINES)
    write_benchmark_json(
        "runtime_incremental_counter",
        _METRICS,
        config={"days": BENCH_DAYS, "events_per_10k": EVENTS_PER_10K},
    )
