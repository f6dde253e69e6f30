"""§5.1 runtime claim: "the combination of both techniques [pruning +
reject cache] allows us to finish optimizer runs in less than one minute"
— plus the DESIGN.md ablations: pruning, reject cache, segmentation, and
branch-and-bound vs exhaustive search, and one full-size CorrOpt run whose
plans search only what each activation can have freed.
"""

import random
import re
import time

import pytest

from conftest import write_benchmark_json, write_report

from repro.core import CapacityConstraint, GlobalOptimizer
from repro.parallel import JobSpec
from repro.parallel.worker import execute_job
from repro.topology import sprinkle_corruption
from repro.workloads import LARGE_DCN


#: Pods in which every ToR has three of its eight uplinks corrupting.  At
#: c = 75% a ToR may lose only two, so pruning cannot clear these links,
#: and the 1% sprinkled over the fabric (agg-spine links of these pods
#: included) ties them into segments the subset search must solve.
HOT_PODS = 3


@pytest.fixture(scope="module")
def corrupted_large():
    topo = LARGE_DCN.build(scale=0.5)
    sprinkle_corruption(topo, fraction=0.01, rng=random.Random(3))
    rng = random.Random(7)
    tors = topo.tors()
    for pod in range(HOT_PODS):
        for tor in (name for name in tors if name.startswith(f"pod{pod}/")):
            for lid in rng.sample(topo.uplinks(tor), 3):
                topo.set_corruption(lid, 10 ** rng.uniform(-7, -2))
    return topo


@pytest.fixture(scope="module")
def feature_ablation():
    """DESIGN.md §6 ablation: each optimizer variant plans the same
    instance; returns ``(variant, plan seconds, result)`` rows."""
    constraint = CapacityConstraint(0.6)
    variants = {
        "full (auto)": {},
        "no pruning": {"use_pruning": False},
        "no reject cache": {"method": "exhaustive", "use_reject_cache": False},
        "no segmentation": {"use_segmentation": False},
        "exhaustive": {"method": "exhaustive"},
        "branch&bound": {"method": "branch_and_bound"},
    }
    rows = []
    for name, kwargs in variants.items():
        optimizer = GlobalOptimizer(_ablation_instance(), constraint, **kwargs)
        started = time.perf_counter()
        result = optimizer.plan()
        rows.append((name, time.perf_counter() - started, result))
    return rows


#: Figure 18's CorrOpt run at full size (36,864 links) and c = 0.9: about
#: 1,800 plans over ~1,200 candidates each.  A plan that searched every
#: candidate made 2,102,270 feasibility checks here; one that searches
#: only what the activation freed makes about 35,000.
FULL_SIZE_SPEC = JobSpec(
    preset="large",
    scale=1.0,
    duration_days=60,
    trace_seed=101,
    events_per_10k=15,
    capacity=0.9,
    strategy="corropt",
    repair_seed=0,
    track_capacity=False,
)
MAX_FULL_SIZE_CHECKS = 100_000


@pytest.fixture(scope="module")
def full_size_run():
    """``(wall seconds, optimizer stats)`` of one full-size CorrOpt run."""
    record = execute_job(FULL_SIZE_SPEC)
    return record.wall_s, record.result.optimizer_stats


def _ablation_instance():
    from repro.topology import build_clos

    topo = build_clos(4, 4, 4, 16)
    sprinkle_corruption(topo, fraction=0.2, rng=random.Random(9))
    return topo


def test_optimizer_runtime_large_dcn(
    benchmark, corrupted_large, feature_ablation, full_size_run
):
    constraint = CapacityConstraint(0.75)

    def run():
        optimizer = GlobalOptimizer(corrupted_large, constraint)
        return optimizer.plan()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    mean_s = benchmark.stats.stats.mean
    stats = result.stats
    full_wall_s, full_stats = full_size_run
    write_report(
        "runtime_optimizer",
        [
            f"§5.1 optimizer runtime, large DCN at scale 0.5 "
            f"({corrupted_large.num_links} links, "
            f"{stats.num_candidates} corrupting, concentrated in "
            f"{HOT_PODS} pods)",
            f"mean plan() time: {mean_s * 1e3:.1f} ms "
            f"(candidates={stats.num_candidates}, "
            f"contested={stats.num_contested}, "
            f"segments={stats.num_segments}, "
            f"feasibility checks={stats.feasibility_checks})",
            "paper: full optimizer run under one minute",
            f"full-size CorrOpt run (large DCN, c = 0.9, 60 days): "
            f"{full_wall_s:.1f} s, {full_stats.runs} plans, "
            f"{full_stats.feasibility_checks} feasibility checks "
            f"(ceiling {MAX_FULL_SIZE_CHECKS})",
        ],
    )
    write_benchmark_json(
        "runtime_optimizer",
        {
            "mean_plan_s": round(mean_s, 4),
            "links": corrupted_large.num_links,
            "candidates": stats.num_candidates,
            "contested": stats.num_contested,
            "segments": stats.num_segments,
            "feasibility_checks": stats.feasibility_checks,
            "max_allowed_s": 60.0,
            "full_size_wall_s": round(full_wall_s, 2),
            "full_size_plans": full_stats.runs,
            "full_size_feasibility_checks": full_stats.feasibility_checks,
            # The ablation's plan times; its report keeps the exact columns.
            **{
                "ablation_" + re.sub(r"\W+", "_", name).strip("_") + "_ms":
                    round(seconds * 1e3, 1)
                for name, seconds, _ in feature_ablation
            },
        },
    )
    # The timed plan searches: pruning leaves contested segments.
    assert stats.num_contested > 0 and stats.num_segments > 0
    assert stats.feasibility_checks > 0
    assert mean_s < 60.0
    # Plans search only what an activation can have freed.
    assert full_stats.runs > 1000
    assert full_stats.feasibility_checks < MAX_FULL_SIZE_CHECKS


def test_optimizer_feature_ablation(benchmark, feature_ablation):
    """DESIGN.md §6 ablation: contribution of pruning, the reject cache,
    segmentation, and the search method to optimizer cost.  The report
    holds only exact columns; the plan times go to runtime_optimizer.json."""
    constraint = CapacityConstraint(0.6)
    rows = [
        f"{name:18s} checks={result.stats.feasibility_checks:6d}  "
        f"residual={result.residual_penalty:.3e}"
        for name, _, result in feature_ablation
    ]
    benchmark.pedantic(
        lambda: GlobalOptimizer(_ablation_instance(), constraint).plan(),
        rounds=3,
        iterations=1,
    )
    write_report(
        "ablation_optimizer_features",
        ["Optimizer feature ablation (same instance, exact answers)"]
        + rows
        + ["all variants agree on the optimal residual penalty"],
    )
    # Every variant is exact: identical residual penalty.
    residuals = {
        round(result.residual_penalty, 12) for _, _, result in feature_ablation
    }
    assert len(residuals) == 1
