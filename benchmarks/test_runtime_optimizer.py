"""§5.1 runtime claim: "the combination of both techniques [pruning +
reject cache] allows us to finish optimizer runs in less than one minute"
— plus the DESIGN.md ablations: pruning, reject cache, segmentation, and
branch-and-bound vs exhaustive search.
"""

import random
import time

import pytest

from conftest import write_benchmark_json, write_report

from repro.core import CapacityConstraint, GlobalOptimizer
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


def test_optimizer_runtime_large_dcn(benchmark, corrupted_large):
    constraint = CapacityConstraint(0.75)

    def run():
        optimizer = GlobalOptimizer(corrupted_large, constraint)
        return optimizer.plan()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    mean_s = benchmark.stats.stats.mean
    stats = result.stats
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
        },
    )
    # The timed plan searches: pruning leaves contested segments.
    assert stats.num_contested > 0 and stats.num_segments > 0
    assert stats.feasibility_checks > 0
    assert mean_s < 60.0


def test_optimizer_feature_ablation(benchmark):
    """DESIGN.md §6 ablation: contribution of pruning, the reject cache,
    segmentation, and the search method to optimizer cost."""
    constraint = CapacityConstraint(0.6)

    def build_instance():
        from repro.topology import build_clos

        topo = build_clos(4, 4, 4, 16)
        sprinkle_corruption(topo, fraction=0.2, rng=random.Random(9))
        return topo

    variants = {
        "full (auto)": {},
        "no pruning": {"use_pruning": False},
        "no reject cache": {"method": "exhaustive", "use_reject_cache": False},
        "no segmentation": {"use_segmentation": False},
        "exhaustive": {"method": "exhaustive"},
        "branch&bound": {"method": "branch_and_bound"},
    }

    rows = []
    residuals = set()
    for name, kwargs in variants.items():
        topo = build_instance()
        optimizer = GlobalOptimizer(topo, constraint, **kwargs)
        started = time.perf_counter()
        result = optimizer.plan()
        elapsed = time.perf_counter() - started
        rows.append(
            f"{name:18s} {elapsed * 1000:9.1f} ms  "
            f"checks={result.stats.feasibility_checks:6d}  "
            f"residual={result.residual_penalty:.3e}"
        )
        residuals.add(round(result.residual_penalty, 12))

    benchmark.pedantic(
        lambda: GlobalOptimizer(build_instance(), constraint).plan(),
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
    assert len(residuals) == 1
