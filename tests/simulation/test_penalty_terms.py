"""The oracle pipeline's maintained penalty total against a full walk.

``OracleSensing`` keeps one penalty term per outstanding fault and sums
them only when a term changed.  The walk below is the computation it
replaced: after every kernel event it looks every outstanding fault up
again.  The two must agree bit for bit, for every strategy (``drain``
drives links to DRAINED, the LinkGuardian strategies move
``topo.lg_version``) and under every repair model.
"""

from __future__ import annotations

import pytest

from repro.core.constraints import CapacityConstraint
from repro.core.penalty import linear_penalty, tcp_throughput_penalty
from repro.simulation.kernel import DAY_S, OracleSensing, SimulationKernel
from repro.simulation.scenarios import make_scenario
from repro.simulation.strategies import STRATEGY_NAMES, build_strategy
from repro.topology.elements import LinkState

REPAIR_MODELS = {
    "two-point": {},
    "full-cycles": {"full_repair_cycles": True, "repair_accuracy": 0.5},
    "technician-pool": {"technician_pool": 2, "repair_accuracy": 0.5},
}


def walk_penalty(pipeline: OracleSensing) -> float:
    """§5.1's penalty, every outstanding fault looked up afresh."""
    topo = pipeline.kernel.topo
    total = 0.0
    for lid in pipeline._terms:
        link = topo.link(lid)
        if not link.enabled:
            continue
        # LinkGuardian protection masks the raw rate with its residual loss.
        if link.lg_protected:
            rate = link.lg_effective_loss
        else:
            rate = link.max_corruption_rate()
        if rate >= 1e-8:
            total += pipeline.penalty_fn(rate)
    return total


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(
        scale=0.12,
        duration_days=20.0,
        seed=3,
        capacity=0.9,
        events_per_10k_links_per_day=80.0,
    )


def run_checked(
    scenario, strategy_name, penalty_fn=linear_penalty, **kernel_args
):
    """Run one oracle job, comparing the two penalties after every event."""
    topo = scenario.topo_factory()
    topo.assign_lg_capable(0.9)
    strategy = build_strategy(
        strategy_name, topo, CapacityConstraint(scenario.capacity)
    )
    pipeline = OracleSensing(scenario.trace, strategy, penalty_fn=penalty_fn)
    kernel = SimulationKernel(
        topo,
        # Past the last repair, so every event is snapshotted.
        duration_s=scenario.trace.duration_days * DAY_S * 4,
        pipeline=pipeline,
        **kernel_args,
    )
    seen = {"events": 0, "drained": 0, "lg_versions": set()}
    snapshot = kernel.snapshot

    def checked_snapshot(time_s):
        snapshot(time_s)
        assert pipeline.current_penalty() == walk_penalty(pipeline)
        seen["events"] += 1
        seen["drained"] += any(
            topo.link(lid).state is LinkState.DRAINED
            for lid in topo.disabled_links()
        )
        seen["lg_versions"].add(topo.lg_version)

    kernel.snapshot = checked_snapshot
    kernel.start()
    processed = kernel.run_until(float("inf"))
    result = kernel.finish()
    assert seen["events"] == processed
    assert pipeline._set_term not in topo._admin_listeners
    return result, seen


@pytest.mark.parametrize("repair", sorted(REPAIR_MODELS))
@pytest.mark.parametrize("strategy_name", STRATEGY_NAMES)
def test_maintained_penalty_equals_walk(scenario, strategy_name, repair):
    result, seen = run_checked(
        scenario, strategy_name, **REPAIR_MODELS[repair]
    )
    assert seen["events"] >= 40
    assert max(v for _t, v in result.metrics.penalty.changes()) > 0
    if strategy_name == "drain":
        assert seen["drained"] > 0
    if strategy_name in ("linkguardian", "lg+corropt"):
        assert result.metrics.lg_protections > 0
        assert len(seen["lg_versions"]) > 1


def test_nonlinear_penalty_function(scenario):
    _result, seen = run_checked(
        scenario,
        "corropt",
        penalty_fn=tcp_throughput_penalty,
        full_repair_cycles=True,
        repair_accuracy=0.5,
    )
    assert seen["events"] >= 40
