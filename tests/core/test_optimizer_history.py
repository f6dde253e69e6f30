"""The optimizer's plan history (DESIGN.md §3 ``optimizer``) against a plan
without one.

A plan searches only the candidates that are new since the last trusted
plan, or that sit above a ToR that gained paths since.  At every plan of
every run below, a fresh optimizer on the same state, which searches
everything, must choose the same links.
"""

import pickle
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    CapacityConstraint,
    GlobalOptimizer,
    PathCounter,
    linear_penalty,
    step_penalty,
)
from repro.parallel import JobSpec
from repro.parallel.worker import execute_job
from repro.topology import build_clos, build_irregular_clos
from tests.oracles.brute_force import brute_force_optimal

_PLAN = GlobalOptimizer.plan


def _shadow_plan(optimizer, candidates):
    """What a history-free optimizer sharing ``optimizer``'s counter plans;
    it must leave the counter's risen and fallen sets for ``optimizer``."""
    shadow = GlobalOptimizer(
        optimizer._topo,
        optimizer.constraint,
        penalty_fn=optimizer.penalty_fn,
        counter=optimizer.counter,
        use_pruning=optimizer.use_pruning,
        use_reject_cache=optimizer.use_reject_cache,
        use_segmentation=optimizer.use_segmentation,
        method=optimizer.method,
        exhaustive_limit=optimizer.exhaustive_limit,
    )
    counter = optimizer.counter
    moved = (set(counter.risen), set(counter.fallen))
    result = _PLAN(shadow, candidates)
    assert (counter.risen, counter.fallen) == moved
    return result


def _assert_same_plan(result, expected):
    assert result.to_disable == expected.to_disable
    assert result.kept_active == expected.kept_active
    assert result.residual_penalty == expected.residual_penalty


@pytest.fixture
def shadowed():
    """Patch every ``plan`` to check itself against the shadow plan;
    yields the tally of plans and feasibility checks on both sides."""
    tally = {"plans": 0, "checks": 0, "shadow_checks": 0}

    def plan(self, candidates=None):
        expected = _shadow_plan(self, candidates)
        result = _PLAN(self, candidates)
        _assert_same_plan(result, expected)
        tally["plans"] += 1
        tally["checks"] += result.stats.feasibility_checks
        tally["shadow_checks"] += expected.stats.feasibility_checks
        return result

    with mock.patch.object(GlobalOptimizer, "plan", plan):
        yield tally


@pytest.mark.parametrize("capacity", [0.75, 0.9])
def test_oracle_sensing_plans_equal_full_search(shadowed, capacity):
    """Figure 17's large DCN: every activation's plan, two traces."""
    for seed in (101, 102):
        execute_job(
            JobSpec(
                preset="large",
                scale=0.35,
                duration_days=60.0,
                trace_seed=seed,
                events_per_10k=15.0,
                capacity=capacity,
                strategy="corropt",
                repair_seed=0,
                track_capacity=False,
            )
        )
    assert shadowed["plans"] > 400
    assert shadowed["checks"] < shadowed["shadow_checks"]


def test_harsh_chaos_plans_equal_full_search(shadowed):
    """The controller's plans under harsh telemetry faults: candidates
    leave and rejoin as quarantines trip and release."""
    record = execute_job(
        JobSpec(
            kind="chaos",
            scale=0.12,
            duration_days=10.0,
            trace_seed=0,
            events_per_10k=400.0,
            capacity=0.9,
            repair_seed=0,
            chaos_preset="harsh",
        )
    )
    log = record.result.controller_log
    assert log.fail_safe_keeps > 0
    assert shadowed["plans"] == record.result.optimizer_stats.runs > 20
    assert shadowed["checks"] < shadowed["shadow_checks"]


# --------------------------------------------------------------------- #
# Random corrupt / disable / enable / plan sequences
# --------------------------------------------------------------------- #

_TOPOLOGIES = {
    "clos": lambda seed: build_clos(2, 3, 3, 6),
    "irregular": lambda seed: build_irregular_clos(
        seed=seed, num_pods=3, max_tors_per_pod=3, max_aggs_per_pod=3,
        num_spines=4,
    ),
}

#: One change to the topology, then a plan: (change, link index, log10
#: rate, apply the plan?, leave out every n-th candidate or none if 0).
_STEP = st.tuples(
    st.sampled_from(["corrupt", "clear", "disable", "enable", "none"]),
    st.integers(0, 10**6),
    st.floats(-7, -2),
    st.booleans(),
    st.integers(0, 3),
)


@given(
    shape=st.sampled_from(sorted(_TOPOLOGIES)),
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([0.5, 0.67, 0.75, 0.9]),
    strict_tor=st.booleans(),
    penalty_fn=st.sampled_from([linear_penalty, step_penalty]),
    steps=st.lists(_STEP, min_size=1, max_size=30),
)
@settings(max_examples=120, deadline=None)
# Equal step penalties: searching fewer links splits a segment, and the
# parts fall under the exhaustive limit and break the tie otherwise.
@example(
    shape="clos", seed=95, capacity=0.75, strict_tor=False,
    penalty_fn=step_penalty,
    steps=[("clear", 20, -6.7, False, 0), ("clear", 9, -4.9, True, 0)],
)
def test_random_sequences_plan_as_full_search(
    shape, seed, capacity, strict_tor, penalty_fn, steps
):
    rng = random.Random(seed)
    topo = _TOPOLOGIES[shape](seed)
    links = sorted(topo.link_ids())
    for lid in rng.sample(links, k=len(links) // 6):
        topo.set_corruption(lid, 10 ** rng.uniform(-7, -2))
    # A strict ToR needs every path: any loss below it leaves it under its
    # floor, and it blocks its segment from then on.
    strict = {rng.choice(topo.tors()): 1.0} if strict_tor else {}
    constraint = CapacityConstraint(capacity, strict)
    counter = PathCounter(topo)
    optimizer = GlobalOptimizer(
        topo, constraint, penalty_fn=penalty_fn, counter=counter,
        exhaustive_limit=4,
    )
    for change, index, rate, apply, skip in steps:
        lid = links[index % len(links)]
        if change == "corrupt":
            topo.set_corruption(lid, 10**rate)
        elif change == "clear":
            topo.clear_corruption(lid)
        elif change == "disable":
            topo.disable_link(lid)
        elif change == "enable":
            topo.enable_link(lid)
        candidates = None
        if skip:
            candidates = sorted(topo.corrupting_links())[::-1]
            del candidates[:: skip + 1]
        expected = _shadow_plan(optimizer, candidates)
        result = optimizer.plan(candidates)
        _assert_same_plan(result, expected)
        if (
            candidates is None
            and len(result.to_disable | result.kept_active) <= 8
            and not constraint.violations(counter.tor_fractions())
        ):
            _best, residual = brute_force_optimal(
                topo, constraint, penalty_fn=penalty_fn
            )
            assert result.residual_penalty == pytest.approx(residual)
        if apply:
            for lid in sorted(result.to_disable):
                topo.disable_link(lid)


# --------------------------------------------------------------------- #
# Each guard on the smallest instance that needs it
# --------------------------------------------------------------------- #

TOR0_AGG0 = ("pod0/tor0", "pod0/agg0")
TOR0_AGG1 = ("pod0/tor0", "pod0/agg1")
TOR1_AGG0 = ("pod0/tor1", "pod0/agg0")
TOR1_AGG1 = ("pod0/tor1", "pod0/agg1")
AGG1_SPINE2 = ("pod0/agg1", "spine2")


def _pod():
    """One pod: two ToRs, two aggs, each agg up to its own two spines, so
    every ToR has 4 paths and each ToR link carries 2 of them."""
    return build_clos(1, 2, 2, 4)


def test_plan_with_a_tor_already_below_its_floor_leaves_no_history():
    """``tor1`` needs every path and has lost two, so it blocks the
    segment that joins ``agg1-spine2`` (above both ToRs) with
    ``tor0-agg0`` (above ``tor0`` only): both stay up.  Once ``tor1``
    regains its paths, ``tor0-agg0`` alone is feasible, though nothing
    below it rose."""
    topo = _pod()
    topo.disable_link(TOR1_AGG1)
    topo.set_corruption(AGG1_SPINE2, 1e-3)
    topo.set_corruption(TOR0_AGG0, 1e-4)
    optimizer = GlobalOptimizer(
        topo, CapacityConstraint(0.5, {"pod0/tor1": 1.0})
    )
    assert optimizer.plan().to_disable == set()
    topo.enable_link(TOR1_AGG1)
    expected = _shadow_plan(optimizer, None)
    assert expected.to_disable == {TOR0_AGG0}
    _assert_same_plan(optimizer.plan(), expected)


def test_a_tor_that_falls_below_its_floor_ends_the_history():
    """The first plan keeps ``agg1-spine2`` for ``tor1``, which needs
    every path.  Then ``tor1`` loses two paths to a link that does not
    corrupt, and ``tor0-agg0`` starts corrupting: its segment holds the
    kept link and ``tor1``, so it stays up too."""
    topo = _pod()
    topo.set_corruption(AGG1_SPINE2, 1e-3)
    optimizer = GlobalOptimizer(
        topo, CapacityConstraint(0.5, {"pod0/tor1": 1.0})
    )
    assert optimizer.plan().to_disable == set()
    topo.disable_link(TOR1_AGG0)
    topo.set_corruption(TOR0_AGG0, 1e-4)
    expected = _shadow_plan(optimizer, None)
    assert expected.to_disable == set()
    _assert_same_plan(optimizer.plan(), expected)


def test_a_chosen_link_left_up_counts_as_risen():
    """The plan takes ``tor0-agg1`` and keeps ``tor0-agg0``, but nobody
    disables it; once it stops corrupting, ``tor0-agg0`` alone is
    feasible, though no ToR count rose."""
    topo = _pod()
    topo.set_corruption(TOR0_AGG1, 1e-3)
    topo.set_corruption(TOR0_AGG0, 1e-4)
    optimizer = GlobalOptimizer(topo, CapacityConstraint(0.5))
    assert optimizer.plan().to_disable == {TOR0_AGG1}
    topo.clear_corruption(TOR0_AGG1)
    expected = _shadow_plan(optimizer, None)
    assert expected.to_disable == {TOR0_AGG0}
    _assert_same_plan(optimizer.plan(), expected)


def test_history_is_not_pickled():
    """A restored optimizer has no history and searches everything once;
    the plan leaves the pickled form as it was."""
    topo = build_clos(2, 3, 3, 6)
    for lid in sorted(topo.link_ids())[::4]:
        topo.set_corruption(lid, 1e-3)
    optimizer = GlobalOptimizer(topo, CapacityConstraint(0.9))
    before = optimizer.__getstate__()
    first = optimizer.plan()
    assert optimizer._history is not None
    assert optimizer.__getstate__().keys() == before.keys()
    assert not {"risen", "fallen"} & optimizer.counter.__getstate__().keys()
    restored = pickle.loads(pickle.dumps(optimizer))
    assert restored._history is None
    again = restored.plan()
    assert again.stats.num_contested == first.stats.num_contested
    assert again.to_disable == first.to_disable
