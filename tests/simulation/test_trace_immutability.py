"""Regression: traces shared by reference between jobs stay immutable.

The parallel workers' scenario cache builds one (topology, trace) pair
per worker and hands the *same* trace object to every simulation copied
from it (repro.parallel.worker).  If a simulation mutated the trace —
reordering events, rewriting conditions, consuming the event list — a
job's result would depend on which jobs ran before it on the same
worker, silently breaking "same spec → same result".
"""

import dataclasses

import pytest

from repro.parallel import JobSpec
from repro.parallel.worker import execute_job, worker_cache
from repro.simulation import make_scenario, run_scenario


def trace_fingerprint(trace):
    """Everything a simulation can observe about a trace, as a value."""
    return tuple(
        (
            event.time_s,
            event.link_ids,
            tuple(
                (cond.fwd_rate, cond.rev_rate, cond.rx1_dbm, cond.rx2_dbm)
                for cond in event.conditions
            ),
            event.fault.cause,
        )
        for event in trace.events
    )


@pytest.fixture
def scenario():
    return make_scenario(
        scale=0.2,
        duration_days=8.0,
        seed=5,
        capacity=0.6,
        events_per_10k_links_per_day=300.0,
    )


def test_fault_event_is_frozen(scenario):
    event = scenario.trace.events[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.time_s = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.link_ids = ()
    assert isinstance(event.link_ids, tuple)
    assert isinstance(event.conditions, tuple)


def test_simulations_leave_shared_trace_untouched(scenario):
    before = trace_fingerprint(scenario.trace)
    run_scenario(scenario, "corropt")
    run_scenario(scenario, "switch-local")
    run_scenario(scenario, "none")
    assert trace_fingerprint(scenario.trace) == before


def test_job_results_independent_of_cache_history():
    """Two jobs sharing a cached trace cannot observe each other's runs.

    Runs job B alone on a cold cache, then the A→B sequence on another
    cold cache: B's exact metric series must match, and the second run of
    B must be a cache hit (proving the trace really was shared).
    """
    spec_a = JobSpec(
        scale=0.2,
        duration_days=8.0,
        trace_seed=5,
        events_per_10k=300.0,
        capacity=0.5,
        strategy="corropt",
    )
    spec_b = dataclasses.replace(spec_a, capacity=0.9, strategy="switch-local")

    worker_cache().clear()
    b_alone = execute_job(spec_b)
    assert not b_alone.cache_hit

    worker_cache().clear()
    execute_job(spec_a)
    b_after_a = execute_job(spec_b)
    assert b_after_a.cache_hit  # same shared scenario, second touch

    alone, after = b_alone.result, b_after_a.result
    assert alone.penalty_integral == after.penalty_integral
    assert (
        alone.metrics.penalty.changes() == after.metrics.penalty.changes()
    )
    assert (
        alone.metrics.worst_tor_fraction.changes()
        == after.metrics.worst_tor_fraction.changes()
    )
    worker_cache().clear()
