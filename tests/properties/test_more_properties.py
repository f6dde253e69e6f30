"""Second property-based batch: optimizer exactness, segmentation
independence, serialization, and ticket queues under random schedules."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CapacityConstraint,
    GlobalOptimizer,
    PathCounter,
    brute_force_optimal,
    segment_links,
)
from repro.ticketing import TechnicianPoolQueue, Ticket
from repro.topology import (
    build_clos,
    topology_from_dict,
    topology_to_dict,
)
from tests.path_counts import counts_of


# --------------------------------------------------------------------- #
# Optimizer exactness on random instances
# --------------------------------------------------------------------- #


@given(
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([0.4, 0.5, 0.67, 0.75]),
    num_corrupting=st.integers(1, 9),
)
@settings(max_examples=20, deadline=None)
def test_optimizer_always_matches_brute_force(seed, capacity, num_corrupting):
    rng = random.Random(seed)
    topo = build_clos(2, 2, 3, 9)
    links = sorted(topo.link_ids())
    for lid in rng.sample(links, num_corrupting):
        topo.set_corruption(lid, 10 ** rng.uniform(-6, -2))
    constraint = CapacityConstraint(capacity)
    _best, brute_residual = brute_force_optimal(topo, constraint)
    result = GlobalOptimizer(topo, constraint).plan()
    assert result.residual_penalty == pytest.approx(brute_residual)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_optimizer_output_disjoint_and_complete(seed):
    from repro.topology import sprinkle_corruption

    topo = build_clos(2, 3, 3, 9)
    sprinkle_corruption(topo, fraction=0.2, rng=random.Random(seed))
    candidates = set(topo.corrupting_links())
    result = GlobalOptimizer(topo, CapacityConstraint(0.6)).plan()
    assert result.to_disable | result.kept_active == candidates
    assert result.to_disable.isdisjoint(result.kept_active)


# --------------------------------------------------------------------- #
# Segmentation: solving per segment equals solving jointly
# --------------------------------------------------------------------- #


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_segments_partition_contested_links(seed):
    from repro.topology import sprinkle_corruption

    topo = build_clos(3, 3, 3, 9)
    sprinkle_corruption(topo, fraction=0.25, rng=random.Random(seed))
    contested = sorted(topo.corrupting_links())
    at_risk = set(topo.tors())
    segments = segment_links(topo, contested, at_risk)
    seen = [lid for seg in segments for lid in seg.links]
    assert sorted(seen) == contested
    tor_sets = [seg.tors for seg in segments]
    for i, a in enumerate(tor_sets):
        for b in tor_sets[i + 1 :]:
            assert a.isdisjoint(b)


# --------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------- #


@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
    disable_seed=st.integers(0, 1000),
)
@settings(max_examples=20, deadline=None)
def test_serialization_roundtrip_preserves_path_counts(dims, disable_seed):
    pods, tors, aggs = dims
    topo = build_clos(pods, tors, aggs, aggs * 2)
    rng = random.Random(disable_seed)
    for lid in sorted(topo.link_ids()):
        if rng.random() < 0.2:
            topo.disable_link(lid)
        if rng.random() < 0.2:
            topo.set_corruption(lid, 10 ** rng.uniform(-7, -2))
    clone = topology_from_dict(topology_to_dict(topo))
    assert counts_of(PathCounter(clone)) == counts_of(PathCounter(topo))
    assert sorted(clone.corrupting_links()) == sorted(topo.corrupting_links())
    assert clone.disabled_links() == topo.disabled_links()


# --------------------------------------------------------------------- #
# Ticket queues under arbitrary schedules
# --------------------------------------------------------------------- #


@given(
    submissions=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
    )
)
@settings(max_examples=30, deadline=None)
def test_fixed_delay_queue_completes_everything_in_order(submissions):
    # Enough technicians that no ticket waits: a fixed service delay.
    queue = TechnicianPoolQueue(
        num_technicians=len(submissions), service_time_s=100.0
    )
    tickets = []
    for offset in sorted(submissions):
        ticket = Ticket(link_id=("a", "b"), created_s=offset)
        queue.submit(ticket, offset)
        tickets.append(ticket)
    done = queue.pop_due(max(submissions) + 100.0)
    assert len(done) == len(tickets)
    ids = [t.ticket_id for t in done]
    assert ids == sorted(ids)  # FIFO within equal completion ordering


@given(
    num_technicians=st.integers(1, 5),
    count=st.integers(1, 25),
)
@settings(max_examples=30, deadline=None)
def test_pool_queue_conserves_tickets(num_technicians, count):
    queue = TechnicianPoolQueue(
        num_technicians=num_technicians, service_time_s=10.0
    )
    for _ in range(count):
        queue.submit(Ticket(link_id=("a", "b"), created_s=0.0), 0.0)
    drained = 0
    time = 0.0
    for _ in range(count * 2):
        time += 10.0
        drained += len(queue.pop_due(time))
        if drained == count:
            break
    assert drained == count
    assert queue.next_completion() is None
