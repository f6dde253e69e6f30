"""Tests for capacity constraints and penalty functions."""

import random

import pytest

from repro.core import (
    CapacityConstraint,
    connectivity_constraint,
    linear_penalty,
    step_penalty,
    tcp_throughput_penalty,
    total_penalty,
)
from repro.core.penalty import ordered_sum
from repro.topology import build_clos
from repro.topology.elements import Direction


class TestCapacityConstraint:
    def test_default_and_override(self):
        c = CapacityConstraint(0.75, {"hot": 0.9})
        assert c.threshold("hot") == 0.9
        assert c.threshold("cold") == 0.75

    def test_boundary_counts_as_satisfied(self):
        c = CapacityConstraint(0.75)
        assert c.satisfied_by("t", 0.75)
        assert c.satisfied_by("t", 0.75 - 1e-15)  # float-noise tolerance
        assert not c.satisfied_by("t", 0.7)

    def test_violations(self):
        c = CapacityConstraint(0.5)
        violations = c.violations({"a": 0.4, "b": 0.6, "c": 0.49})
        assert violations == {"a": 0.4, "c": 0.49}

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CapacityConstraint(1.2)
        with pytest.raises(ValueError):
            CapacityConstraint(0.5, {"t": -0.1})

    def test_connectivity_constraint_accepts_any_path(self):
        c = connectivity_constraint()
        assert c.satisfied_by("t", 0.001)
        assert not c.satisfied_by("t", 0.0)


class TestPenaltyFunctions:
    def test_linear_is_identity(self):
        assert linear_penalty(1e-3) == 1e-3

    def test_tcp_penalty_monotone(self):
        rates = [1e-8, 1e-6, 1e-4, 1e-2]
        values = [tcp_throughput_penalty(r) for r in rates]
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] <= 1.0

    def test_tcp_penalty_matches_paper_anchor(self):
        # §1: 0.1% loss drops RDMA/TCP throughput substantially; the model
        # should report a large fraction lost at 1e-3.
        assert tcp_throughput_penalty(1e-3) > 0.9

    def test_step_penalty(self):
        assert step_penalty(1e-4, threshold=1e-3) == 0.0
        assert step_penalty(1e-3, threshold=1e-3) == 1.0
        assert step_penalty(5e-3, threshold=1e-3, weight=2.0) == 2.0


class TestTotalPenalty:
    def test_sums_enabled_corrupting_links(self):
        topo = build_clos(2, 2, 2, 4)
        topo.set_corruption(("pod0/tor0", "pod0/agg0"), 1e-3)
        topo.set_corruption(("pod1/tor0", "pod1/agg0"), 2e-3)
        assert total_penalty(topo) == pytest.approx(3e-3)

    def test_disabled_links_do_not_count(self):
        topo = build_clos(2, 2, 2, 4)
        lid = ("pod0/tor0", "pod0/agg0")
        topo.set_corruption(lid, 1e-3)
        topo.disable_link(lid)
        assert total_penalty(topo) == 0.0

    def test_below_threshold_does_not_count(self):
        topo = build_clos(2, 2, 2, 4)
        topo.set_corruption(("pod0/tor0", "pod0/agg0"), 1e-9)
        assert total_penalty(topo) == 0.0

    def test_equals_the_walk_over_every_link(self):
        """total_penalty sums over the live corrupting index; the floats
        must come out in the full walk's order, hence bit-equal."""

        def full_walk(topo, penalty_fn, threshold):
            total = 0
            for link in topo.links():
                if link.enabled and link.max_corruption_rate() >= threshold:
                    total += penalty_fn(link.max_corruption_rate())
            return total

        topo = build_clos(3, 3, 3, 9)
        link_ids = [link.link_id for link in topo.links()]
        rng = random.Random(11)
        for step in range(400):
            lid = rng.choice(link_ids)
            action = rng.randrange(5)
            if action == 0:
                topo.set_corruption(lid, 10 ** rng.uniform(-9, -2))
            elif action == 1:
                topo.set_corruption(
                    lid, 10 ** rng.uniform(-9, -2), Direction.DOWN
                )
            elif action == 2:
                topo.clear_corruption(lid)
            elif action == 3:
                topo.disable_link(lid)
            else:
                topo.enable_link(lid)
            for fn in (linear_penalty, tcp_throughput_penalty):
                for threshold in (1e-8, 1e-5, 0.0):
                    assert total_penalty(topo, fn, threshold) == full_walk(
                        topo, fn, threshold
                    ), step
        assert total_penalty(topo) > 0

    def test_custom_penalty_fn(self):
        topo = build_clos(2, 2, 2, 4)
        topo.set_corruption(("pod0/tor0", "pod0/agg0"), 1e-2)
        assert total_penalty(topo, step_penalty) == 1.0


class TestOrderedSum:
    def test_adds_left_to_right(self):
        """Python 3.12's ``sum`` compensates and returns
        1.0000000000000002 here; the pinned sums must not."""
        assert ordered_sum([1.0, 1e-16, 1e-16]) == 1.0
        assert ordered_sum([1e-16, 1e-16, 1.0]) == 1.0000000000000002

    def test_matches_the_builtin_start_and_empty_case(self):
        assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
        assert type(ordered_sum([], 0.0)) is float
        assert ordered_sum(iter([0.5, 0.25]), 1.0) == 1.75
