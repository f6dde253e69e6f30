"""Tests for the fault injector and root-cause sampling."""

import random
from collections import Counter

import pytest

from repro.faults import (
    FaultInjector,
    RootCause,
    TABLE2_CONTRIBUTION_RANGE,
    cause_mix_midpoint,
    sample_root_cause,
)
from repro.topology import assign_breakout_groups, build_clos


class TestCauseMix:
    def test_midpoint_mix_sums_to_one(self):
        mix = cause_mix_midpoint()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert set(mix) == set(RootCause)

    def test_midpoint_ordering_matches_table2(self):
        mix = cause_mix_midpoint()
        assert mix[RootCause.CONNECTOR_CONTAMINATION] > mix[RootCause.DAMAGED_FIBER]
        assert mix[RootCause.DECAYING_TRANSMITTER] < 0.01

    def test_sampling_tracks_mix(self):
        rng = random.Random(0)
        counts = Counter(sample_root_cause(rng) for _ in range(5000))
        mix = cause_mix_midpoint()
        for cause, probability in mix.items():
            assert counts[cause] / 5000 == pytest.approx(probability, abs=0.03)

    def test_table2_ranges_well_formed(self):
        for low, high in TABLE2_CONTRIBUTION_RANGE.values():
            assert 0 <= low <= high <= 100


class TestInjector:
    @pytest.fixture
    def topo(self):
        # Aggs get 8 spine uplinks so breakout cables (which live on the
        # agg-spine boundary, like the shared faults) can form there.
        return build_clos(2, 4, 8, 64)

    def test_deterministic(self, topo):
        a = FaultInjector(topo, seed=5).generate(10.0)
        b = FaultInjector(topo, seed=5).generate(10.0)
        assert len(a) == len(b)
        assert [e.link_ids for e in a] == [e.link_ids for e in b]
        assert [e.fault.cause for e in a] == [e.fault.cause for e in b]

    def test_poisson_volume(self, topo):
        events = FaultInjector(topo, seed=1, events_per_day=20).generate(30.0)
        assert 400 <= len(events) <= 800  # mean 600

    def test_events_time_ordered_within_horizon(self, topo):
        events = FaultInjector(topo, seed=2, events_per_day=10).generate(5.0)
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 5 * 86400 for t in times)

    def test_shared_faults_are_co_located(self, topo):
        injector = FaultInjector(topo, seed=3, events_per_day=30)
        events = injector.generate(60.0)
        shared = [
            e for e in events if e.fault.cause is RootCause.SHARED_COMPONENT
        ]
        assert shared
        for event in shared:
            assert len(event.link_ids) >= 2
            # All member links share a switch (the faulty backplane /
            # breakout cable lives there); it may be the lower or the
            # upper endpoint depending on port direction.
            common = set(event.link_ids[0])
            for lid in event.link_ids[1:]:
                common &= set(lid)
            assert common, event.link_ids

    def test_shared_faults_prefer_breakout_groups(self, topo):
        groups = assign_breakout_groups(topo, fraction=0.5)
        injector = FaultInjector(topo, seed=4, events_per_day=30)
        events = injector.generate(60.0)
        shared = [
            e for e in events if e.fault.cause is RootCause.SHARED_COMPONENT
        ]
        grouped = [
            e
            for e in shared
            if topo.link(e.link_ids[0]).breakout_group is not None
        ]
        assert grouped  # at least some land on breakout cables
        for event in grouped:
            group = topo.link(event.link_ids[0]).breakout_group
            assert set(event.link_ids) <= set(groups[group])

    def test_conditions_aligned_with_links(self, topo):
        events = FaultInjector(topo, seed=6, events_per_day=10).generate(20.0)
        for event in events:
            assert len(event.link_ids) == len(event.conditions)

    def test_invalid_rate_rejected(self, topo):
        with pytest.raises(ValueError):
            FaultInjector(topo, events_per_day=0)
