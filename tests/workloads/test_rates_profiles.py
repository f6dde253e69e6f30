"""Tests for rate distributions (Table 1) and DCN profiles."""

import random

import pytest

from repro.workloads import (
    BUCKET_EDGES,
    LARGE_DCN,
    MEDIUM_DCN,
    TABLE1_CORRUPTION_SHARES,
    bucket_shares,
    sample_corruption_rate,
    study_profiles,
)


class TestTable1Sampling:
    def test_corruption_shares_recovered(self):
        rng = random.Random(0)
        rates = [sample_corruption_rate(rng) for _ in range(20000)]
        shares = bucket_shares(rates)
        for observed, expected in zip(shares, TABLE1_CORRUPTION_SHARES):
            assert observed == pytest.approx(expected, abs=0.02)

    def test_rates_within_global_bounds(self):
        rng = random.Random(2)
        for _ in range(1000):
            rate = sample_corruption_rate(rng)
            assert BUCKET_EDGES[0][0] <= rate <= BUCKET_EDGES[-1][1]


class TestBucketShares:
    def test_normalization_excludes_sub_threshold(self):
        shares = bucket_shares([1e-9, 1e-6, 1e-6])
        assert shares[0] == pytest.approx(1.0)

    def test_above_top_bucket_counts_in_last(self):
        shares = bucket_shares([0.5])
        assert shares[-1] == 1.0

    def test_empty_input(self):
        assert bucket_shares([]) == [0.0, 0.0, 0.0, 0.0]

    def test_shares_sum_to_one(self):
        rng = random.Random(4)
        rates = [sample_corruption_rate(rng) for _ in range(500)]
        assert sum(bucket_shares(rates)) == pytest.approx(1.0)


class TestProfiles:
    def test_fifteen_study_profiles(self):
        profiles = study_profiles()
        assert len(profiles) == 15
        sizes = [p.approx_links for p in profiles]
        assert sizes == sorted(sizes)
        assert 3000 <= sizes[0] <= 6000  # ~4K
        assert 45000 <= sizes[-1] <= 55000  # ~50K

    def test_total_in_paper_neighbourhood(self):
        total = sum(p.approx_links for p in study_profiles())
        assert 250_000 <= total <= 450_000  # paper: 350K

    def test_medium_and_large_sizes(self):
        assert 12_000 <= MEDIUM_DCN.approx_links <= 20_000
        assert 30_000 <= LARGE_DCN.approx_links <= 40_000

    def test_approx_links_matches_build(self):
        profile = study_profiles()[0]
        assert profile.build().num_links == profile.approx_links

    def test_scaled_build_preserves_fanout(self):
        full = MEDIUM_DCN.build(scale=1.0)
        small = MEDIUM_DCN.build(scale=0.2)
        assert small.num_links < full.num_links / 5
        # Per-ToR uplink fanout preserved.
        assert len(small.uplinks(small.tors()[0])) == len(
            full.uplinks(full.tors()[0])
        )

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            MEDIUM_DCN.build(scale=0.0)
