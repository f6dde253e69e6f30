"""Tests for the §2–3 measurement-study analyses against the synthetic
dataset — these check that the paper's qualitative shapes emerge from the
mechanism models, with loose tolerances (we claim shape, not decimals)."""

import numpy as np
import pytest

from repro.analysis import (
    aggregate_loss_parity,
    bidirectional_pairs,
    bidirectional_share,
    corruption_to_congestion_link_ratio,
    cv_distribution,
    figure1_rows,
    locality_curve,
    locality_ratio,
    loss_bucket_table,
    mean_pearson,
    stage_link_shares,
    stage_loss_shares,
    worst_links,
)
from repro.telemetry import percentile
from repro.workloads import generate_study


@pytest.fixture(scope="module")
def dataset():
    return generate_study(seed=1, num_dcns=8, days=7, scale=0.35)


class TestTable1Shape:
    def test_corruption_heavy_tail(self, dataset):
        table = loss_bucket_table(dataset)
        corruption = table["corruption"]
        assert sum(corruption) == pytest.approx(1.0)
        # Paper: 12.67% of corrupting links at >= 1e-3; congestion 0.22%.
        assert corruption[3] > 0.04

    def test_congestion_concentrated_at_low_rates(self, dataset):
        table = loss_bucket_table(dataset)
        congestion = table["congestion"]
        # Paper: 92.44% in the lowest bucket, 0.22% in the top one.  At
        # reduced topology scale the mass spreads somewhat, but the shape
        # (decreasing, negligible tail) must hold.
        assert congestion[0] == max(congestion)
        assert congestion[0] > 0.45
        assert congestion[3] < 0.03

    def test_corruption_tail_heavier_than_congestion(self, dataset):
        table = loss_bucket_table(dataset)
        # Paper: 12.67% vs 0.22% in the >=1e-3 bucket.
        assert table["corruption"][3] > table["congestion"][3] + 0.08

    def test_link_count_ratio_few_percent(self, dataset):
        """§3: corrupting links are less than 2–4% of congested ones."""
        ratio = corruption_to_congestion_link_ratio(dataset)
        assert 0.01 <= ratio <= 0.15


class TestStability:
    def test_corruption_cv_low(self, dataset):
        cvs = cv_distribution(dataset, "corruption")
        assert cvs
        # Paper Figure 2b: 80th percentile of corruption CV < 4.
        assert percentile(cvs, 80) < 4.0

    def test_congestion_cv_higher(self, dataset):
        corr_cv = cv_distribution(dataset, "corruption")
        cong_cv = cv_distribution(dataset, "congestion")
        assert np.median(cong_cv) > np.median(corr_cv)


class TestUtilizationCorrelation:
    def test_corruption_uncorrelated(self, dataset):
        """Paper: mean Pearson 0.19 for corruption; 85% in [-0.5, 0.5]."""
        assert abs(mean_pearson(dataset, "corruption")) < 0.3
        from repro.analysis import pearson_distribution

        values = pearson_distribution(dataset, "corruption")
        within = sum(1 for v in values if -0.5 <= v <= 0.5) / len(values)
        assert within > 0.7

    def test_congestion_positively_correlated(self, dataset):
        """Paper: mean Pearson 0.62 for congestion."""
        assert mean_pearson(dataset, "congestion") > 0.35

    def test_gap_between_the_two(self, dataset):
        assert (
            mean_pearson(dataset, "congestion")
            - mean_pearson(dataset, "corruption")
        ) > 0.25


class TestLocality:
    def test_congestion_strongly_local(self, dataset):
        ratios = [
            locality_ratio(dcn, "congestion", 0.5)
            for dcn in dataset.dcns
        ]
        # Paper Figure 4: congestion around 0.2 of random spread.  At
        # miniature scale each link's two endpoints bound how concentrated
        # coverage can get, so the bar is looser here; the benchmark runs
        # at larger scale.
        assert np.mean(ratios) < 0.7

    def test_corruption_weakly_local(self, dataset):
        ratios = [
            locality_ratio(dcn, "corruption", 0.5) for dcn in dataset.dcns
        ]
        # Paper: around 0.8 — noticeable but weak.
        assert np.mean(ratios) > 0.55

    def test_corruption_less_local_than_congestion(self, dataset):
        corr = np.mean(
            [locality_ratio(d, "corruption", 0.5) for d in dataset.dcns]
        )
        cong = np.mean(
            [locality_ratio(d, "congestion", 0.5) for d in dataset.dcns]
        )
        assert corr > cong + 0.15

    def test_curve_monotone_structure(self, dataset):
        curve = locality_curve(dataset, "corruption", fractions=[0.1, 0.5, 1.0])
        assert len(curve) == 3
        for _fraction, ratio in curve:
            assert 0.0 < ratio <= 1.3

    def test_worst_links_sorted_by_rate(self, dataset):
        dcn = dataset.dcns[0]
        links = worst_links(dcn, "corruption", 0.5)
        rates = []
        for lid in links:
            for record in dcn.records_of_kind("corruption"):
                if record.link_id == lid:
                    rates.append(record.mean_loss())
                    break
        assert rates == sorted(rates, reverse=True)

    def test_invalid_fraction_rejected(self, dataset):
        with pytest.raises(ValueError):
            worst_links(dataset.dcns[0], "corruption", 0.0)


class TestAsymmetry:
    def test_corruption_mostly_unidirectional(self, dataset):
        """Paper Figure 5: 8.2% of corrupting links bidirectional."""
        share = bidirectional_share(dataset, "corruption")
        assert share < 0.25

    def test_congestion_mostly_bidirectional(self, dataset):
        """Paper: 72.7% of congested links bidirectional."""
        share = bidirectional_share(dataset, "congestion")
        assert share > 0.5

    def test_gap(self, dataset):
        assert bidirectional_share(dataset, "congestion") > 3 * max(
            bidirectional_share(dataset, "corruption"), 0.02
        )

    def test_pairs_are_lossy_both_ways(self, dataset):
        for fwd, rev in bidirectional_pairs(dataset, "congestion"):
            assert fwd >= 1e-8 and rev >= 1e-8


class TestFigure1:
    def test_rows_sorted_by_size(self, dataset):
        rows = figure1_rows(dataset)
        sizes = [row.num_links for row in rows]
        assert sizes == sorted(sizes)

    def test_losses_on_par(self, dataset):
        """§2: corruption losses on par with congestion losses in
        aggregate.  Per-DCN ratios are heavy-tail noisy at reduced scale
        (only ~10 corrupting links per DCN), so we assert the aggregate
        ratio, within roughly an order of magnitude of parity."""
        from repro.analysis import total_loss_ratio

        ratio = total_loss_ratio(dataset)
        assert 0.02 <= ratio <= 30.0
        parity = aggregate_loss_parity(figure1_rows(dataset))
        assert parity > 0.0

    def test_error_bars_present(self, dataset):
        rows = figure1_rows(dataset)
        assert any(row.std_ratio > 0 for row in rows)


class TestStageLocation:
    def test_corruption_unbiased_by_stage(self, dataset):
        """§3: corruption happens at every stage, no bias."""
        loss_shares = stage_loss_shares(dataset, "corruption")
        link_shares = stage_link_shares(dataset)
        for stage, link_share in link_shares.items():
            assert loss_shares.get(stage, 0.0) == pytest.approx(
                link_share, abs=0.25
            )

    def test_congestion_avoids_deep_buffer_stages(self, dataset):
        """The DCNs with deep-buffer spines push congestion into stage 0."""
        loss_shares = stage_loss_shares(dataset, "congestion")
        assert set(loss_shares) <= {0, 1}
