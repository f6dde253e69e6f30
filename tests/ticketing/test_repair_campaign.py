"""Tests reproducing §7.2's repair-accuracy numbers."""

import pytest

from repro.ticketing import (
    CampaignResult,
    run_repair_campaign,
)

N = 800


class TestCampaignAccuracies:
    """The §7.2 calibration triangle: 50% legacy, ~80% CorrOpt-followed,
    ~58% deployed-with-noncompliance."""

    def test_legacy_near_fifty_percent(self):
        result = run_repair_campaign(N, policy="legacy", seed=1)
        assert result.first_attempt_accuracy == pytest.approx(0.50, abs=0.07)

    def test_corropt_followed_near_eighty_percent(self):
        result = run_repair_campaign(N, policy="corropt", seed=2)
        assert result.first_attempt_accuracy == pytest.approx(0.80, abs=0.06)
        assert result.followed_accuracy == pytest.approx(0.80, abs=0.06)

    def test_deployed_with_noncompliance_near_paper(self):
        """§7.2: 30% non-compliance + simplified engine -> 58% observed."""
        result = run_repair_campaign(
            N, policy="deployed", seed=3, compliance=0.7
        )
        assert 0.5 <= result.first_attempt_accuracy <= 0.68

    def test_corropt_beats_legacy_by_wide_margin(self):
        legacy = run_repair_campaign(N, policy="legacy", seed=4)
        corropt = run_repair_campaign(N, policy="corropt", seed=4)
        improvement = (
            corropt.first_attempt_accuracy / legacy.first_attempt_accuracy
        )
        # Paper: "improved the accuracy of repair by 60%" (50% -> 80%).
        assert improvement == pytest.approx(1.6, abs=0.25)

    def test_corropt_reduces_repair_time(self):
        legacy = run_repair_campaign(N, policy="legacy", seed=5)
        corropt = run_repair_campaign(N, policy="corropt", seed=5)
        assert corropt.mean_repair_days() < legacy.mean_repair_days()

    def test_compliance_sweep_monotone(self):
        """More compliance -> better accuracy (ablation)."""
        accuracies = [
            run_repair_campaign(
                N, policy="corropt", seed=6, compliance=c
            ).first_attempt_accuracy
            for c in (0.0, 0.5, 1.0)
        ]
        assert accuracies[0] < accuracies[1] < accuracies[2]


class TestCampaignMechanics:
    def test_every_ticket_has_attempts(self):
        result = run_repair_campaign(50, policy="corropt", seed=7)
        assert len(result.tickets) == 50
        assert all(t.num_attempts >= 1 for t in result.tickets)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_repair_campaign(10, policy="bogus")

    def test_deterministic(self):
        a = run_repair_campaign(100, policy="corropt", seed=8)
        b = run_repair_campaign(100, policy="corropt", seed=8)
        assert a.first_attempt_accuracy == b.first_attempt_accuracy

    def test_empty_campaign(self):
        result = CampaignResult()
        assert result.first_attempt_accuracy == 0.0
        assert result.followed_accuracy == 0.0
        assert result.mean_attempts() == 0.0
