"""Tests for the transceiver/decoder model."""

import pytest

from repro.optics import TECH_40G_LR4
from repro.optics.transceiver import (
    decode_corruption_rate,
    required_margin_for_rate,
)


class TestDecodeCurve:
    def test_healthy_margin_is_error_free(self):
        rx = TECH_40G_LR4.thresholds.rx_min_dbm + 5.0
        assert decode_corruption_rate(rx, TECH_40G_LR4) < 1e-10

    def test_below_threshold_corrupts(self):
        rx = TECH_40G_LR4.thresholds.rx_min_dbm - 2.0
        assert decode_corruption_rate(rx, TECH_40G_LR4) > 1e-5

    def test_monotone_decreasing_in_power(self):
        rates = [
            decode_corruption_rate(
                TECH_40G_LR4.thresholds.rx_min_dbm + margin, TECH_40G_LR4
            )
            for margin in (-4, -2, 0, 2, 4)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_defective_receiver_corrupts_despite_power(self):
        rx = TECH_40G_LR4.healthy_rx_dbm()
        rate = decode_corruption_rate(
            rx, TECH_40G_LR4, defective_receiver=True
        )
        assert rate >= 1e-4

    def test_loose_seating_corrupts_despite_power(self):
        rx = TECH_40G_LR4.healthy_rx_dbm()
        rate = decode_corruption_rate(rx, TECH_40G_LR4, loose_seating=True)
        assert rate >= 1e-5

    def test_rate_capped(self):
        rate = decode_corruption_rate(-40.0, TECH_40G_LR4)
        assert rate <= 0.3


class TestInverse:
    @pytest.mark.parametrize("target", [1e-7, 1e-5, 1e-3, 1e-2])
    def test_roundtrip(self, target):
        margin = required_margin_for_rate(target)
        rx = TECH_40G_LR4.thresholds.rx_min_dbm + margin
        recovered = decode_corruption_rate(rx, TECH_40G_LR4)
        assert recovered == pytest.approx(target, rel=0.05)

    def test_higher_rates_need_lower_margin(self):
        assert required_margin_for_rate(1e-2) < required_margin_for_rate(1e-6)
