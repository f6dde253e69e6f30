"""Tests for optical power math and transceiver technologies."""

import pytest

from repro.optics import (
    TECH_10G_SR,
    TECH_40G_LR4,
    TECHNOLOGIES,
    PowerThresholds,
    attenuate,
)


class TestConversions:

    def test_attenuate_subtracts(self):
        assert attenuate(-3.0, 4.0) == -7.0


class TestThresholds:
    def test_low_detection(self):
        thresholds = PowerThresholds(rx_min_dbm=-10.0, tx_min_dbm=-7.0)
        assert thresholds.rx_is_low(-10.5)
        assert not thresholds.rx_is_low(-10.0)


class TestTechnologies:
    def test_registry_complete(self):
        assert set(TECHNOLOGIES) == {"10G-SR", "40G-LR4", "100G-CWDM4"}

    def test_healthy_rx_above_threshold(self):
        """Every technology's healthy link must have positive Rx margin —
        otherwise healthy links would corrupt."""
        for tech in TECHNOLOGIES.values():
            margin = tech.healthy_rx_dbm() - tech.thresholds.rx_min_dbm
            assert margin > 3.0, tech.name

    def test_healthy_tx_above_threshold(self):
        for tech in TECHNOLOGIES.values():
            assert tech.nominal_tx_dbm > tech.thresholds.tx_min_dbm

    def test_healthy_rx_formula(self):
        assert TECH_40G_LR4.healthy_rx_dbm() == pytest.approx(
            TECH_40G_LR4.nominal_tx_dbm - TECH_40G_LR4.fiber_loss_db
        )
        assert TECH_10G_SR.healthy_rx_dbm() == pytest.approx(-4.0)
