"""Tests for the five root-cause fault models and their Table-2 symptoms."""

import random

import pytest

from repro.core import RepairAction
from repro.faults import (
    ContaminationFault,
    DecayingTransmitterFault,
    FiberDamageFault,
    SharedComponentFault,
    TransceiverFault,
    observation_from_condition,
)
from repro.optics import TECH_40G_LR4

RATE = 1e-3
THRESH = TECH_40G_LR4.thresholds


@pytest.fixture
def rng():
    return random.Random(0)


class TestContamination:
    def test_typical_symptom_low_rx1_only(self, rng):
        fault = ContaminationFault(target_rate=RATE, reflective=False)
        cond = fault.condition(rng)
        assert THRESH.rx_is_low(cond.rx1_dbm)
        assert not THRESH.rx_is_low(cond.rx2_dbm)
        assert cond.tx1_dbm >= THRESH.tx_min_dbm
        assert cond.tx2_dbm >= THRESH.tx_min_dbm
        assert cond.fwd_rate == RATE
        assert cond.rev_rate == 0.0

    def test_reflective_variant_keeps_power_high(self, rng):
        fault = ContaminationFault(target_rate=RATE, reflective=True)
        cond = fault.condition(rng)
        assert not THRESH.rx_is_low(cond.rx1_dbm)
        assert cond.fwd_rate == RATE

    def test_fixed_by_cleaning_or_cable(self):
        fault = ContaminationFault(target_rate=RATE)
        assert fault.fixed_by(RepairAction.CLEAN_FIBER)
        assert fault.fixed_by(RepairAction.REPLACE_CABLE)
        assert not fault.fixed_by(RepairAction.RESEAT_TRANSCEIVER)

    def test_sample_mixes_reflective(self):
        rng = random.Random(1)
        variants = {
            ContaminationFault.sample(RATE, rng).reflective
            for _ in range(100)
        }
        assert variants == {True, False}


class TestFiberDamage:
    def test_bidirectional_symptom(self, rng):
        fault = FiberDamageFault(target_rate=RATE, bidirectional=True)
        cond = fault.condition(rng)
        assert THRESH.rx_is_low(cond.rx1_dbm)
        assert THRESH.rx_is_low(cond.rx2_dbm)
        assert min(cond.fwd_rate, cond.rev_rate) >= 1e-8

    def test_unidirectional_still_shows_low_power_both_sides(self, rng):
        fault = FiberDamageFault(target_rate=RATE, bidirectional=False)
        cond = fault.condition(rng)
        assert THRESH.rx_is_low(cond.rx1_dbm)
        assert THRESH.rx_is_low(cond.rx2_dbm)  # power degraded both ways
        assert cond.rev_rate == 0.0

    def test_only_cable_replacement_fixes(self):
        fault = FiberDamageFault(target_rate=RATE)
        assert fault.fixed_by(RepairAction.REPLACE_CABLE)
        assert not fault.fixed_by(RepairAction.CLEAN_FIBER)
        assert not fault.fixed_by(RepairAction.REPLACE_TRANSCEIVER)


class TestDecayingTransmitter:
    def test_symptom_low_tx2_and_rx1(self, rng):
        fault = DecayingTransmitterFault(target_rate=RATE)
        cond = fault.condition(rng)
        assert cond.tx2_dbm <= THRESH.tx_min_dbm
        assert THRESH.rx_is_low(cond.rx1_dbm)
        # Self-consistency: rx1 = tx2 - fiber loss.
        assert cond.rx1_dbm == pytest.approx(
            cond.tx2_dbm - TECH_40G_LR4.fiber_loss_db
        )

    def test_fixed_by_remote_transceiver_only(self):
        fault = DecayingTransmitterFault(target_rate=RATE)
        assert fault.fixed_by(RepairAction.REPLACE_TRANSCEIVER_REMOTE)
        assert not fault.fixed_by(RepairAction.REPLACE_TRANSCEIVER)
        assert not fault.fixed_by(RepairAction.CLEAN_FIBER)


class TestTransceiverFault:
    def test_symptom_healthy_power_but_corrupting(self, rng):
        fault = TransceiverFault(target_rate=RATE, loose=False)
        cond = fault.condition(rng)
        assert not THRESH.rx_is_low(cond.rx1_dbm)
        assert not THRESH.rx_is_low(cond.rx2_dbm)
        assert cond.tx2_dbm >= THRESH.tx_min_dbm
        assert cond.fwd_rate == RATE

    def test_loose_fixed_by_reseat_or_replace(self):
        fault = TransceiverFault(target_rate=RATE, loose=True)
        assert fault.fixed_by(RepairAction.RESEAT_TRANSCEIVER)
        assert fault.fixed_by(RepairAction.REPLACE_TRANSCEIVER)

    def test_bad_needs_replacement(self):
        fault = TransceiverFault(target_rate=RATE, loose=False)
        assert not fault.fixed_by(RepairAction.RESEAT_TRANSCEIVER)
        assert fault.fixed_by(RepairAction.REPLACE_TRANSCEIVER)


class TestSharedComponent:
    def test_group_conditions_similar_rates(self, rng):
        fault = SharedComponentFault(target_rate=RATE, group_size=4)
        conditions = fault.group_conditions(rng)
        assert len(conditions) == 4
        for cond in conditions:
            assert cond.co_located
            assert 0.5 * RATE <= cond.fwd_rate <= 2.0 * RATE
            assert not THRESH.rx_is_low(cond.rx1_dbm)

    def test_fixed_by_shared_component_replacement(self):
        fault = SharedComponentFault(target_rate=RATE)
        assert fault.fixed_by(RepairAction.REPLACE_SHARED_COMPONENT)
        assert not fault.fixed_by(RepairAction.REPLACE_CABLE)


class TestObservationBridge:
    def test_observation_carries_condition(self, rng):
        fault = FiberDamageFault(target_rate=RATE, bidirectional=True)
        cond = fault.condition(rng)
        obs = observation_from_condition(("a", "b"), cond, tech=TECH_40G_LR4)
        assert obs.opposite_corrupting
        assert obs.rx1_dbm == cond.rx1_dbm
        assert obs.tech is TECH_40G_LR4

    def test_neighbor_flag_defaults_to_co_located(self, rng):
        fault = SharedComponentFault(target_rate=RATE, group_size=2)
        cond = fault.group_conditions(rng)[0]
        obs = observation_from_condition(("a", "b"), cond)
        assert obs.neighbor_corrupting == cond.co_located
