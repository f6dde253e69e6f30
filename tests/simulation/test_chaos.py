"""Closed-loop chaos simulation tests: acceptance criteria + seeded fuzz.

The fuzz test's seed comes from ``CHAOS_FUZZ_SEED`` (default 0) so CI can
sweep seeds across runs while any failure stays reproducible locally with
``CHAOS_FUZZ_SEED=<n> pytest tests/simulation/test_chaos.py -k fuzz``.
"""

import os
import random

import pytest

from repro.faults import TelemetryFaultConfig
from repro.simulation import (
    CHAOS_PRESETS,
    ChaosSimulation,
    chaos_preset,
    chaos_scenario,
)

DURATION_DAYS = 2.0


@pytest.fixture(scope="module")
def scenario():
    return chaos_scenario(duration_days=DURATION_DAYS, seed=3)


@pytest.fixture(scope="module")
def clean_result(scenario):
    return ChaosSimulation(scenario).kernel.run()


class TestAcceptance:
    def test_chaos_run_completes_with_invariants(self, scenario):
        """The headline acceptance run: medium-DCN chaos scenario under the
        harsh telemetry-fault preset completes end-to-end, never disables a
        quarantined link, and never violates the capacity constraint."""
        result = ChaosSimulation(
            scenario, chaos_preset("harsh", seed=11)
        ).kernel.run()
        assert result.chaos.polls == int(DURATION_DAYS * 96)
        assert result.chaos.quarantine_violations == 0
        assert result.chaos.capacity_violations == 0
        assert result.invariants_ok()
        # The harsh preset must actually exercise the degraded paths.
        assert result.chaos.missed_polls > 0
        assert result.chaos.degraded_samples > 0
        assert result.sanitizer_stats.missing > 0

    def test_zero_fault_config_bit_identical_to_fault_free(
        self, scenario, clean_result
    ):
        """A config with every rate at zero must reproduce the fault-free
        run's metric series bit-identically: the chaos apparatus itself
        cannot perturb the system it observes."""
        zeroed = ChaosSimulation(scenario, TelemetryFaultConfig()).kernel.run()
        assert zeroed.fingerprint() == clean_result.fingerprint()

    def test_same_seed_reproducible(self, scenario):
        config = chaos_preset("mild", seed=5)
        a = ChaosSimulation(scenario, config).kernel.run()
        b = ChaosSimulation(
            scenario, chaos_preset("mild", seed=5)
        ).kernel.run()
        assert a.fingerprint() == b.fingerprint()
        assert a.chaos.missed_polls == b.chaos.missed_polls


class TestCleanRun:
    def test_detects_and_mitigates(self, clean_result):
        """With clean telemetry the pipeline still finds real corruption."""
        assert clean_result.metrics.onsets > 0
        assert clean_result.chaos.detections > 0
        assert clean_result.metrics.disabled_on_onset > 0
        assert clean_result.invariants_ok()

    def test_no_false_positives_on_clean_telemetry(self, clean_result):
        assert clean_result.chaos.false_disables == 0
        assert clean_result.chaos.missed_polls == 0
        assert clean_result.chaos.degraded_samples == 0

    def test_detection_delay_tracked(self, clean_result):
        # Onsets land mid-interval and are first seen at the next poll, so
        # the mean detection delay is positive but under one interval.
        delay = clean_result.chaos.mean_detection_delay_polls()
        assert 0.0 < delay < 1.0
        assert clean_result.chaos.detections <= clean_result.metrics.onsets


class TestPresets:
    def test_preset_names(self):
        assert set(CHAOS_PRESETS) == {
            "none", "mild", "harsh", "reboot-storm", "flaky-collector"
        }
        assert CHAOS_PRESETS["none"] == TelemetryFaultConfig()

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown chaos_preset"):
            chaos_preset("apocalypse")

    def test_preset_reseed(self):
        assert chaos_preset("harsh", seed=7).seed == 7
        # Every other field is the preset's, and the preset is not shared.
        config = chaos_preset("harsh", seed=7)
        assert config is not CHAOS_PRESETS["harsh"]
        assert vars(config) == {**vars(CHAOS_PRESETS["harsh"]), "seed": 7}


class TestChaosFuzz:
    def test_seeded_fuzz_invariants(self, scenario):
        """CI chaos-fuzz: a randomly drawn fault mix (from the env seed)
        must never break the fail-safe or capacity invariants."""
        seed = int(os.environ.get("CHAOS_FUZZ_SEED", "0"))
        rng = random.Random(seed)
        config = TelemetryFaultConfig(
            seed=seed,
            missed_poll_rate=rng.uniform(0.0, 0.3),
            wrap_32bit=rng.random() < 0.5,
            reset_rate=rng.uniform(0.0, 0.02),
            freeze_rate=rng.uniform(0.0, 0.05),
            freeze_duration_polls=rng.randint(1, 5),
            duplicate_rate=rng.uniform(0.0, 0.05),
            delay_rate=rng.uniform(0.0, 0.05),
            optical_garbage_rate=rng.uniform(0.0, 0.1),
        )
        result = ChaosSimulation(scenario, config).kernel.run()
        assert result.invariants_ok(), (
            f"invariants violated for CHAOS_FUZZ_SEED={seed}: "
            f"quarantine={result.chaos.quarantine_violations} "
            f"capacity={result.chaos.capacity_violations}"
        )
        assert result.chaos.polls == int(DURATION_DAYS * 96)
