"""Diagnosis-layer tests: cause attribution at the sensing boundary.

Covers the three scenario families the diagnosis refactor introduced:

- **congestion co-model** — queue loss correlated with utilization but
  carrying no FCS signature; the discrimination guarantee is that a
  congestion-only link is *never* disabled or ticketed;
- **cable miswiring (A3)** — counters attributed to the wrong physical
  link; the rotating probe cross-check flags disagreeing links and
  mitigates the true culprit;
- **flow voting (007)** — the per-flow voting localizer as a drop-in
  sensing pipeline behind the same diagnosis contract.

Plus the compatibility shim: with no diagnosis-bearing family active,
the pipeline must reduce byte-for-byte to the historical bare-loss-rate
path (``diagnosis is None``, identical fingerprints).
"""

import pytest

from repro.core.diagnosis import CAUSE_CONGESTION, CAUSE_CORRUPTION
from repro.simulation import ChaosSimulation, chaos_scenario

DURATION_DAYS = 2.0


@pytest.fixture(scope="module")
def scenario():
    return chaos_scenario(duration_days=DURATION_DAYS, seed=3)


@pytest.fixture(scope="module")
def baseline(scenario):
    return ChaosSimulation(scenario).kernel.run()


@pytest.fixture(scope="module")
def congestion_result(scenario):
    return ChaosSimulation(
        scenario, congestion_preset="hotspots"
    ).kernel.run()


class TestCompatibilityShim:
    def test_plain_run_has_no_diagnosis_ledger(self, baseline):
        """No co-model, no miswiring, telemetry sensing: the run result
        keeps its exact pre-diagnosis surface."""
        assert baseline.diagnosis is None

    def test_none_preset_byte_identical_to_baseline(self, scenario, baseline):
        """``congestion_preset="none"`` is the explicit spelling of "no
        co-model" and must not perturb a single byte."""
        none = ChaosSimulation(scenario, congestion_preset="none").kernel.run()
        assert none.diagnosis is None
        assert none.fingerprint() == baseline.fingerprint()

    def test_diagnosis_layer_reports_structured_verdicts(
        self, congestion_result
    ):
        row = congestion_result.diagnosis.row()
        assert row["diagnoses"] > 0
        assert set(row) >= {
            "diagnoses",
            "congestion_mitigations",
            "missed_corrupting",
        }


class TestCongestionDiscrimination:
    """Acceptance: congestion-only links are never disabled/ticketed."""

    def test_no_congestion_only_link_disabled(self, congestion_result):
        # congestion_mitigations counts exactly the forbidden event: a
        # truly-congested, non-corrupting link that the controller
        # disabled anyway.
        assert congestion_result.diagnosis.congestion_mitigations == 0
        assert congestion_result.chaos.false_disables == 0

    def test_corruption_still_fully_detected(self, congestion_result):
        """Adding queue loss must not mask real FCS corruption."""
        row = congestion_result.diagnosis.row()
        assert row["recall_corruption"] == 1.0
        assert congestion_result.chaos.detections > 0

    def test_congestion_verdicts_ledgered(self, congestion_result):
        confusion = congestion_result.diagnosis.confusion
        congestion_truth = confusion.get(CAUSE_CONGESTION, {})
        assert sum(congestion_truth.values()) > 0
        # Every congestion-truth verdict came back "congestion" (the
        # drops-only signature is unambiguous without telemetry faults).
        assert congestion_truth.get(CAUSE_CORRUPTION, 0) == 0

    def test_incast_overlap_keeps_the_guarantee(self, scenario):
        """The adversarial regime (hot pods everywhere) may force
        cause="both" verdicts but still never disables congestion-only
        links."""
        result = ChaosSimulation(
            scenario, congestion_preset="incast"
        ).kernel.run()
        assert result.diagnosis.congestion_mitigations == 0
        assert result.chaos.false_disables == 0
        assert result.invariants_ok()

    def test_same_seed_reproducible(self, scenario, congestion_result):
        again = ChaosSimulation(
            scenario, congestion_preset="hotspots"
        ).kernel.run()
        assert again.fingerprint() == congestion_result.fingerprint()
        assert again.diagnosis.row() == congestion_result.diagnosis.row()


class TestMiswiring:
    """A3 faults: the inventory map lies; probes catch the disagreement."""

    @pytest.fixture(scope="class")
    def result(self):
        scenario = chaos_scenario(duration_days=DURATION_DAYS, seed=0)
        return ChaosSimulation(scenario, miswire_pairs=12).kernel.run()

    def test_probe_cross_check_flags_swapped_cables(self, result):
        assert result.chaos.miswires_flagged == 1
        assert result.diagnosis.row()["recall_miswired"] > 0.0

    def test_data_plane_unaffected_by_wrong_map(self, result):
        """Miswiring corrupts *attribution*, not forwarding: the control
        loop still holds its invariants."""
        assert result.invariants_ok()

    def test_zero_pairs_is_the_identity(self, scenario, baseline):
        zero = ChaosSimulation(scenario, miswire_pairs=0).kernel.run()
        assert zero.diagnosis is None
        assert zero.fingerprint() == baseline.fingerprint()


class TestFlowVoting:
    """007-style localization through the same diagnosis contract."""

    @pytest.fixture(scope="class")
    def voting_result(self, scenario):
        return ChaosSimulation(scenario, sensing="voting").kernel.run()

    def test_voting_finds_corruption_with_perfect_precision(
        self, voting_result
    ):
        row = voting_result.diagnosis.row()
        assert row["diagnoses"] > 0
        assert row["precision_corruption"] == 1.0
        assert voting_result.chaos.detections > 0

    def test_voting_is_deterministic(self, scenario, voting_result):
        again = ChaosSimulation(scenario, sensing="voting").kernel.run()
        assert again.fingerprint() == voting_result.fingerprint()
        assert again.diagnosis.row() == voting_result.diagnosis.row()

    def test_coverage_misses_accounted(self, voting_result):
        """Links no sampled flow crosses are legitimate 007 blind spots;
        they must be *accounted*, not hidden."""
        assert (
            voting_result.diagnosis.missed_corrupting
            == voting_result.chaos.missed_mitigations
        )

    def test_voting_survives_miswired_inventory(self, scenario):
        """Voting blames paths, not counters, so a wrong wiring map
        cannot hide a corrupting link from it (the A3 failure mode that
        defeats counter attribution)."""
        result = ChaosSimulation(
            scenario, sensing="voting", miswire_pairs=12
        ).kernel.run()
        assert result.diagnosis.row()["recall_miswired"] == 1.0
        assert result.invariants_ok()

    def test_voting_never_disables_congestion_only_links(self, scenario):
        result = ChaosSimulation(
            scenario, sensing="voting", congestion_preset="hotspots"
        ).kernel.run()
        assert result.diagnosis.congestion_mitigations == 0
        assert result.chaos.false_disables == 0


class TestSweepPlumbing:
    """Diagnosis rows ride the sweep surface byte-identically."""

    def test_diagnosis_row_validates_against_sweep_schema(
        self, congestion_result
    ):
        import json

        from repro.obs.schema import validate_sweep_jsonl
        from repro.parallel import GridSpec, ParallelRunner, sweep_rows

        row = {
            "sensing": "telemetry",
            "congestion_preset": "hotspots",
            "miswire_pairs": 0,
        }
        row.update(congestion_result.diagnosis.row())
        grid = GridSpec(
            presets=["medium"],
            chaos_presets=["none"],
            capacities=[0.75],
            trace_seeds=[0],
            scale=0.06,
            duration_days=0.5,
        )
        rows = sweep_rows(ParallelRunner(jobs=1).run(grid.expand()),
                          timing=False)
        rows[1]["diagnosis"] = row
        assert validate_sweep_jsonl([json.dumps(r) for r in rows]) == []

    def test_sweep_rows_identical_across_worker_counts(self):
        from repro.parallel import GridSpec, ParallelRunner, sweep_rows

        grid = GridSpec(
            presets=["medium"],
            chaos_presets=["none"],
            capacities=[0.75],
            trace_seeds=[0, 1],
            scale=0.08,
            duration_days=1.0,
            events_per_10k=400.0,
            congestion_presets=["hotspots"],
            miswire_pairs=4,
            sensing="voting",
        )
        serial = ParallelRunner(jobs=1).run(grid.expand())
        pooled = ParallelRunner(jobs=2).run(grid.expand())
        assert sweep_rows(serial, timing=False) == sweep_rows(
            pooled, timing=False
        )
        rows = sweep_rows(serial, timing=False)
        assert all("diagnosis" in row for row in rows[1:])
