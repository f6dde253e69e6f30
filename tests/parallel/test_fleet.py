"""The §2 fleet campaign: composition, determinism, roll-up, schema.

The fleet is one job per study DCN with heterogeneous builds (mixed
Clos/fat-tree, breakout fractions, Table-1-spread fault intensities);
its JSONL is the standard sweep format plus one ``type="fleet"`` roll-up
row.  The determinism contract — byte-identical output across worker
counts under ``--no-timing`` — is the CI gate.
"""

import json

import pytest

from repro.parallel import worker_cache
from repro.parallel.fleet import (
    FleetDCN,
    fleet_dcns,
    fleet_rollup_row,
    fleet_rows,
    fleet_specs,
    fleet_summary_lines,
    run_fleet,
    write_fleet_jsonl,
)
from repro.obs.schema import validate_sweep_jsonl
from repro.workloads.dcn_profiles import study_profiles

SMALL = dict(scale=0.08, duration_days=20.0)


def small_fleet(count=3):
    return fleet_dcns(count)


@pytest.fixture(autouse=True)
def _cold_cache():
    worker_cache().clear()
    yield
    worker_cache().clear()


class TestFleetComposition:
    def test_fifteen_heterogeneous_dcns(self):
        dcns = fleet_dcns()
        assert len(dcns) == 15
        assert [d.name for d in dcns] == [
            p.name for p in study_profiles()
        ]
        kinds = {d.topo_kind for d in dcns}
        assert kinds == {"clos", "fattree"}
        assert any(d.breakout_fraction > 0 for d in dcns)
        # Fault intensities vary across the population (§2).
        assert len({d.events_per_10k for d in dcns}) > 1

    def test_design_footprint_matches_paper(self):
        """The full fleet lands near the paper's 350K monitored links."""
        total = sum(d.design_links for d in fleet_dcns())
        assert 300_000 <= total <= 420_000

    def test_sizes_span_the_study_range(self):
        links = [d.design_links for d in fleet_dcns()]
        assert min(links) < 8_000
        assert max(links) > 40_000

    def test_fleet_size_bounds(self):
        with pytest.raises(ValueError, match="fleet size"):
            fleet_dcns(0)
        with pytest.raises(ValueError, match="fleet size"):
            fleet_dcns(16)

    def test_specs_are_valid_and_deterministic(self):
        dcns = fleet_dcns()
        specs = fleet_specs(dcns, **SMALL)
        for spec in specs:
            spec.validate()
        assert [s.profile_shape[0] for s in specs] == [
            d.name for d in dcns
        ]
        assert specs == fleet_specs(dcns, **SMALL)
        # Seeds are spec-derived, hence reproducible by value.
        assert [s.seed_used() for s in specs] == [
            s.seed_used() for s in fleet_specs(dcns, **SMALL)
        ]

    def test_specs_carry_the_heterogeneity(self):
        specs = fleet_specs(fleet_dcns(), **SMALL)
        assert {s.topo_kind for s in specs} == {"clos", "fattree"}
        assert any(s.breakout_fraction > 0 for s in specs)


class TestFleetDeterminism:
    def test_rows_byte_identical_across_jobs(self):
        dcns = small_fleet()

        def canonical(jobs):
            sweep, _ = run_fleet(dcns=dcns, jobs=jobs, **SMALL)
            assert not sweep.failures()
            return [
                json.dumps(row, sort_keys=True, separators=(",", ":"))
                for row in fleet_rows(sweep, dcns, timing=False)
            ]

        assert canonical(1) == canonical(2)

    def test_result_rows_tagged_with_dcn(self):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        rows = fleet_rows(sweep, dcns, timing=False)
        assert [r["dcn"] for r in rows[1:-1]] == [d.name for d in dcns]


class TestRollup:
    def test_rollup_aggregates_match_records(self):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        rollup = fleet_rollup_row(sweep, dcns)
        assert rollup["type"] == "fleet"
        assert rollup["dcns"] == len(dcns)
        assert rollup["ok"] == len(dcns)
        assert rollup["failed"] == 0
        assert rollup["links_design_total"] == sum(
            d.design_links for d in dcns
        )
        assert rollup["penalty_integral_total"] == sum(
            r.result.penalty_integral for r in sweep.records
        )
        assert rollup["onsets_total"] == sum(
            r.result.metrics.onsets for r in sweep.records
        )
        health = rollup["health"]
        assert (
            health["healthy_dcns"]
            + health["degraded_dcns"]
            + health["failed_dcns"]
        ) == len(dcns)
        worst = min(
            r.result.metrics.worst_tor_fraction.min_value()
            for r in sweep.records
        )
        assert health["worst_tor_fraction_min"] == worst

    def test_per_dcn_health_columns(self):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        for column, record in zip(
            fleet_rollup_row(sweep, dcns)["per_dcn"], sweep.records
        ):
            assert column["status"] == "ok"
            assert column["healthy"] == (
                column["worst_tor_fraction_min"] >= record.spec.capacity
            )
            assert (
                column["penalty_integral"]
                == record.result.penalty_integral
            )

    def test_failed_dcn_marked_unhealthy(self):
        from repro.parallel.runner import SweepResult
        from repro.parallel.worker import JobRecord

        dcns = small_fleet(2)
        specs = fleet_specs(dcns, **SMALL)
        records = [
            JobRecord(
                spec=spec,
                status="failed",
                error={"kind": "exception", "message": "boom"},
            )
            for spec in specs
        ]
        sweep = SweepResult(specs=specs, records=records, jobs=1)
        rollup = fleet_rollup_row(sweep, dcns)
        assert rollup["ok"] == 0
        assert rollup["health"]["failed_dcns"] == 2
        assert rollup["health"]["worst_dcn"] is None
        assert all(not c["healthy"] for c in rollup["per_dcn"])

    def test_rollup_rejects_mismatched_fleet(self):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        with pytest.raises(ValueError, match="records"):
            fleet_rollup_row(sweep, dcns[:-1])


class TestFleetJsonl:
    def test_file_passes_sweep_schema(self, tmp_path):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        path = write_fleet_jsonl(
            tmp_path / "fleet.jsonl", sweep, dcns, timing=False
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_sweep_jsonl(lines) == []
        assert json.loads(lines[-1])["type"] == "fleet"

    def test_schema_rejects_malformed_fleet_row(self, tmp_path):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        path = write_fleet_jsonl(
            tmp_path / "fleet.jsonl", sweep, dcns, timing=False
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        bad = json.loads(lines[-1])
        del bad["per_dcn"]
        lines[-1] = json.dumps(bad, sort_keys=True, separators=(",", ":"))
        assert any(
            "per_dcn" in problem for problem in validate_sweep_jsonl(lines)
        )

    def test_summary_lines_cover_every_dcn(self):
        dcns = small_fleet()
        sweep, _ = run_fleet(dcns=dcns, jobs=1, **SMALL)
        text = "\n".join(fleet_summary_lines(sweep, dcns))
        for dcn in dcns:
            assert dcn.name in text
        assert "fleet health:" in text


class TestTopoKindAxis:
    """The new JobSpec axes feed the single scenario build path."""

    def test_fattree_spec_builds_a_fattree(self):
        spec = fleet_specs(
            [FleetDCN(profile=study_profiles()[2], topo_kind="fattree")],
            **SMALL,
        )[0]
        scenario, _ = worker_cache().get(spec)
        topo = scenario.topo_factory()
        assert topo.num_stages == 3
        assert topo.name == "dcn03"

    def test_breakout_spec_annotates_links(self):
        spec = fleet_specs(
            [
                FleetDCN(
                    profile=study_profiles()[0], breakout_fraction=0.5
                )
            ],
            **SMALL,
        )[0]
        scenario, _ = worker_cache().get(spec)
        topo = scenario.topo_factory()
        grouped = sum(
            1
            for lid in topo.link_ids()
            if topo.link(lid).breakout_group is not None
        )
        assert grouped > 0

    def test_default_spec_seed_unchanged_by_new_axes(self):
        """topo_kind/breakout_fraction are omitted at their defaults, so
        historical specs keep their canonical JSON and derived seeds."""
        from repro.parallel import JobSpec

        spec = JobSpec()
        assert "topo_kind" not in spec.to_dict()
        assert "breakout_fraction" not in spec.to_dict()
        round_tripped = JobSpec.from_dict(spec.to_dict())
        assert round_tripped == spec

    def test_new_axes_change_scenario_key_and_seed(self):
        from repro.parallel import JobSpec

        base = JobSpec()
        fattree = JobSpec(topo_kind="fattree")
        breakout = JobSpec(breakout_fraction=0.25)
        assert base.scenario_key() != fattree.scenario_key()
        assert base.scenario_key() != breakout.scenario_key()
        assert len({base.job_seed(), fattree.job_seed(), breakout.job_seed()}) == 3

    def test_bad_axes_rejected(self):
        from repro.parallel import JobSpec

        with pytest.raises(ValueError, match="topo_kind"):
            JobSpec(topo_kind="torus").validate()
        with pytest.raises(ValueError, match="breakout_fraction"):
            JobSpec(breakout_fraction=1.5).validate()
