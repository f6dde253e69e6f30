"""Tests for trace generation and the study dataset."""

import numpy as np
import pytest

from repro.faults import RootCause
from repro.workloads import (
    CorruptionTrace,
    burst_trace,
    deduplicate_active,
    generate_dcn_study,
    generate_study,
    generate_trace,
    study_profiles,
)
from repro.workloads.dcn_profiles import DCNProfile


@pytest.fixture(scope="module")
def topo():
    return DCNProfile("trace-test", 4, 8, 4, 32).build()


class TestTraceGeneration:
    def test_deterministic(self, topo):
        a = generate_trace(topo, 30, seed=1)
        b = generate_trace(topo, 30, seed=1)
        assert [e.time_s for e in a.events] == [e.time_s for e in b.events]

    def test_volume_scales_with_size_and_rate(self, topo):
        sparse = generate_trace(
            topo, 30, seed=2, events_per_10k_links_per_day=5
        )
        dense = generate_trace(
            topo, 30, seed=2, events_per_10k_links_per_day=50
        )
        assert len(dense) > 5 * len(sparse)

    def test_trace_validates(self, topo):
        trace = generate_trace(topo, 30, seed=3)
        trace.validate()  # no exception

    def test_cause_mix_override(self, topo):
        trace = generate_trace(
            topo,
            30,
            seed=5,
            events_per_10k_links_per_day=40,
            cause_mix={RootCause.CONNECTOR_CONTAMINATION: 1.0},
        )
        assert all(
            e.fault.cause is RootCause.CONNECTOR_CONTAMINATION
            for e in trace.events
        )

    def test_burst_trace_spacing(self, topo):
        trace = burst_trace(topo, num_events=10, spacing_s=100.0)
        assert len(trace) == 10
        times = [e.time_s for e in trace.events]
        assert times == [i * 100.0 for i in range(10)]

    def test_deduplicate_active(self, topo):
        trace = generate_trace(topo, 90, seed=6, events_per_10k_links_per_day=80)
        deduped = deduplicate_active(trace)
        seen = set()
        for event in deduped.events:
            for lid in event.link_ids:
                assert lid not in seen
                seen.add(lid)
        assert len(deduped) <= len(trace)

    def test_validation_catches_disorder(self, topo):
        trace = generate_trace(topo, 10, seed=7, events_per_10k_links_per_day=40)
        if len(trace.events) >= 2:
            trace.events[0], trace.events[-1] = trace.events[-1], trace.events[0]
            with pytest.raises(ValueError, match="order"):
                trace.validate()

    def test_negative_duration_rejected(self, topo):
        with pytest.raises(ValueError):
            generate_trace(topo, -1)


class TestStudyDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_study(seed=0, num_dcns=4, days=3, scale=0.3)

    def test_dcn_count(self, dataset):
        assert len(dataset.dcns) == 4

    def test_records_have_both_kinds(self, dataset):
        assert dataset.all_records("corruption")
        assert dataset.all_records("congestion")

    def test_series_lengths_uniform(self, dataset):
        lengths = {len(r.loss) for r in dataset.all_records()}
        assert lengths == {3 * 96}

    def test_corruption_series_bounded(self, dataset):
        for record in dataset.all_records("corruption"):
            assert np.all(record.loss >= 0.0)
            assert np.all(record.loss <= 0.3)

    def test_utilization_bounded(self, dataset):
        for record in dataset.all_records():
            assert np.all(record.utilization >= 0.0)
            assert np.all(record.utilization <= 1.0)

    def test_congestion_outnumbers_corruption(self, dataset):
        """§3: corrupting links are a few percent of congested links."""
        corr = len(dataset.all_records("corruption"))
        cong = len(dataset.all_records("congestion"))
        assert cong > 3 * corr

    def test_deterministic(self):
        a = generate_dcn_study(study_profiles()[0], seed=9, days=2, scale=0.12)
        b = generate_dcn_study(study_profiles()[0], seed=9, days=2, scale=0.12)
        assert len(a.records) == len(b.records)
        assert np.array_equal(a.records[0].loss, b.records[0].loss)

    def test_stage_map_populated(self, dataset):
        for dcn in dataset.dcns:
            assert dcn.stage_of_switch
            stages = set(dcn.stage_of_switch.values())
            assert stages == {0, 1, 2}
