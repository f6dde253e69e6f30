"""ControllerService: sharded control, checkpoint/restore determinism.

The determinism contract is the tentpole: for ANY checkpoint boundary k,
kill-and-resume produces byte-identical final report lines to the
uninterrupted run.  These tests pin it in-process at every boundary;
the CI checkpoint-determinism job pins it cross-process.
"""

import json

import numpy as np
import pytest

from repro.obs import validate_service_report_jsonl
from repro.obs.schema import (
    SERVICE_REPORT_FORMAT as SCHEMA_FORMAT,
    SERVICE_REPORT_FORMAT_VERSION as SCHEMA_VERSION,
)
from repro.parallel.aggregate import series_digest
from repro.service import (
    SERVICE_REPORT_FORMAT,
    SERVICE_REPORT_FORMAT_VERSION,
    ControllerService,
    ServiceConfig,
)
from repro.simulation.chaos import ChaosSimulation, chaos_preset
from repro.simulation.scenarios import chaos_scenario

#: Small but non-trivial: ~200 links, 3 shards, runs in ~0.2 s.
FAST = dict(
    days=0.5, scale=0.06, seed=7, fault_seed=7, chaos_preset="mild"
)
#: 4 simulated hours -> 3 boundaries over the half-day horizon.
EVERY_S = 4 * 3600.0


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted, checkpoint-free run; report lines + result."""
    service = ControllerService(ServiceConfig(**FAST))
    status = service.run()
    assert status.completed
    return service.report_lines(status.result), status.result


class TestConfig:
    def test_defaults_validate(self):
        ServiceConfig().validate()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(days=0.0),
            dict(scale=-1.0),
            dict(capacity=1.5),
            dict(chaos_preset="tornado"),
            dict(poll_interval_s=0.0),
            dict(queue_capacity=0),
            dict(queue_policy="block"),
            dict(batch_size=0),
            dict(drain_budget=0),
            dict(audit_maxlen=0),
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**bad).validate()

    def test_one_rule_one_message(self):
        """A preset name and the queue drain settings are each checked in
        one place: the config reports that place's text verbatim."""
        from repro.registry import require
        from repro.service.ingest import IngestingPoller

        def message(check):
            with pytest.raises(ValueError) as caught:
                check()
            return str(caught.value)

        unknown = message(lambda: chaos_preset("tornado"))
        assert unknown == message(lambda: require("chaos_preset", "tornado"))
        assert unknown == message(
            ServiceConfig(chaos_preset="tornado").validate
        )
        for bad in (dict(batch_size=0), dict(drain_budget=0),
                    dict(batch_size=0, drain_budget=0)):
            queue_kwargs = {"batch_size": 64, "drain_budget": None, **bad}
            assert message(ServiceConfig(**bad).validate) == message(
                lambda: IngestingPoller(queue=None, **queue_kwargs)
            )

    @pytest.mark.parametrize(
        "bad",
        [
            dict(days=float("nan")),
            dict(days=float("inf")),
            dict(scale=float("nan")),
            dict(scale=float("inf")),
            dict(events_per_10k_links_per_day=float("nan")),
            dict(events_per_10k_links_per_day=float("inf")),
            dict(poll_interval_s=float("nan")),
            dict(poll_interval_s=float("inf")),
        ],
        ids=lambda bad: "=".join(map(str, *bad.items())),
    )
    def test_non_finite_values_rejected(self, bad):
        """A NaN or infinite run number would run without end or
        without events; the config refuses it before any run starts."""
        with pytest.raises(ValueError, match="must be"):
            ServiceConfig(**bad).validate()

    @pytest.mark.parametrize(
        "every_s,max_boundaries",
        [
            (float("nan"), None),
            (float("inf"), None),
            (0.0, None),
            (-3600.0, None),
            (3600.0, 0),
            (3600.0, -1),
            (None, 0),
        ],
    )
    def test_checkpoint_spacing_and_stop_boundary_rules(
        self, every_s, max_boundaries
    ):
        """A NaN spacing never advances the clock (``run`` would write
        checkpoints without end); a stop boundary below 1 would stop
        after the first one, as 1 does."""
        with pytest.raises(ValueError, match="must be"):
            ControllerService.check_checkpoint_every(every_s, max_boundaries)
        with pytest.raises(ValueError, match="must be"):
            ControllerService(ServiceConfig(**FAST)).run(
                checkpoint_every_s=every_s if every_s is not None else 3600.0,
                checkpoint_dir=None,
                max_boundaries=max_boundaries,
            )

    def test_checkpoint_spacing_and_stop_boundary_accepted(self):
        ControllerService.check_checkpoint_every(None)
        ControllerService.check_checkpoint_every(3600.0, 1)

    def test_problems_are_aggregated(self):
        with pytest.raises(ValueError, match="days.*;.*queue_capacity"):
            ServiceConfig(days=0.0, queue_capacity=0).validate()

    def test_schema_literals_pinned_against_service(self):
        assert SCHEMA_FORMAT == SERVICE_REPORT_FORMAT
        assert SCHEMA_VERSION == SERVICE_REPORT_FORMAT_VERSION


class TestSharding:
    def test_every_link_routes_to_its_owning_controller(self):
        service = ControllerService(ServiceConfig(**FAST))
        pipeline = service.pipeline
        assert len(pipeline.shards) > 1  # genuinely sharded
        assert len(pipeline.controllers) == len(pipeline.shards)
        for shard in pipeline.shards:
            for lid in shard.links:
                assert (
                    pipeline._controller_for(lid)
                    is pipeline.controllers[shard.index]
                )

    def test_shards_partition_the_link_set(self):
        service = ControllerService(ServiceConfig(**FAST))
        all_links = set(service.kernel.topo.link_ids())
        shard_links = [s.links for s in service.pipeline.shards]
        union = set().union(*shard_links)
        assert union == all_links
        assert sum(len(s) for s in shard_links) == len(all_links)

    def test_controller_scopes_match_shards(self):
        service = ControllerService(ServiceConfig(**FAST))
        pipeline = service.pipeline
        for shard, controller in zip(
            pipeline.shards, pipeline.controllers
        ):
            assert controller.link_scope == shard.links


class TestReport:
    def test_report_validates_and_carries_the_run(self, baseline):
        lines, result = baseline
        assert validate_service_report_jsonl(lines) == []
        header = json.loads(lines[0])
        assert header["format"] == SERVICE_REPORT_FORMAT
        assert header["config"]["chaos_preset"] == "mild"
        row = json.loads(lines[1])
        assert row["fingerprint"] == series_digest(result)
        assert row["invariants_ok"] is True
        # Shard rows sum to the merged controller counters.
        shard_rows = [json.loads(line) for line in lines[2:]]
        assert len(shard_rows) == header["shards"]
        for counter, total in row["controller"].items():
            assert total == sum(r["log"][counter] for r in shard_rows)

    def test_queue_accounting_covers_every_push(self, baseline):
        lines, _result = baseline
        q = json.loads(lines[1])["queue"]
        assert q["accounting_ok"] is True
        assert q["offered"] == q["accepted"] + q["deferred"] + q["dropped"]
        assert q["offered"] > 0
        assert q["pending"] == 0  # ample queue fully drains

    def test_chaos_stream_never_violates_fail_safe_invariants(
        self, baseline
    ):
        _lines, result = baseline
        assert result.invariants_ok()
        assert result.chaos.quarantine_violations == 0


class TestParity:
    @pytest.mark.parametrize(
        "layers",
        [{}, {"congestion_preset": "hotspots", "miswire_pairs": 2}],
        ids=["off", "on"],
    )
    def test_sharded_service_matches_single_controller_chaos_run(
        self, layers
    ):
        """With an ample queue the sharded, queue-fed service is
        decision-for-decision identical to the monolithic chaos run, with
        the diagnosis layers (congestion co-model, miswiring) on too."""
        status = ControllerService(ServiceConfig(**FAST, **layers)).run()
        assert status.completed
        service_result = status.result
        scenario = chaos_scenario(
            scale=FAST["scale"],
            duration_days=FAST["days"],
            events_per_10k_links_per_day=400.0,
            capacity=0.75,
            seed=FAST["seed"],
        )
        sim = ChaosSimulation(
            scenario,
            fault_config=chaos_preset(
                FAST["chaos_preset"], seed=FAST["fault_seed"]
            ),
            seed=FAST["seed"],
            **layers,
        )
        mono = sim.kernel.run()
        assert series_digest(mono) == series_digest(service_result)
        assert mono.penalty_integral == service_result.penalty_integral
        if layers:
            # Cause attribution sees the swapped cables the series cannot.
            assert mono.diagnosis.row() == service_result.diagnosis.row()


class TestCheckpointDeterminism:
    def test_checkpointing_does_not_perturb_the_run(
        self, baseline, tmp_path
    ):
        lines, _result = baseline
        service = ControllerService(ServiceConfig(**FAST))
        status = service.run(
            checkpoint_every_s=EVERY_S, checkpoint_dir=tmp_path / "ck"
        )
        assert status.completed
        assert len(status.checkpoints) >= 2
        assert service.report_lines(status.result) == lines

    def test_kill_and_resume_at_every_boundary(self, baseline, tmp_path):
        lines, _result = baseline
        probe = ControllerService(ServiceConfig(**FAST)).run(
            checkpoint_every_s=EVERY_S, checkpoint_dir=tmp_path / "probe"
        )
        boundaries = len(probe.checkpoints)
        assert boundaries >= 2
        for k in range(1, boundaries + 1):
            workdir = tmp_path / f"kill-{k}"
            service = ControllerService(ServiceConfig(**FAST))
            status = service.run(
                checkpoint_every_s=EVERY_S,
                checkpoint_dir=workdir,
                max_boundaries=k,
            )
            if status.completed:
                # The horizon drained before boundary k: nothing to kill.
                resumed, final = service, status
            else:
                assert status.stop_reason == "max-boundaries"
                assert status.boundary_index == k
                header, resumed = ControllerService.restore(
                    status.checkpoints[-1]
                )
                assert header["boundary_index"] == k
                assert resumed.boundary_index == k
                final = resumed.run(
                    checkpoint_every_s=EVERY_S,
                    checkpoint_dir=workdir,
                )
                assert final.completed
            assert resumed.report_lines(final.result) == lines, (
                f"kill-and-resume at boundary {k} diverged"
            )

    def test_should_stop_drains_with_a_final_checkpoint(self, tmp_path):
        service = ControllerService(ServiceConfig(**FAST))
        status = service.run(
            checkpoint_every_s=EVERY_S,
            checkpoint_dir=tmp_path,
            should_stop=lambda: True,  # SIGTERM on the first boundary
        )
        assert not status.completed
        assert status.stop_reason == "stop-requested"
        assert status.result is None
        assert len(status.checkpoints) == 1  # the final flush exists

    def test_checkpoint_requires_directory(self):
        service = ControllerService(ServiceConfig(**FAST))
        with pytest.raises(ValueError, match="checkpoint_dir"):
            service.run(checkpoint_every_s=EVERY_S)
        with pytest.raises(ValueError, match="> 0"):
            service.run(checkpoint_every_s=0.0, checkpoint_dir="/tmp/x")

    def test_restore_rejects_foreign_payload(self, tmp_path):
        from repro.service.checkpoint import write_checkpoint

        path = tmp_path / "foreign.ckpt"
        write_checkpoint(
            path, {"not": "a service"}, sim_time_s=0.0,
            boundary_index=0, config={},
        )
        with pytest.raises(ValueError, match="payload"):
            ControllerService.restore(path)


@pytest.fixture(scope="module")
def stopped(tmp_path_factory):
    """A service stopped at its first boundary and that checkpoint."""
    service = ControllerService(ServiceConfig(**FAST))
    status = service.run(
        checkpoint_every_s=EVERY_S,
        checkpoint_dir=tmp_path_factory.mktemp("ck"),
        should_stop=lambda: True,
    )
    return service, status.checkpoints[-1]


class TestRestoredState:
    """What a restore gives back: writable columns that are views of its
    own file buffer, and a direction table rebuilt on first use."""

    RING = ("_length", "_time", "_corruption", "_congestion",
            "_utilization", "_quality")

    def test_store_ring_is_writable(self, stopped):
        _, path = stopped
        store = ControllerService.restore(path)[1].pipeline.store
        for name in self.RING:
            assert getattr(store, name).flags.writeable, name

    def test_two_restores_share_no_memory(self, stopped):
        _, path = stopped
        one = ControllerService.restore(path)[1].pipeline.store
        two = ControllerService.restore(path)[1].pipeline.store
        for name in self.RING:
            first, second = getattr(one, name), getattr(two, name)
            np.testing.assert_array_equal(first, second)
            assert not np.shares_memory(first, second), name
        # A view of the file buffer, not a copy of it.
        assert isinstance(one._time.base.base, memoryview)

    def test_direction_table_rebuilt_on_first_use(self, stopped):
        original, path = stopped
        poller = ControllerService.restore(path)[1].pipeline.poller
        assert poller._table is None and poller._polled is None
        table, want = poller.directions, original.pipeline.poller.directions
        assert table.direction_ids == want.direction_ids
        assert [link.link_id for link in table.links] == [
            link.link_id for link in want.links
        ]
        for name in ("capacity_pkts_per_s", "enabled"):
            np.testing.assert_array_equal(
                getattr(table, name), getattr(want, name), err_msg=name
            )
        assert not table.enabled.all()  # a disabled link is in the mask


class TestBackpressureRuns:
    def test_defer_under_load_stays_accounted(self):
        config = ServiceConfig(
            **FAST, queue_capacity=2, batch_size=16, drain_budget=1
        )
        service = ControllerService(config)
        status = service.run()
        assert status.completed
        lines = service.report_lines(status.result)
        assert validate_service_report_jsonl(lines) == []
        q = json.loads(lines[1])["queue"]
        assert q["deferred"] > 0  # backpressure actually engaged
        assert q["dropped"] == 0
        assert q["accounting_ok"] is True
        assert q["offered"] == q["accepted"] + q["deferred"] + q["dropped"]
        assert status.result.invariants_ok()

    def test_drop_under_load_counts_every_loss(self):
        config = ServiceConfig(
            **FAST, queue_capacity=1, queue_policy="drop", batch_size=16
        )
        service = ControllerService(config)
        status = service.run()
        assert status.completed
        lines = service.report_lines(status.result)
        assert validate_service_report_jsonl(lines) == []
        q = json.loads(lines[1])["queue"]
        assert q["dropped"] > 0
        assert q["backpressure_losses"] > 0
        assert q["accounting_ok"] is True
        # Losses surface as missed polls, never as silent gaps.
        assert (
            service.pipeline.poller.missed_polls
            >= q["backpressure_losses"]
        )
        assert status.result.invariants_ok()
