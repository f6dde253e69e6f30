"""The continuous-operation controller service.

:class:`ControllerService` runs the event-driven kernel the way a real
deployment would: telemetry arrives as batched pushes through a bounded
ingestion queue with explicit backpressure, per-segment controller
shards make mitigation decisions independently under the fail-safe
rules, and the whole object graph checkpoints at fixed simulated-time
boundaries so the process can be killed and resumed with **byte-
identical** final reports.

Determinism contract (pinned by tests/service and the CI
checkpoint-determinism job): for any checkpoint boundary k, running to
completion in one process produces the same report bytes as running to
boundary k, restoring the checkpoint in a fresh process, and draining
the rest of the run.  The report therefore contains only
simulation-derived values — no wall-clock timings, no checkpoint
digests (pickle bytes are not canonical across processes), no resume
provenance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro._version import __version__
from repro.core.controller import ControllerLog, CorrOptController
from repro.core.resilience import BreakerState
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel.aggregate import series_digest
from repro.parallel.spec import JobSpec
from repro.service.checkpoint import read_checkpoint
from repro.service.checkpoint import write_checkpoint as _write_checkpoint
from repro.service.ingest import IngestingPoller, drain_problems
from repro.service.queues import POLICIES, BoundedWorkQueue
from repro.service.shards import ShardRouter, build_shards
from repro.simulation.chaos import ChaosSimulation
from repro.simulation.kernel import MAX_DECISIONS, TelemetrySensing
from repro.simulation.results import RunResult
from repro.simulation.scenarios import chaos_scenario
from repro.topology.elements import LinkId

SERVICE_REPORT_FORMAT = "repro-service-report"
#: Bumped when the report layout changes incompatibly.
SERVICE_REPORT_FORMAT_VERSION = 1

#: Exact aggregate counters on :class:`ControllerLog`, summed per shard.
_LOG_COUNTERS = (
    "reports",
    "disabled_by_fast_checker",
    "kept_by_capacity",
    "activations",
    "disabled_by_optimizer",
    "fail_safe_keeps",
    "debounced",
    "optimizer_failures",
    "optimizer_fallbacks",
    "total_decisions",
)


def _log_counters(log: ControllerLog) -> Dict[str, int]:
    return {name: getattr(log, name) for name in _LOG_COUNTERS}


# ---------------------------------------------------------------------- #
# Configuration
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that defines one service run, by value.

    The config is echoed into every checkpoint header and into the final
    report header, so a resumed run can prove it continues the same
    campaign.  All fields are JSON-serializable.
    """

    days: float = 2.0
    scale: float = 0.12
    capacity: float = 0.75
    seed: int = 0
    #: Seed for the telemetry fault transport (independent of ``seed``
    #: so chaos injection never perturbs repair outcomes).
    fault_seed: int = 0
    #: Named fault preset from :data:`~repro.simulation.chaos.
    #: CHAOS_PRESETS`, or ``None`` for clean monitoring.
    chaos_preset: Optional[str] = None
    #: Named congestion co-model preset from :data:`~repro.congestion.
    #: presets.CONGESTION_PRESETS`, or ``None``/``"none"`` for loss that
    #: is corruption-only.  Activates the diagnosis layer.
    congestion_preset: Optional[str] = None
    #: Cable pairs whose inventory map is swapped (A3 miswiring);
    #: 0 keeps the wiring map correct.
    miswire_pairs: int = 0
    events_per_10k_links_per_day: float = 400.0
    poll_interval_s: float = 900.0
    repair_accuracy: float = 0.8
    queue_capacity: int = 64
    queue_policy: str = "defer"
    batch_size: int = 64
    drain_budget: Optional[int] = None
    audit_maxlen: int = 1024

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def job(self) -> JobSpec:
        """This run's fields as the chaos job they describe."""
        return JobSpec(
            kind="chaos",
            scale=self.scale,
            duration_days=self.days,
            trace_seed=self.seed,
            events_per_10k=self.events_per_10k_links_per_day,
            capacity=self.capacity,
            repair_accuracy=self.repair_accuracy,
            repair_seed=self.seed,
            # Clean monitoring is the fault-free "none" mix.
            chaos_preset=(
                "none" if self.chaos_preset is None else self.chaos_preset
            ),
            fault_seed=self.fault_seed,
            congestion_preset=self.congestion_preset,
            miswire_pairs=self.miswire_pairs,
        )

    def validate(self) -> None:
        """Raise ``ValueError`` listing every refused value; the run
        fields are :meth:`JobSpec.validate`'s to check."""
        problems = []
        if self.days <= 0:
            problems.append("days must be > 0")
        try:
            self.job().validate()
        except ValueError as exc:
            problems.append(str(exc))
        if self.poll_interval_s <= 0:
            problems.append("poll_interval_s must be > 0")
        if self.queue_capacity < 1:
            problems.append("queue_capacity must be >= 1")
        if self.queue_policy not in POLICIES:
            problems.append(f"queue_policy must be one of {POLICIES}")
        problems += drain_problems(self.batch_size, self.drain_budget)
        if self.audit_maxlen < 1:
            problems.append("audit_maxlen must be >= 1")
        if problems:
            raise ValueError("; ".join(problems))


# ---------------------------------------------------------------------- #
# Sharded, queue-fed sensing pipeline
# ---------------------------------------------------------------------- #


class ServiceSensing(TelemetrySensing):
    """Telemetry sensing with a streaming front-end and sharded control.

    Extends :class:`~repro.simulation.kernel.TelemetrySensing` at its two
    factory seams:

    - the poller becomes an :class:`~repro.service.ingest.
      IngestingPoller` whose batched pushes flow through a
      :class:`~repro.service.queues.BoundedWorkQueue` (chaos faults are
      injected by the transport *before* the queue, so they live in the
      stream the service actually consumes);
    - the single controller becomes one :class:`CorrOptController` per
      :func:`~repro.service.shards.build_shards` segment, each scoped to
      its own links with its own debouncer and circuit breaker (labeled
      per shard in the exported metrics), all sharing the sanitizer,
      store, audit log and topology.

    Reports and repairs route to the owning shard via
    :meth:`_controller_for`; penalties and ToR fractions are global
    topology properties and read through shard 0's full-topology path
    counter.
    """

    strategy_name = "corropt-sharded"

    def __init__(
        self,
        *args,
        queue_capacity: int = 64,
        queue_policy: str = "defer",
        batch_size: int = 64,
        drain_budget: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.queue_capacity = queue_capacity
        self.queue_policy = queue_policy
        self.batch_size = batch_size
        self.drain_budget = drain_budget

    # -- factory seams --------------------------------------------------- #

    def _make_poller(self, topo, obs, interval: float) -> IngestingPoller:
        self.queue = BoundedWorkQueue(
            self.queue_capacity,
            policy=self.queue_policy,
            obs=obs,
            name="ingest",
        )
        return super()._make_poller(
            topo,
            obs,
            interval,
            IngestingPoller,
            queue=self.queue,
            batch_size=self.batch_size,
            drain_budget=self.drain_budget,
        )

    def _make_controller(self, topo, obs, interval: float) -> CorrOptController:
        self.shards = build_shards(topo)
        self.router = ShardRouter(self.shards)
        self.controllers: List[CorrOptController] = []
        for shard in self.shards:
            self.controllers.append(
                super()._make_controller(
                    topo,
                    obs,
                    interval,
                    shard.links,
                    {"obs": obs, "name": f"shard{shard.index}"},
                )
            )
        return self.controllers[0]

    def _controller_for(self, link_id: LinkId) -> CorrOptController:
        return self.controllers[self.router.shard_of(link_id)]

    # -- health wiring --------------------------------------------------- #

    def _num_shards(self) -> int:
        return len(self.shards)

    def _health_router(self):
        return self.router

    def _health_components(self):
        return [
            (
                shard.index,
                1 if c.optimizer_breaker.state is BreakerState.OPEN else 0,
                c.debouncer.confirmed_count(),
            )
            for shard, c in zip(self.shards, self.controllers)
        ]

    # -- run end --------------------------------------------------------- #

    def merged_controller_log(self) -> ControllerLog:
        """Fleet-wide controller log: summed counters, merged optimizer
        stats, decisions concatenated in shard order (ring-bounded)."""
        merged = ControllerLog(max_decisions=MAX_DECISIONS)
        for controller in self.controllers:
            log = controller.log
            for name in _LOG_COUNTERS:
                setattr(merged, name, getattr(merged, name) + getattr(log, name))
            merged.optimizer_stats.merge(log.optimizer_stats)
            merged.decisions.extend(log.decisions)
        return merged

    def finish(self) -> None:
        super().finish()
        # The base class read shard 0 only; degraded-mode decisions are a
        # fleet-wide count.
        self.chaos.decisions_in_degraded_mode = sum(
            c.log.fail_safe_keeps + c.log.optimizer_fallbacks
            for c in self.controllers
        )

    def _scrape_final(self) -> None:
        obs = self.kernel.obs
        for shard, controller in zip(self.shards, self.controllers):
            label = str(shard.index)
            obs.scrape_path_counter(
                controller.counter, role=f"shard{shard.index}"
            )
            obs.scrape_optimizer_stats(
                controller.log.optimizer_stats, role=f"shard{shard.index}"
            )
            obs.gauge("service_shard_links", len(shard.links), shard=label)
            obs.gauge(
                "service_shard_decisions",
                controller.log.total_decisions,
                shard=label,
            )
            obs.gauge(
                "service_shard_fail_safe_keeps",
                controller.log.fail_safe_keeps,
                shard=label,
            )
        self.sanitizer.flush_obs_counts()
        for key, value in vars(self.sanitizer.stats).items():
            obs.gauge(f"sanitizer_stats_{key}", value)
        obs.gauge(
            "sanitizer_quarantined_directions",
            self.sanitizer.quarantined_directions(),
        )
        obs.gauge("audit_evicted_records", self.audit.evicted)
        for key, value in self.queue.stats.as_dict().items():
            obs.gauge(f"service_queue_{key}", value, queue=self.queue.name)
        obs.gauge(
            "service_backpressure_losses", self.poller.backpressure_losses
        )
        self._publish_health(self.kernel.duration_s)

    def result_sections(self) -> Dict[str, object]:
        sections = super().result_sections()
        log = self.merged_controller_log()
        sections.update(controller_log=log, optimizer_stats=log.optimizer_stats)
        return sections


# ---------------------------------------------------------------------- #
# The service
# ---------------------------------------------------------------------- #


@dataclass
class ServiceRunStatus:
    """Outcome of one :meth:`ControllerService.run` call.

    ``completed`` is True only when the kernel drained its heap and the
    final result was assembled; an early stop (SIGTERM drain,
    ``max_boundaries``) leaves the service resumable from the last
    checkpoint in ``checkpoints``.
    """

    completed: bool
    boundary_index: int
    events_processed: int
    checkpoints: List[str] = field(default_factory=list)
    result: Optional[RunResult] = None
    stop_reason: str = ""


class ControllerService:
    """A long-running, checkpointable chaos campaign.

    Args:
        config: The full run definition (echoed into checkpoints and the
            final report).
        obs: Observability recorder threaded through the whole service.
            Note a live recorder becomes part of the checkpointed object
            graph; the default no-op recorder keeps checkpoints lean.
    """

    def __init__(self, config: ServiceConfig, obs: Recorder = NULL_RECORDER):
        config.validate()
        self.config = config
        scenario = chaos_scenario(
            scale=config.scale,
            duration_days=config.days,
            events_per_10k_links_per_day=config.events_per_10k_links_per_day,
            capacity=config.capacity,
            seed=config.seed,
        )
        sim = ChaosSimulation(
            scenario,
            fault_config=(
                None if config.chaos_preset is None
                else config.job().fault_config()
            ),
            repair_accuracy=config.repair_accuracy,
            seed=config.seed,
            congestion_preset=config.congestion_preset,
            miswire_pairs=config.miswire_pairs,
            obs=obs,
            pipeline_factory=partial(
                ServiceSensing,
                poll_interval_s=config.poll_interval_s,
                audit_maxlen=config.audit_maxlen,
                queue_capacity=config.queue_capacity,
                queue_policy=config.queue_policy,
                batch_size=config.batch_size,
                drain_budget=config.drain_budget,
            ),
        )
        self.pipeline = sim.pipeline
        self.kernel = sim.kernel
        #: Completed checkpoint boundaries (persists across restore, so a
        #: resumed run numbers its checkpoints after the ones already
        #: written).
        self.boundary_index = 0

    # -- checkpointing --------------------------------------------------- #

    def checkpoint(
        self, path, checkpoint_every_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Write a digest-stamped snapshot of this service to ``path``."""
        config = dict(self.config.to_dict())
        if checkpoint_every_s is not None:
            config["checkpoint_every_s"] = checkpoint_every_s
        sim_time_s = (
            self.boundary_index * checkpoint_every_s
            if checkpoint_every_s is not None
            else 0.0
        )
        return _write_checkpoint(
            path,
            self,
            sim_time_s=min(sim_time_s, self.kernel.duration_s),
            boundary_index=self.boundary_index,
            config=config,
        )

    @classmethod
    def restore(cls, path):
        """Load a checkpoint; returns ``(header, service)``."""
        header, service = read_checkpoint(path)
        if not isinstance(service, cls):
            raise ValueError(
                f"{path}: checkpoint payload is {type(service).__name__}, "
                f"not {cls.__name__}"
            )
        return header, service

    # -- the loop -------------------------------------------------------- #

    @staticmethod
    def check_checkpoint_every(checkpoint_every_s: Optional[float]) -> None:
        """Raise ``ValueError`` for a boundary spacing :meth:`run` refuses."""
        if checkpoint_every_s is not None and checkpoint_every_s <= 0:
            raise ValueError("checkpoint_every_s must be > 0")

    def run(
        self,
        checkpoint_every_s: Optional[float] = None,
        checkpoint_dir=None,
        max_boundaries: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> ServiceRunStatus:
        """Drain the run, checkpointing at fixed simulated-time boundaries.

        Without ``checkpoint_every_s`` this is one uninterrupted drain.
        With it, events are processed in ``[k*every, (k+1)*every]``
        slices; after each slice a checkpoint lands in
        ``checkpoint_dir`` and the stop conditions are evaluated —
        ``should_stop`` (the SIGTERM drain: the checkpoint just written
        *is* the final flush) and ``max_boundaries`` (a deterministic
        kill point for tests and CI).  Calling :meth:`run` again on a
        restored service continues from the recorded boundary.
        """
        kernel = self.kernel
        kernel.start()
        checkpoints: List[str] = []
        processed = 0
        if checkpoint_every_s is not None:
            self.check_checkpoint_every(checkpoint_every_s)
            if checkpoint_dir is None:
                raise ValueError("checkpointing requires checkpoint_dir")
            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            while kernel.events_pending():
                boundary = self.boundary_index + 1
                processed += kernel.run_until(boundary * checkpoint_every_s)
                self.boundary_index = boundary
                path = directory / f"checkpoint-{boundary:06d}.ckpt"
                self.checkpoint(path, checkpoint_every_s)
                checkpoints.append(str(path))
                stopping = should_stop is not None and should_stop()
                exhausted = (
                    max_boundaries is not None and boundary >= max_boundaries
                )
                if (stopping or exhausted) and kernel.events_pending():
                    return ServiceRunStatus(
                        completed=False,
                        boundary_index=boundary,
                        events_processed=processed,
                        checkpoints=checkpoints,
                        stop_reason=(
                            "stop-requested" if stopping else "max-boundaries"
                        ),
                    )
        else:
            processed += kernel.run_until(float("inf"))
        result = kernel.finish()
        return ServiceRunStatus(
            completed=True,
            boundary_index=self.boundary_index,
            events_processed=processed,
            checkpoints=checkpoints,
            result=result,
        )

    # -- reporting ------------------------------------------------------- #

    def report_lines(self, result: RunResult) -> List[str]:
        """The final JSONL report, as a list of canonical lines.

        Every value is simulation-derived, so full and kill-and-resume
        runs of the same config produce identical bytes.
        """
        pipeline = self.pipeline
        merged = pipeline.merged_controller_log()
        queue = pipeline.queue
        metrics = result.metrics
        header = {
            "type": "header",
            "format": SERVICE_REPORT_FORMAT,
            "format_version": SERVICE_REPORT_FORMAT_VERSION,
            "repro_version": __version__,
            "strategy": result.strategy_name,
            "shards": len(pipeline.shards),
            "config": self.config.to_dict(),
        }
        result_row = {
            "type": "result",
            "penalty_integral": result.penalty_integral,
            "mean_penalty": result.mean_penalty(),
            "fingerprint": series_digest(result),
            "invariants_ok": result.invariants_ok(),
            "counters": {
                "onsets": metrics.onsets,
                "disabled_on_onset": metrics.disabled_on_onset,
                "kept_active_on_onset": metrics.kept_active_on_onset,
                "disabled_on_activation": metrics.disabled_on_activation,
                "repairs_completed": metrics.repairs_completed,
                "failed_repairs": metrics.failed_repairs,
            },
            "chaos": dict(vars(result.chaos)),
            "controller": _log_counters(merged),
            "queue": {
                **queue.stats.as_dict(),
                "pending": queue.pending(),
                "accounting_ok": queue.accounting_ok(),
                "backpressure_losses": pipeline.poller.backpressure_losses,
            },
            "audit": {
                "total_decisions": pipeline.audit.total(),
                "buffered_decisions": len(pipeline.audit.records()),
                "evicted_decisions": pipeline.audit.evicted,
                "counts": dict(sorted(pipeline.audit.counts.items())),
            },
            "health": (
                result.health.row() if result.health is not None else None
            ),
        }
        # Only diagnosis-bearing configs (congestion co-model / miswiring)
        # carry the block, so plain service reports keep their exact bytes.
        if getattr(result, "diagnosis", None) is not None:
            result_row["diagnosis"] = result.diagnosis.row()
        rows = [header, result_row]
        for shard, controller in zip(pipeline.shards, pipeline.controllers):
            rows.append(
                {
                    "type": "shard",
                    "shard": shard.index,
                    "links": len(shard.links),
                    "tors": len(shard.tors),
                    "log": _log_counters(controller.log),
                }
            )
        return [
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in rows
        ]

    def write_report(self, path, result: RunResult) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            for line in self.report_lines(result):
                handle.write(line + "\n")
        return out
