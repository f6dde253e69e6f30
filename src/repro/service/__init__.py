"""The continuous-operation controller service.

Turns the batch simulator into a system under sustained load: a
streaming telemetry front-end with bounded ingestion queues and explicit
backpressure (:mod:`repro.service.queues`, :mod:`repro.service.ingest`),
sharded per-segment controllers (:mod:`repro.service.shards`), and
deterministic, digest-stamped checkpoint/restore
(:mod:`repro.service.checkpoint`) — all orchestrated by
:class:`~repro.service.service.ControllerService` behind the
``repro serve`` CLI.  See DESIGN.md §13.
"""

from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_FORMAT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.service.ingest import IngestingPoller, TelemetryBatch
from repro.service.queues import BoundedWorkQueue, QueueStats
from repro.service.service import (
    SERVICE_REPORT_FORMAT,
    SERVICE_REPORT_FORMAT_VERSION,
    ControllerService,
    ServiceConfig,
    ServiceRunStatus,
    ServiceSensing,
)
from repro.service.shards import Shard, ShardRouter, build_shards

__all__ = [
    "BoundedWorkQueue",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_FORMAT_VERSION",
    "ControllerService",
    "IngestingPoller",
    "QueueStats",
    "SERVICE_REPORT_FORMAT",
    "SERVICE_REPORT_FORMAT_VERSION",
    "ServiceConfig",
    "ServiceRunStatus",
    "ServiceSensing",
    "Shard",
    "ShardRouter",
    "TelemetryBatch",
    "build_shards",
    "read_checkpoint",
    "write_checkpoint",
]
