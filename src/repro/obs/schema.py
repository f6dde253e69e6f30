"""Schema validation for every artifact format the system writes.

Each format is declared once, as a field table: a dict from key to
:class:`Field` — the kind of value the key holds, whether it may be null
or absent, and any nested table, item table or cross-row rule.  A
:class:`Switch` picks a table by a discriminator (``type``, ``status``,
``spec.kind``, ``sensing``, ``ph``); a :class:`Stream` is a JSONL file: a
header table, a table per record ``type`` and the row counts the header
declares.  One interpreter walks them, so the tables below *are* the
format specification.  Only the Prometheus text parser and the
checkpoint file's byte framing are hand-written.

Shared by the golden-file tests, ``repro obs --validate``, ``repro
health``, the benchmarks and the CI artifact jobs, so "the emitted
artifact is well-formed" means the same thing everywhere.  Validators
collect human-readable problems instead of raising — an empty list means
valid — and every problem names its line or index and its key.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.registry import SENSING_PIPELINES as _SENSING_PIPELINES
from repro.registry import STRATEGIES as SWEEP_STRATEGY_NAMES
from repro.registry import TOPO_KINDS as _TOPO_KINDS

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_BODY_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*$'
)
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _base_name(name: str, declared: Dict[str, str]) -> str:
    """Map histogram series names back to their declared family."""
    for suffix in _HISTOGRAM_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if declared.get(base) == "histogram":
                return base
    return name


def validate_prometheus_text(text: str) -> List[str]:
    """Problems with a Prometheus snapshot (empty list = valid)."""
    problems: List[str] = []
    lines = text.splitlines()
    if not lines:
        return ["empty file"]
    if not lines[0].startswith("# repro-obs prometheus snapshot format="):
        problems.append("missing repro-obs snapshot header on line 1")
    if not any(line.startswith("# repro-version: ") for line in lines):
        problems.append("missing '# repro-version:' provenance header")

    declared: Dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                kind = parts[3]
                if kind not in ("counter", "gauge", "histogram"):
                    problems.append(f"line {lineno}: unknown TYPE {kind!r}")
                declared[parts[2]] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        if labels and not _LABEL_BODY_RE.match(labels[1:-1]):
            problems.append(f"line {lineno}: malformed labels {labels!r}")
        value = match.group("value")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {value!r}")
        if _base_name(name, declared) not in declared:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE")
    return problems


# --------------------------------------------------------------------- #
# The interpreter
# --------------------------------------------------------------------- #


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Kind -> (test, noun in problems).  Numbers never accept bools; only a
#: benchmark ``metric`` does (benchmarks record flags as metrics).
_KINDS = {
    "int": (_is_int, "integer "),
    "number": (lambda v: _is_int(v) or isinstance(v, float), "numeric "),
    "metric": (lambda v: isinstance(v, (int, float)), "numeric "),
    "str": (lambda v: isinstance(v, str), "string "),
    "bool": (lambda v: isinstance(v, bool), "boolean "),
    "object": (lambda v: isinstance(v, dict), "object "),
    "list": (lambda v: isinstance(v, list), "list "),
    "sha256": (
        lambda v: isinstance(v, str) and v.startswith("sha256:"), "sha256 "
    ),
    "present": (bool, ""),
}


@dataclass(frozen=True)
class Field:
    """One table entry: the kind of value a key holds and its rules.

    ``kind`` is a :data:`_KINDS` name or ``"enum"`` (one of ``choices``,
    compared type-strictly, so ``true`` is never ``1``).
    """

    kind: str
    choices: tuple = ()
    nullable: bool = False  # null or absent is valid
    optional: bool = False  # absent is valid, null is not
    nonempty: bool = False
    min: Optional[float] = None
    table: object = None  # object: a nested table or Switch
    values: Optional["Field"] = None  # object: every value's field
    items: object = None  # list: every item's table or Switch
    count: Optional[str] = None  # list: length == this sibling integer
    position: Optional[int] = None  # value == row index + position
    monotone: bool = False  # never decreases down a stream
    doc: str = ""  # appended to problems where the key is cryptic


@dataclass(frozen=True)
class Switch:
    """A table chosen by the string at dotted path ``key``.

    Values without a case use ``default``; with no default they are a
    problem (``unknown 'type' ...``).
    """

    key: str
    cases: Mapping[str, object]
    default: object = None


@dataclass(frozen=True)
class Stream:
    """A JSONL format: header table, record tables keyed by ``type``, and
    ``(type, header key or exact number)`` row counts."""

    header: Mapping[str, Field]
    records: Switch
    counts: Tuple[Tuple[str, Union[str, int]], ...] = ()


INT, NUM, STR, BOOL, OBJECT, LIST, SHA256, PRESENT, METRIC = (
    Field(kind)
    for kind in (
        "int", "number", "str", "bool", "object", "list", "sha256",
        "present", "metric",
    )
)
NULLABLE_NUM = Field("number", nullable=True)


def enum(*choices, **rules) -> Field:
    return Field("enum", choices=choices, **rules)


def obj(table=None, **rules) -> Field:
    return Field("object", table=table, **rules)


_ABSENT = object()


def _show(value) -> str:
    text = repr(None if value is _ABSENT else value)
    return text if len(text) <= 60 else text[:57] + "..."


class _Walk:
    """One validation pass: the problems so far and stream column state."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.last: Dict[str, object] = {}

    def add(self, line: str, path: str, text: str) -> None:
        self.problems.append(f"{line}{path}: {text}" if path else line + text)

    def table(self, value, table, line="", path="", index=None) -> None:
        """Check ``value`` against a table (or a Switch of tables)."""
        if not isinstance(value, dict):
            self.add(line, path, "not an object")
            return
        while isinstance(table, Switch):
            choice = value
            for step in table.key.split("."):
                choice = choice.get(step) if isinstance(choice, dict) else None
            key, default = table.key, table.default
            table = table.cases.get(choice) if isinstance(choice, str) else None
            table = default if table is None else table
            if table is None:
                self.add(line, path, f"unknown {key!r} {_show(choice)}")
                return
        for key, field in table.items():
            if key.endswith("*"):
                for name in value:
                    if name.startswith(key[:-1]):
                        self.field(value[name], field, name, value, line,
                                   path, index)
            else:
                self.field(value.get(key, _ABSENT), field, key, value, line,
                           path, index)

    def field(self, value, field, key, parent, line, path, index) -> None:
        """Check one keyed value (and whatever its field nests)."""
        if value is _ABSENT and field.optional:
            return
        if (value is _ABSENT or value is None) and field.nullable:
            return
        doc = f" ({field.doc})" if field.doc else ""
        if field.kind == "enum":
            if not any(
                value == choice and type(value) is type(choice)
                for choice in field.choices
            ):
                self.add(line, path, f"unsupported {key!r} {_show(value)}{doc}")
            return
        test, noun = _KINDS[field.kind]
        noun = "non-empty " + noun if field.nonempty else noun
        if value is _ABSENT or value is None:
            self.add(line, path, f"missing {noun}{key!r}{doc}")
            return
        if not test(value) or (field.nonempty and not value):
            self.add(line, path, f"bad {noun}{key!r}{doc}: {_show(value)}")
            return
        if field.min is not None and value < field.min:
            self.add(line, path, f"{key!r} is {value!r}, below {field.min}")
        if field.position is not None and index is not None:
            want = index + field.position
            if value != want:
                self.add(line, path,
                         f"out-of-order {key!r} {value!r} (want {want})")
        if field.monotone:
            last = self.last.get(key)
            if last is not None and value < last:
                self.add(line, path,
                         f"{key!r} {value!r} decreases from {last!r}")
            else:
                self.last[key] = value
        child = f"{path}.{key}" if path else key
        if field.table is not None:
            self.table(value, field.table, line, child)
        if field.values is not None:
            for name, item in value.items():
                self.field(item, field.values, name, value, line, child, None)
        if field.items is not None:
            for position, item in enumerate(value):
                self.table(item, field.items, line, f"{child}[{position}]",
                           position)
        declared = parent.get(field.count) if field.count else None
        if _is_int(declared) and len(value) != declared:
            self.add(line, path, f"{field.count}={declared} but {key!r} "
                                 f"has {len(value)} entries")


def _check_document(value, table, what: str) -> List[str]:
    if not isinstance(value, dict):
        return [f"{what} is not a JSON object"]
    walk = _Walk()
    walk.table(value, table)
    return walk.problems


def _check_stream(lines: Sequence[str], stream: Stream) -> List[str]:
    if not lines:
        return ["empty stream"]
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
        return [f"line 1: invalid JSON ({exc})"]
    walk = _Walk()
    walk.table(header, stream.header, "line 1: ")
    seen: Counter = Counter()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            walk.add(f"line {lineno}: ", "", f"invalid JSON ({exc})")
            continue
        kind = record.get("type") if isinstance(record, dict) else None
        kind = kind if isinstance(kind, str) else None
        walk.table(record, stream.records, f"line {lineno}: ", "", seen[kind])
        seen[kind] += 1
    for kind, want in stream.counts:
        if isinstance(want, int):
            if seen[kind] != want:
                walk.add("", "", f"stream has {seen[kind]} {kind} rows "
                                 f"(want {want})")
        elif isinstance(header, dict) and _is_int(header.get(want)):
            if seen[kind] != header[want]:
                walk.add("", "", f"header says {want}={header[want]} but "
                                 f"stream has {seen[kind]} {kind} rows")
    return walk.problems


# --------------------------------------------------------------------- #
# Format literals
# --------------------------------------------------------------------- #

#: Checkpoint literals, defined here (this module is import-light) and
#: imported by :mod:`repro.service.checkpoint`.
CHECKPOINT_FORMAT = "repro-checkpoint"
#: Bumped when the header or payload layout changes incompatibly.
#: 2: poller, sanitizer and store keep per-direction state in numpy columns.
#: 3: the congestion co-model is a table; a direction's traffic stream is
#: its seed, draw count and cached Gaussian, not a generator state.
#: 4: telemetry faults keep their per-direction state in numpy columns and
#: a queued telemetry batch carries snapshot columns, not a dict.
#: 5: a Topology pickles without its interned row tables and a PathCounter
#: as (topology, mode, stats, told-link-state column); both rebuild the rest.
#: 6: a fault transport holds its state columns itself, with no fault chain,
#: and a baseline is column rows only (no object fallback).
#: 7: a Topology keeps link state in per-link-row columns, not ``Link``
#: objects (a ``Link`` is a view of one row).
#: 8: the telemetry store is a ring of each direction's newest samples,
#: ``[rows × window]`` columns plus the count of samples ever stored.
#: 9: the sanitizer keeps each direction's quarantine verdict and degraded
#: count as columns, judged on every push, and its per-quality counts as
#: one int array.
#: 10: the service config and the sensing pipeline carry no custom SLO
#: rules; the SLO engine holds the built-in rule tuple.
#: 11: the service config and the sensing pipelines carry no detection,
#: debounce, decision-bound, health-period, probe, classifier or voting
#: settings (module constants now), and the service holds no scenario.
#: 12: contiguous numpy columns are out-of-band frames after the pickle
#: stream (header ``frames``); the poller's direction table and each
#: stage's direction-to-row map are left out and rebuilt.
#: 13: the fault transport, sanitizer, store and congestion co-model keep a
#: direction in its direction-table row (``2 * link_row``, plus one for the
#: down direction): no direction id list or name map is pickled; the
#: transport pickles the rows that hold fault state with their row numbers.
#: 14: a PathCounter has one (incremental) mode and pickles as (topology,
#: recorder, stats, told-link-state column), with no mode flag.
CHECKPOINT_FORMAT_VERSION = 14

#: Service-report literals, pinned against :mod:`repro.service.service`.
SERVICE_REPORT_FORMAT = "repro-service-report"
SERVICE_REPORT_FORMAT_VERSION = 1

#: Health/SLO literals, pinned against :mod:`repro.obs.health` and
#: :mod:`repro.obs.slo` by the health tests.
HEALTH_FORMAT = "repro-health-scorecard"
HEALTH_FORMAT_VERSION = 1
ALERTS_FORMAT = "repro-health-alerts"
ALERTS_FORMAT_VERSION = 1

#: ``SWEEP_STRATEGY_NAMES`` (the strategy names a sweep/tournament row
#: may carry) is an alias into :mod:`repro.registry` — itself
#: stdlib-only, so the schema module stays import-light.

#: Integer-count chaos columns every ok chaos row must carry.
CHAOS_COUNT_COLUMNS = (
    "polls", "missed_polls", "degraded_samples", "false_disables",
    "missed_mitigations", "detections", "decisions_in_degraded_mode",
    "quarantined_peak", "quarantine_violations", "capacity_violations",
)

#: Numeric health columns every ok per-DCN entry of a fleet roll-up row
#: must carry.
FLEET_DCN_COLUMNS = (
    "penalty_integral", "mean_penalty", "onsets", "disabled_on_onset",
    "repairs_completed", "failed_repairs", "worst_tor_fraction_min",
)

# --------------------------------------------------------------------- #
# The tables
# --------------------------------------------------------------------- #

_HEADER = {"type": enum("header")}
_VERSIONED = {**_HEADER, "format_version": INT, "repro_version": PRESENT}

_EVENTS = Stream(
    header={**_VERSIONED, "format": enum("repro-obs-events")},
    records=Switch("type", {"event": {"name": STR, "sim_time_s": NUM}}),
)

_AUDIT = Stream(
    header={**_HEADER, "format": enum("repro-audit")},
    records=Switch("type", {"decision": {"sim_time_s": NUM, "verdict": STR}}),
)

_TRACE_EVENT = {
    "name": STR,
    "ph": enum("X", "M", "B", "E", "i", doc="phase"),
    "pid": INT,
    "tid": INT,
}
_TRACE = {
    "traceEvents": Field("list", items=Switch("ph", {
        "X": {**_TRACE_EVENT, "ts": Field("number", min=0),
              "dur": Field("number", min=0)},
    }, default=_TRACE_EVENT)),
    "otherData": obj({"repro_version": PRESENT}),
}

#: The compact per-run health block (HealthReport.row()).
_HEALTH_ROW = {
    **dict.fromkeys(
        ("detections", "detection_pending", "false_disables",
         "quarantine_peak", "alerts_fired"), INT),
    **dict.fromkeys(
        ("detection_latency_p50_s", "detection_latency_p95_s", "ttm_p50_s",
         "ttm_p95_s", "headroom_min"), NULLABLE_NUM),
    "false_disable_rate": NUM,
    "breaker_open_duty": NUM,
    "slo_ok": BOOL,
}

_CHAOS_COUNTS = dict.fromkeys(CHAOS_COUNT_COLUMNS, INT)

#: A sweep row's optional ``diagnosis`` block (DiagnosisStats.row() plus
#: the spec axes); a precision/recall is null when the cause never
#: appeared in truth or verdicts.
_DIAGNOSIS_ROW = {
    "sensing": enum(*_SENSING_PIPELINES),
    "congestion_preset": Field("str", nullable=True),
    "miswire_pairs": Field("int", min=0),
    **dict.fromkeys(
        ("diagnoses", "congestion_mitigations", "missed_corrupting"), INT),
    "precision_*": NULLABLE_NUM,
    "recall_*": NULLABLE_NUM,
}

_RESULT = {
    "job": INT, "spec": OBJECT, "seed_used": INT,
    "status": enum("ok", "failed"),
}
_RESULT_OK = {
    **_RESULT, "penalty_integral": NUM, "duration_s": NUM,
    "series_digest": SHA256,
}
_RESULT_ROW = Switch("status", {
    "ok": Switch("spec.kind", {
        "calibrate": _RESULT,
        "chaos": {
            **_RESULT_OK,
            "chaos": obj({
                "invariants_ok": BOOL, "preset": STR,
                "detection_lag_polls": NUM, **_CHAOS_COUNTS,
            }),
            "health": obj(_HEALTH_ROW),
            "diagnosis": obj(_DIAGNOSIS_ROW, optional=True),
        },
    }, default=_RESULT_OK),
    "failed": {**_RESULT, "error": obj({"kind": PRESENT})},
}, default=_RESULT)

#: Tournament files append ranked leaderboard rows after the results.
_LEADERBOARD_ROW = {
    "preset": STR, "penalty": STR, "capacity": NUM, "lg_coverage": NUM,
    "entries": Field("list", nonempty=True, items={
        "rank": Field("int", position=1),
        "strategy": enum(*SWEEP_STRATEGY_NAMES),
        "mean_penalty_integral": NUM,
        "runs": Field("int", min=1),
    }),
}

#: Fleet files append one roll-up row after the per-DCN results.
_FLEET_DCN = {
    "dcn": STR, "topo_kind": enum(*_TOPO_KINDS), "healthy": BOOL,
    "status": enum("ok", "failed"),
}
_FLEET_ROW = {
    **dict.fromkeys(("dcns", "ok", "failed", "links_design_total"), INT),
    **dict.fromkeys(
        ("penalty_integral_total", "onsets_total", "repairs_total"), NUM),
    "health": obj(dict.fromkeys(
        ("healthy_dcns", "degraded_dcns", "failed_dcns"), INT)),
    "per_dcn": Field("list", nonempty=True, count="dcns", items=Switch(
        "status",
        {"ok": {**_FLEET_DCN, **dict.fromkeys(FLEET_DCN_COLUMNS, NUM)}},
        default=_FLEET_DCN,
    )),
}

_SWEEP = Stream(
    header={**_VERSIONED, "format": enum("repro-sweep"), "jobs_total": INT,
            "grid_digest": SHA256},
    records=Switch("type", {
        "result": _RESULT_ROW,
        "leaderboard": _LEADERBOARD_ROW,
        "fleet": _FLEET_ROW,
    }),
    counts=(("result", "jobs_total"),),
)

_SERVICE_REPORT = Stream(
    header={**_VERSIONED, "format": enum(SERVICE_REPORT_FORMAT),
            "config": OBJECT, "shards": Field("int", min=1)},
    records=Switch("type", {
        "result": {
            "penalty_integral": NUM, "mean_penalty": NUM,
            "fingerprint": SHA256, "invariants_ok": BOOL,
            "chaos": obj(_CHAOS_COUNTS),
            "queue": obj({
                "accounting_ok": enum(True),
                **dict.fromkeys(
                    ("offered", "accepted", "deferred", "requeued",
                     "dropped", "drained", "pending", "backpressure_losses"),
                    INT),
            }),
            "audit": obj({"evicted_decisions": INT}),
            "health": obj(_HEALTH_ROW),
        },
        "shard": {"shard": Field("int", position=0), "log": OBJECT,
                  "links": INT, "tors": INT},
    }),
    counts=(("result", 1), ("shard", "shards")),
)

_CHECKPOINT_HEADER = {
    "format": enum(CHECKPOINT_FORMAT),
    "format_version": enum(CHECKPOINT_FORMAT_VERSION),
    "repro_version": PRESENT,
    "sim_time_s": NUM,
    "boundary_index": INT,
    "payload_bytes": INT,
    "state_digest": STR,
    "config": OBJECT,
}

_BENCHMARK = {
    "format": enum("repro-benchmark"),
    "format_version": INT,
    "repro_version": PRESENT,
    "name": Field("str", nonempty=True),
    "environment": obj({"cpus": INT}),
    "metrics": Field("object", nonempty=True, values=METRIC),
}

_SCORECARD = {
    "format": enum(HEALTH_FORMAT),
    "format_version": enum(HEALTH_FORMAT_VERSION),
    "repro_version": PRESENT,
    "sensing": enum("telemetry", "oracle"),
    "complete": BOOL,
    "end_s": NUM,
    "fleet": OBJECT,
    "shards": Field("list", items={"shard": Field("int", position=0)}),
    "links": Field("list", items={"link": STR, "onset_s": NUM}),
    "links_omitted": INT,
    "slo": obj({
        "rules": Field("list", items={"state": enum("ok", "firing")}),
        "alerts": Field("list", count="alerts_fired"),
        "alerts_fired": INT,
        "ok": BOOL,
    }),
}
_SCORECARD_BY_SENSING = Switch("sensing", {"telemetry": {
    **_SCORECARD,
    "fleet": obj({
        **dict.fromkeys(
            ("mitigation", "penalty", "capacity", "quarantine", "breaker",
             "debounce"), OBJECT),
        "detection": obj(dict.fromkeys(("count", "pending", "overdue"), INT)),
        "disables": obj({"false_rate": NUM}),
    }),
}}, default=_SCORECARD)

_ALERTS = Stream(
    header={**_HEADER, "format": enum(ALERTS_FORMAT),
            "format_version": enum(ALERTS_FORMAT_VERSION),
            "repro_version": PRESENT, "rules": LIST, "alerts": INT},
    records=Switch("type", {"alert": {
        "sim_time_s": Field("number", monotone=True),
        "rule": STR,
        "state": enum("firing", "resolved"),
        "severity": enum("info", "warning", "critical"),
        "value": NUM,
    }}),
    counts=(("alert", "alerts"),),
)

# --------------------------------------------------------------------- #
# Validators (empty list = valid)
# --------------------------------------------------------------------- #


def validate_events_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a JSONL event stream."""
    return _check_stream(lines, _EVENTS)


def validate_chrome_trace(obj: object) -> List[str]:
    """Problems with a Chrome-trace object."""
    return _check_document(obj, _TRACE, "trace")


def validate_audit_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with an AuditLog JSONL export."""
    return _check_stream(lines, _AUDIT)


def validate_sweep_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a ``repro sweep``/``tournament``/``fleet`` JSONL."""
    return _check_stream(lines, _SWEEP)


def validate_service_report_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a ``repro serve`` report."""
    return _check_stream(lines, _SERVICE_REPORT)


def validate_alerts_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with an SLO alert stream."""
    return _check_stream(lines, _ALERTS)


def validate_health_scorecard(obj: object) -> List[str]:
    """Problems with a health scorecard object."""
    return _check_document(obj, _SCORECARD_BY_SENSING, "scorecard")


def validate_benchmark_record(record: object) -> List[str]:
    """Problems with a machine-readable benchmark result.

    Every ``benchmarks/test_runtime_*`` module writes one of these next to
    its human-readable summary so regressions are diffable by tooling.
    """
    return _check_document(record, _BENCHMARK, "benchmark record")


def checkpoint_digest(frames: Sequence[int], parts) -> str:
    """SHA-256 over a checkpoint's frame lengths, then its payload parts."""
    digest = hashlib.sha256(json.dumps(frames).encode("ascii"))
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def checkpoint_payload_problems(header: dict, payload) -> List[str]:
    """Problems with a checkpoint's ``frames``, ``payload_bytes`` and
    ``state_digest`` against its ``payload`` buffer (the digest is
    checked once the lengths agree)."""
    frames, size = header.get("frames"), header.get("payload_bytes")
    if not (isinstance(frames, list) and frames
            and all(_is_int(length) and length >= 0 for length in frames)):
        return [f"bad 'frames' {_show(frames)}: want a list of byte counts"]
    problems = [
        f"'frames' sum to {sum(frames)} bytes, 'payload_bytes' is {size!r}"
    ] if sum(frames) != size else []
    if len(payload) != size:
        problems.append(
            f"payload is {len(payload)} bytes, 'payload_bytes' is {size!r}"
        )
    if not problems and (
        checkpoint_digest(frames, [payload]) != header.get("state_digest")
    ):
        problems.append("state_digest mismatch (corrupt payload or 'frames')")
    return problems


def checkpoint_header(raw) -> Tuple[dict, int]:
    """The header of a checkpoint and where its payload starts, from the
    file's bytes (at least its first line): the one reader of the header
    line.

    Raises:
        ValueError: No header line, or one that is not a JSON object.
    """
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError("no header line (not a checkpoint)")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"header line is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError("header is not an object")
    return header, newline + 1


def validate_checkpoint_file(path) -> List[str]:
    """Problems with a service checkpoint file.

    Validates the JSON header against its table and the payload integrity
    (frame lengths, length and SHA-256 digest) **without unpickling** —
    safe to run on untrusted or truncated files.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    try:
        header, start = checkpoint_header(raw)
    except ValueError as exc:
        return [str(exc)]
    problems = _check_document(header, _CHECKPOINT_HEADER, "header")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        return problems  # another version frames its payload otherwise
    return problems + checkpoint_payload_problems(
        header, memoryview(raw)[start:]
    )
