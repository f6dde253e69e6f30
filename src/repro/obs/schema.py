"""Schema validation for the three exporter formats.

Shared by the golden-file tests, the ``repro obs --validate`` CLI, and the
CI artifact job, so "the emitted artifact is well-formed" means the same
thing everywhere.  Validators collect human-readable problems instead of
raising: an empty list means valid.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Sequence

from repro.registry import SENSING_PIPELINES as _SENSING_PIPELINES
from repro.registry import STRATEGIES as SWEEP_STRATEGY_NAMES

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


def validate_events_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a JSONL event stream (empty list = valid)."""
    problems: List[str] = []
    if not lines:
        return ["empty stream"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: invalid JSON ({exc})"]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("line 1: first record must have type 'header'")
    else:
        if header.get("format") != "repro-obs-events":
            problems.append("line 1: wrong or missing 'format'")
        if not isinstance(header.get("format_version"), int):
            problems.append("line 1: missing integer 'format_version'")
        if not header.get("repro_version"):
            problems.append("line 1: missing 'repro_version'")

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: record is not an object")
            continue
        if record.get("type") != "event":
            problems.append(f"line {lineno}: unknown type {record.get('type')!r}")
        if not isinstance(record.get("name"), str):
            problems.append(f"line {lineno}: missing string 'name'")
        if not isinstance(record.get("sim_time_s"), (int, float)):
            problems.append(f"line {lineno}: missing numeric 'sim_time_s'")
    return problems


def validate_chrome_trace(obj: object) -> List[str]:
    """Problems with a Chrome-trace object (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["trace is not a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    other = obj.get("otherData")
    if not isinstance(other, dict) or not other.get("repro_version"):
        problems.append("missing otherData.repro_version provenance")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i"):
            problems.append(f"{where}: unsupported phase {ph!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: bad {key!r} {value!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key!r}")
    return problems


def validate_audit_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with an AuditLog JSONL export (empty list = valid)."""
    problems: List[str] = []
    if not lines:
        return ["empty stream"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: invalid JSON ({exc})"]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("line 1: first record must have type 'header'")
    elif header.get("format") != "repro-audit":
        problems.append("line 1: wrong or missing 'format'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: record is not an object")
            continue
        if record.get("type") != "decision":
            problems.append(
                f"line {lineno}: unknown type {record.get('type')!r}"
            )
        if not isinstance(record.get("sim_time_s"), (int, float)):
            problems.append(f"line {lineno}: missing numeric 'sim_time_s'")
        if not isinstance(record.get("verdict"), str):
            problems.append(f"line {lineno}: missing string 'verdict'")
    return problems


#: ``SWEEP_STRATEGY_NAMES`` (the strategy names a sweep/tournament row
#: may carry) is an alias into :mod:`repro.registry` — itself
#: stdlib-only, so the schema module stays import-light.

#: Integer-count chaos columns every ok chaos row must carry.
CHAOS_COUNT_COLUMNS = (
    "polls",
    "missed_polls",
    "degraded_samples",
    "false_disables",
    "missed_mitigations",
    "detections",
    "decisions_in_degraded_mode",
    "quarantined_peak",
    "quarantine_violations",
    "capacity_violations",
)


def _chaos_row_problems(chaos: object, lineno: int) -> List[str]:
    """Problems with one ok chaos row's ``chaos`` column block."""
    if not isinstance(chaos, dict):
        return [f"line {lineno}: chaos job missing object 'chaos'"]
    problems: List[str] = []
    if not isinstance(chaos.get("invariants_ok"), bool):
        problems.append(
            f"line {lineno}: chaos block missing boolean 'invariants_ok'"
        )
    if not isinstance(chaos.get("preset"), str):
        problems.append(f"line {lineno}: chaos block missing 'preset'")
    if not isinstance(chaos.get("detection_lag_polls"), (int, float)):
        problems.append(
            f"line {lineno}: chaos block missing numeric "
            "'detection_lag_polls'"
        )
    for key in CHAOS_COUNT_COLUMNS:
        value = chaos.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(
                f"line {lineno}: chaos block missing integer {key!r}"
            )
    return problems


#: Keys of the compact per-run health block (HealthReport.row()) with
#: their expected shapes: int counters, numeric-or-null latencies,
#: numeric rates, one boolean verdict.
_HEALTH_ROW_INT_KEYS = (
    "detections",
    "detection_pending",
    "false_disables",
    "quarantine_peak",
    "alerts_fired",
)
_HEALTH_ROW_OPTIONAL_NUM_KEYS = (
    "detection_latency_p50_s",
    "detection_latency_p95_s",
    "ttm_p50_s",
    "ttm_p95_s",
    "headroom_min",
)
_HEALTH_ROW_NUM_KEYS = ("false_disable_rate", "breaker_open_duty")


def _health_row_problems(health: object, where: str) -> List[str]:
    """Problems with one compact ``health`` block (empty list = valid)."""
    if not isinstance(health, dict):
        return [f"{where}: 'health' is not an object"]
    problems: List[str] = []
    for key in _HEALTH_ROW_INT_KEYS:
        value = health.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{where}: health missing integer {key!r}")
    for key in _HEALTH_ROW_OPTIONAL_NUM_KEYS:
        value = health.get(key)
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            problems.append(
                f"{where}: health {key!r} must be numeric or null"
            )
    for key in _HEALTH_ROW_NUM_KEYS:
        value = health.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{where}: health missing numeric {key!r}")
    if not isinstance(health.get("slo_ok"), bool):
        problems.append(f"{where}: health missing boolean 'slo_ok'")
    return problems


#: Integer counters every sweep-row ``diagnosis`` block must carry
#: (DiagnosisStats.row() plus the spec axes stamped by the aggregator).
_DIAGNOSIS_ROW_INT_KEYS = (
    "diagnoses",
    "congestion_mitigations",
    "missed_corrupting",
)


def _diagnosis_row_problems(diagnosis: object, where: str) -> List[str]:
    """Problems with one sweep-row ``diagnosis`` block (empty = valid).

    The block is optional — plain chaos rows (no congestion co-model, no
    miswiring, telemetry sensing) omit it entirely — but when present it
    must carry the sensing/congestion/miswire axes plus the confusion
    counters, and every ``precision_*``/``recall_*`` column must be
    numeric or null (null = cause never seen in truth/verdicts).
    """
    if not isinstance(diagnosis, dict):
        return [f"{where}: 'diagnosis' is not an object"]
    problems: List[str] = []
    if diagnosis.get("sensing") not in _SENSING_PIPELINES:
        problems.append(
            f"{where}: diagnosis has unknown sensing "
            f"{diagnosis.get('sensing')!r}"
        )
    preset = diagnosis.get("congestion_preset")
    if preset is not None and not isinstance(preset, str):
        problems.append(
            f"{where}: diagnosis 'congestion_preset' must be string or null"
        )
    pairs = diagnosis.get("miswire_pairs")
    if not isinstance(pairs, int) or isinstance(pairs, bool) or pairs < 0:
        problems.append(
            f"{where}: diagnosis missing non-negative integer 'miswire_pairs'"
        )
    for key in _DIAGNOSIS_ROW_INT_KEYS:
        value = diagnosis.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{where}: diagnosis missing integer {key!r}")
    for key, value in diagnosis.items():
        if not key.startswith(("precision_", "recall_")):
            continue
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            problems.append(
                f"{where}: diagnosis {key!r} must be numeric or null"
            )
    return problems


def _leaderboard_row_problems(record: Dict, lineno: int) -> List[str]:
    """Problems with one ``type="leaderboard"`` tournament row."""
    problems: List[str] = []
    for key in ("preset", "penalty"):
        if not isinstance(record.get(key), str):
            problems.append(f"line {lineno}: leaderboard missing string {key!r}")
    for key in ("capacity", "lg_coverage"):
        if not isinstance(record.get(key), (int, float)):
            problems.append(
                f"line {lineno}: leaderboard missing numeric {key!r}"
            )
    entries = record.get("entries")
    if not isinstance(entries, list) or not entries:
        return problems + [
            f"line {lineno}: leaderboard missing non-empty 'entries'"
        ]
    for position, entry in enumerate(entries):
        where = f"line {lineno}: entries[{position}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        rank = entry.get("rank")
        if not isinstance(rank, int) or rank != position + 1:
            problems.append(f"{where}: bad rank {rank!r} (want {position + 1})")
        strategy = entry.get("strategy")
        if strategy not in SWEEP_STRATEGY_NAMES:
            problems.append(f"{where}: unknown strategy {strategy!r}")
        if not isinstance(entry.get("mean_penalty_integral"), (int, float)):
            problems.append(f"{where}: missing numeric 'mean_penalty_integral'")
        runs = entry.get("runs")
        if not isinstance(runs, int) or runs <= 0:
            problems.append(f"{where}: missing positive integer 'runs'")
    return problems


#: Numeric health columns every ok per-DCN entry of a fleet roll-up row
#: must carry.
FLEET_DCN_COLUMNS = (
    "penalty_integral",
    "mean_penalty",
    "onsets",
    "disabled_on_onset",
    "repairs_completed",
    "failed_repairs",
    "worst_tor_fraction_min",
)


def _fleet_row_problems(record: Dict, lineno: int) -> List[str]:
    """Problems with one ``type="fleet"`` roll-up row."""
    problems: List[str] = []
    for key in ("dcns", "ok", "failed", "links_design_total"):
        value = record.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"line {lineno}: fleet missing integer {key!r}")
    for key in ("penalty_integral_total", "onsets_total", "repairs_total"):
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"line {lineno}: fleet missing numeric {key!r}")
    health = record.get("health")
    if not isinstance(health, dict):
        problems.append(f"line {lineno}: fleet missing object 'health'")
    else:
        for key in ("healthy_dcns", "degraded_dcns", "failed_dcns"):
            value = health.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(
                    f"line {lineno}: fleet health missing integer {key!r}"
                )
    per_dcn = record.get("per_dcn")
    if not isinstance(per_dcn, list) or not per_dcn:
        return problems + [
            f"line {lineno}: fleet missing non-empty 'per_dcn'"
        ]
    if isinstance(record.get("dcns"), int) and len(per_dcn) != record["dcns"]:
        problems.append(
            f"line {lineno}: fleet says dcns={record['dcns']} but "
            f"per_dcn has {len(per_dcn)} entries"
        )
    for position, entry in enumerate(per_dcn):
        where = f"line {lineno}: per_dcn[{position}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("dcn"), str):
            problems.append(f"{where}: missing string 'dcn'")
        if entry.get("topo_kind") not in ("clos", "fattree"):
            problems.append(
                f"{where}: bad topo_kind {entry.get('topo_kind')!r}"
            )
        if not isinstance(entry.get("healthy"), bool):
            problems.append(f"{where}: missing boolean 'healthy'")
        status = entry.get("status")
        if status not in ("ok", "failed"):
            problems.append(f"{where}: bad status {status!r}")
        elif status == "ok":
            for key in FLEET_DCN_COLUMNS:
                value = entry.get(key)
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    problems.append(f"{where}: missing numeric {key!r}")
    return problems


def validate_sweep_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a ``repro sweep`` JSONL export (empty list = valid)."""
    problems: List[str] = []
    if not lines:
        return ["empty stream"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: invalid JSON ({exc})"]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("line 1: first record must have type 'header'")
    else:
        if header.get("format") != "repro-sweep":
            problems.append("line 1: wrong or missing 'format'")
        if not isinstance(header.get("format_version"), int):
            problems.append("line 1: missing integer 'format_version'")
        if not header.get("repro_version"):
            problems.append("line 1: missing 'repro_version'")
        if not isinstance(header.get("jobs_total"), int):
            problems.append("line 1: missing integer 'jobs_total'")
        digest = header.get("grid_digest", "")
        if not (isinstance(digest, str) and digest.startswith("sha256:")):
            problems.append("line 1: missing sha256 'grid_digest'")

    jobs_seen = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: record is not an object")
            continue
        if record.get("type") == "leaderboard":
            # Tournament files append ranked leaderboard rows after the
            # result rows; they do not count toward jobs_total.
            problems.extend(_leaderboard_row_problems(record, lineno))
            continue
        if record.get("type") == "fleet":
            # Fleet files append one roll-up row after the per-DCN
            # result rows; it does not count toward jobs_total.
            problems.extend(_fleet_row_problems(record, lineno))
            continue
        if record.get("type") != "result":
            problems.append(
                f"line {lineno}: unknown type {record.get('type')!r}"
            )
            continue
        jobs_seen += 1
        if not isinstance(record.get("job"), int):
            problems.append(f"line {lineno}: missing integer 'job'")
        if not isinstance(record.get("spec"), dict):
            problems.append(f"line {lineno}: missing object 'spec'")
        if not isinstance(record.get("seed_used"), int):
            problems.append(f"line {lineno}: missing integer 'seed_used'")
        status = record.get("status")
        if status not in ("ok", "failed"):
            problems.append(f"line {lineno}: bad status {status!r}")
        elif status == "ok" and record.get("spec", {}).get("kind") != (
            "calibrate"
        ):
            for key in ("penalty_integral", "duration_s"):
                if not isinstance(record.get(key), (int, float)):
                    problems.append(
                        f"line {lineno}: ok result missing numeric {key!r}"
                    )
            digest = record.get("series_digest", "")
            if not (isinstance(digest, str) and digest.startswith("sha256:")):
                problems.append(
                    f"line {lineno}: missing sha256 'series_digest'"
                )
            if record.get("spec", {}).get("kind") == "chaos":
                problems.extend(
                    _chaos_row_problems(record.get("chaos"), lineno)
                )
                problems.extend(
                    _health_row_problems(
                        record.get("health"), f"line {lineno}"
                    )
                )
                if "diagnosis" in record:
                    problems.extend(
                        _diagnosis_row_problems(
                            record["diagnosis"], f"line {lineno}"
                        )
                    )
        elif status == "failed":
            error = record.get("error")
            if not (isinstance(error, dict) and error.get("kind")):
                problems.append(
                    f"line {lineno}: failed result missing structured 'error'"
                )
    if isinstance(header, dict) and isinstance(header.get("jobs_total"), int):
        if jobs_seen != header["jobs_total"]:
            problems.append(
                f"header says jobs_total={header['jobs_total']} but stream "
                f"has {jobs_seen} result rows"
            )
    return problems


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
CHECKPOINT_FORMAT_VERSION = 6

#: Service-report literals, pinned against :mod:`repro.service.service`.
SERVICE_REPORT_FORMAT = "repro-service-report"
SERVICE_REPORT_FORMAT_VERSION = 1


def validate_checkpoint_file(path) -> List[str]:
    """Problems with a service checkpoint file (empty list = valid).

    Validates the JSON header (format, version, required fields) and the
    payload integrity (length and SHA-256 digest) **without unpickling**
    — safe to run on untrusted or truncated files.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return [f"unreadable: {exc}"]
    newline = raw.find(b"\n")
    if newline < 0:
        return ["no header line (not a checkpoint)"]
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"header line is not JSON ({exc})"]
    if not isinstance(header, dict):
        return ["header is not an object"]
    problems: List[str] = []
    if header.get("format") != CHECKPOINT_FORMAT:
        problems.append(f"wrong or missing 'format' {header.get('format')!r}")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        problems.append(
            f"unsupported 'format_version' {header.get('format_version')!r}"
        )
    if not header.get("repro_version"):
        problems.append("missing 'repro_version'")
    if not isinstance(header.get("sim_time_s"), (int, float)):
        problems.append("missing numeric 'sim_time_s'")
    if not isinstance(header.get("boundary_index"), int):
        problems.append("missing integer 'boundary_index'")
    if not isinstance(header.get("config"), dict):
        problems.append("missing object 'config'")
    payload = raw[newline + 1 :]
    if header.get("payload_bytes") != len(payload):
        problems.append(
            f"payload is {len(payload)} bytes, header says "
            f"{header.get('payload_bytes')!r}"
        )
    digest = header.get("state_digest")
    if not isinstance(digest, str):
        problems.append("missing 'state_digest'")
    elif hashlib.sha256(payload).hexdigest() != digest:
        problems.append("state_digest mismatch (corrupt payload)")
    return problems


def validate_service_report_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with a ``repro serve`` report (empty list = valid)."""
    problems: List[str] = []
    if not lines:
        return ["empty stream"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: invalid JSON ({exc})"]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("line 1: first record must have type 'header'")
    else:
        if header.get("format") != SERVICE_REPORT_FORMAT:
            problems.append("line 1: wrong or missing 'format'")
        if not isinstance(header.get("format_version"), int):
            problems.append("line 1: missing integer 'format_version'")
        if not header.get("repro_version"):
            problems.append("line 1: missing 'repro_version'")
        if not isinstance(header.get("config"), dict):
            problems.append("line 1: missing object 'config'")
        shards = header.get("shards")
        if not isinstance(shards, int) or shards < 1:
            problems.append("line 1: missing positive integer 'shards'")

    results_seen = 0
    shards_seen = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {lineno}: record is not an object")
            continue
        kind = record.get("type")
        if kind == "result":
            results_seen += 1
            for key in ("penalty_integral", "mean_penalty"):
                if not isinstance(record.get(key), (int, float)):
                    problems.append(
                        f"line {lineno}: result missing numeric {key!r}"
                    )
            digest = record.get("fingerprint", "")
            if not (isinstance(digest, str) and digest.startswith("sha256:")):
                problems.append(
                    f"line {lineno}: missing sha256 'fingerprint'"
                )
            if not isinstance(record.get("invariants_ok"), bool):
                problems.append(
                    f"line {lineno}: missing boolean 'invariants_ok'"
                )
            chaos = record.get("chaos")
            if not isinstance(chaos, dict):
                problems.append(f"line {lineno}: missing object 'chaos'")
            else:
                for key in CHAOS_COUNT_COLUMNS:
                    value = chaos.get(key)
                    if not isinstance(value, int) or isinstance(value, bool):
                        problems.append(
                            f"line {lineno}: chaos block missing integer "
                            f"{key!r}"
                        )
            queue = record.get("queue")
            if not isinstance(queue, dict):
                problems.append(f"line {lineno}: missing object 'queue'")
            else:
                if queue.get("accounting_ok") is not True:
                    problems.append(
                        f"line {lineno}: queue accounting not ok"
                    )
                for key in (
                    "offered",
                    "accepted",
                    "deferred",
                    "requeued",
                    "dropped",
                    "drained",
                    "pending",
                    "backpressure_losses",
                ):
                    value = queue.get(key)
                    if not isinstance(value, int) or isinstance(value, bool):
                        problems.append(
                            f"line {lineno}: queue missing integer {key!r}"
                        )
            audit = record.get("audit")
            if not isinstance(audit, dict) or not isinstance(
                audit.get("evicted_decisions"), int
            ):
                problems.append(
                    f"line {lineno}: missing audit.evicted_decisions"
                )
            problems.extend(
                _health_row_problems(record.get("health"), f"line {lineno}")
            )
        elif kind == "shard":
            if record.get("shard") != shards_seen:
                problems.append(
                    f"line {lineno}: shard rows out of order "
                    f"(got {record.get('shard')!r}, want {shards_seen})"
                )
            shards_seen += 1
            if not isinstance(record.get("log"), dict):
                problems.append(f"line {lineno}: shard missing object 'log'")
            for key in ("links", "tors"):
                if not isinstance(record.get(key), int):
                    problems.append(
                        f"line {lineno}: shard missing integer {key!r}"
                    )
        else:
            problems.append(f"line {lineno}: unknown type {kind!r}")
    if results_seen != 1:
        problems.append(f"stream has {results_seen} result rows (want 1)")
    if isinstance(header, dict) and isinstance(header.get("shards"), int):
        if shards_seen != header["shards"]:
            problems.append(
                f"header says shards={header['shards']} but stream has "
                f"{shards_seen} shard rows"
            )
    return problems


def validate_benchmark_record(record: object) -> List[str]:
    """Problems with a machine-readable benchmark result (empty = valid).

    Every ``benchmarks/test_runtime_*`` module writes one of these next to
    its human-readable summary so regressions are diffable by tooling.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["benchmark record is not a JSON object"]
    if record.get("format") != "repro-benchmark":
        problems.append("wrong or missing 'format' (want 'repro-benchmark')")
    if not isinstance(record.get("format_version"), int):
        problems.append("missing integer 'format_version'")
    if not record.get("repro_version"):
        problems.append("missing 'repro_version'")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        problems.append("missing non-empty string 'name'")
    env = record.get("environment")
    if not isinstance(env, dict) or not isinstance(env.get("cpus"), int):
        problems.append("missing environment.cpus")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("missing non-empty 'metrics' object")
    else:
        for key, value in metrics.items():
            if not isinstance(value, (int, float, bool)):
                problems.append(f"metrics[{key!r}] is not numeric")
    return problems


#: Health/SLO literals, pinned against :mod:`repro.obs.health` and
#: :mod:`repro.obs.slo` by the health tests.
HEALTH_FORMAT = "repro-health-scorecard"
HEALTH_FORMAT_VERSION = 1
ALERTS_FORMAT = "repro-health-alerts"
ALERTS_FORMAT_VERSION = 1


def validate_health_scorecard(obj: object) -> List[str]:
    """Problems with a health scorecard object (empty list = valid)."""
    if not isinstance(obj, dict):
        return ["scorecard is not a JSON object"]
    problems: List[str] = []
    if obj.get("format") != HEALTH_FORMAT:
        problems.append(f"wrong or missing 'format' {obj.get('format')!r}")
    if obj.get("format_version") != HEALTH_FORMAT_VERSION:
        problems.append(
            f"unsupported 'format_version' {obj.get('format_version')!r}"
        )
    if not obj.get("repro_version"):
        problems.append("missing 'repro_version'")
    sensing = obj.get("sensing")
    if sensing not in ("telemetry", "oracle"):
        problems.append(f"bad 'sensing' {sensing!r}")
    if not isinstance(obj.get("complete"), bool):
        problems.append("missing boolean 'complete'")
    if not isinstance(obj.get("end_s"), (int, float)):
        problems.append("missing numeric 'end_s'")
    fleet = obj.get("fleet")
    if not isinstance(fleet, dict):
        problems.append("missing object 'fleet'")
    elif sensing == "telemetry":
        for section in (
            "detection",
            "mitigation",
            "disables",
            "penalty",
            "capacity",
            "quarantine",
            "breaker",
            "debounce",
        ):
            if not isinstance(fleet.get(section), dict):
                problems.append(f"fleet missing object {section!r}")
        detection = fleet.get("detection")
        if isinstance(detection, dict):
            for key in ("count", "pending", "overdue"):
                value = detection.get(key)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append(
                        f"fleet.detection missing integer {key!r}"
                    )
        disables = fleet.get("disables")
        if isinstance(disables, dict):
            rate = disables.get("false_rate")
            if not isinstance(rate, (int, float)) or isinstance(rate, bool):
                problems.append("fleet.disables missing numeric 'false_rate'")
    shards = obj.get("shards")
    if not isinstance(shards, list):
        problems.append("missing list 'shards'")
    else:
        for index, shard in enumerate(shards):
            if not isinstance(shard, dict) or shard.get("shard") != index:
                problems.append(f"shards[{index}]: bad or out-of-order row")
    links = obj.get("links")
    if not isinstance(links, list):
        problems.append("missing list 'links'")
    else:
        for index, link in enumerate(links):
            if not isinstance(link, dict) or not isinstance(
                link.get("link"), str
            ):
                problems.append(f"links[{index}]: missing string 'link'")
            elif not isinstance(link.get("onset_s"), (int, float)):
                problems.append(f"links[{index}]: missing numeric 'onset_s'")
    if not isinstance(obj.get("links_omitted"), int):
        problems.append("missing integer 'links_omitted'")
    slo = obj.get("slo")
    if not isinstance(slo, dict):
        problems.append("missing object 'slo'")
    else:
        if not isinstance(slo.get("rules"), list):
            problems.append("slo missing list 'rules'")
        if not isinstance(slo.get("alerts"), list):
            problems.append("slo missing list 'alerts'")
        elif slo.get("alerts_fired") != len(slo["alerts"]):
            problems.append(
                "slo.alerts_fired disagrees with len(slo.alerts)"
            )
        if not isinstance(slo.get("ok"), bool):
            problems.append("slo missing boolean 'ok'")
        for index, rule in enumerate(slo.get("rules") or []):
            if not isinstance(rule, dict) or rule.get("state") not in (
                "ok",
                "firing",
            ):
                problems.append(f"slo.rules[{index}]: bad 'state'")
    return problems


def validate_alerts_jsonl(lines: Sequence[str]) -> List[str]:
    """Problems with an SLO alert stream (empty list = valid)."""
    problems: List[str] = []
    if not lines:
        return ["empty stream"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"line 1: invalid JSON ({exc})"]
    declared_alerts = None
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("line 1: first record must have type 'header'")
    else:
        if header.get("format") != ALERTS_FORMAT:
            problems.append("line 1: wrong or missing 'format'")
        if header.get("format_version") != ALERTS_FORMAT_VERSION:
            problems.append("line 1: unsupported 'format_version'")
        if not header.get("repro_version"):
            problems.append("line 1: missing 'repro_version'")
        if not isinstance(header.get("rules"), list):
            problems.append("line 1: missing list 'rules'")
        declared_alerts = header.get("alerts")
        if not isinstance(declared_alerts, int):
            problems.append("line 1: missing integer 'alerts'")
            declared_alerts = None

    alerts_seen = 0
    last_time = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        if not isinstance(record, dict) or record.get("type") != "alert":
            problems.append(f"line {lineno}: not an alert record")
            continue
        alerts_seen += 1
        time_s = record.get("sim_time_s")
        if not isinstance(time_s, (int, float)):
            problems.append(f"line {lineno}: missing numeric 'sim_time_s'")
        elif last_time is not None and time_s < last_time:
            problems.append(f"line {lineno}: alerts out of event-time order")
        else:
            last_time = time_s
        if not isinstance(record.get("rule"), str):
            problems.append(f"line {lineno}: missing string 'rule'")
        if record.get("state") not in ("firing", "resolved"):
            problems.append(
                f"line {lineno}: bad state {record.get('state')!r}"
            )
        if record.get("severity") not in ("info", "warning", "critical"):
            problems.append(
                f"line {lineno}: bad severity {record.get('severity')!r}"
            )
        value = record.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"line {lineno}: missing numeric 'value'")
    if declared_alerts is not None and alerts_seen != declared_alerts:
        problems.append(
            f"header says alerts={declared_alerts} but stream has "
            f"{alerts_seen} alert rows"
        )
    return problems


#: Benchmark-trajectory literals, pinned against :mod:`repro.benchtrack`.
BENCH_TRAJECTORY_FORMAT = "repro-bench-trajectory"
BENCH_TRAJECTORY_FORMAT_VERSION = 1


def validate_bench_trajectory(obj: object) -> List[str]:
    """Problems with a benchmark trajectory file (empty list = valid)."""
    if not isinstance(obj, dict):
        return ["trajectory is not a JSON object"]
    problems: List[str] = []
    if obj.get("format") != BENCH_TRAJECTORY_FORMAT:
        problems.append(f"wrong or missing 'format' {obj.get('format')!r}")
    if obj.get("format_version") != BENCH_TRAJECTORY_FORMAT_VERSION:
        problems.append(
            f"unsupported 'format_version' {obj.get('format_version')!r}"
        )
    if not obj.get("repro_version"):
        problems.append("missing 'repro_version'")
    benchmarks = obj.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        problems.append("missing non-empty object 'benchmarks'")
        benchmarks = {}
    for name, entry in benchmarks.items():
        where = f"benchmarks[{name!r}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            problems.append(f"{where}: missing non-empty 'metrics'")
            continue
        for key, value in metrics.items():
            if not isinstance(value, (int, float, bool)):
                problems.append(f"{where}: metrics[{key!r}] is not numeric")
        runtime = entry.get("runtime_metrics")
        if not isinstance(runtime, list):
            problems.append(f"{where}: missing list 'runtime_metrics'")
        else:
            for key in runtime:
                if key not in metrics:
                    problems.append(
                        f"{where}: runtime metric {key!r} not in metrics"
                    )
    baseline = obj.get("baseline")
    if not isinstance(baseline, dict):
        problems.append("missing object 'baseline'")
    else:
        for name, entry in baseline.items():
            where = f"baseline[{name!r}]"
            if not isinstance(entry, dict):
                problems.append(f"{where}: not an object")
                continue
            for key, value in entry.items():
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    problems.append(f"{where}: {key!r} is not numeric")
    return problems
