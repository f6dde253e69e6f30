"""Verdict matrix: every artifact validator against every mutation of every key.

One valid artifact of each format is built from tiny runs — a chaos run
with the hotspot congestion co-model and every ``--*-out``, a chaos sweep,
a calibrate sweep with one failed job, a tournament, a 2-DCN fleet, a
``repro serve`` with checkpoints — or read from the repository (a
benchmark record).  Each key path of it is
then mutated: deleted, set to null, given a value of the wrong type, a
bool in place of a number, a string outside any enum, an integer moved by
one (a broken count or rank), two list items swapped (a broken order).
JSONL rows are also dropped, swapped with the next row, or replaced by a
line that is not JSON.  Every mutation's verdict is one of

- ``valid``: no problem reported;
- ``named``: rejected, and some problem names the mutated key;
- ``unnamed``: rejected, but no problem names the key;
- ``crash``: the validator raised.

The matrix must equal the committed ``schema_matrix.json``, so a change
to any verdict on these inputs is a reviewable diff of that file.  List
items are sampled one per distinct key set, JSONL rows one per distinct
``type`` and key set.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import schema
from repro.parallel import JobSpec, ParallelRunner
from repro.parallel.aggregate import write_sweep_jsonl

ROOT = Path(__file__).resolve().parents[2]
SNAPSHOT = Path(__file__).with_name("schema_matrix.json")
BENCHMARK_RECORD = ROOT / "benchmarks" / "results" / "fig18_optimizer_gain.json"

_DELETE = object()

#: Horizon and scale shared by the sweep and serve runs.
_SMALL = ["--scale", "0.06", "--days", "0.5"]

JSONL_VALIDATORS = {
    "events": schema.validate_events_jsonl,
    "audit": schema.validate_audit_jsonl,
    "alerts": schema.validate_alerts_jsonl,
    "sweep-chaos": schema.validate_sweep_jsonl,
    "sweep-calibrate": schema.validate_sweep_jsonl,
    "tournament": schema.validate_sweep_jsonl,
    "fleet": schema.validate_sweep_jsonl,
    "service-report": schema.validate_service_report_jsonl,
}
OBJECT_VALIDATORS = {
    "trace": schema.validate_chrome_trace,
    "health": schema.validate_health_scorecard,
    "benchmark": schema.validate_benchmark_record,
}


def _build_artifacts(out: Path) -> dict:
    """Run the tiny campaigns; return ``{label: lines, object or bytes}``."""
    chaos_outs = ("metrics", "events", "trace", "manifest", "audit",
                  "health", "alerts")
    assert main([
        "chaos", "--preset", "harsh", "--scale", "0.08", "--days", "1",
        "--congestion-preset", "hotspots",
        *[arg for name in chaos_outs
          for arg in (f"--{name}-out", str(out / name))],
    ]) == 0
    assert main([
        "sweep", "--chaos-preset", "mild", "--congestion-presets",
        "hotspots", "--seeds", "0:2", *_SMALL, "--events", "400",
        "--no-timing", "--out", str(out / "sweep-chaos"),
    ]) == 0
    mixed = ParallelRunner(jobs=1, max_retries=0).run([
        JobSpec(kind="calibrate", trace_seed=2),
        JobSpec(kind="calibrate", trace_seed=1,
                knobs=(("fail_attempts", 99.0),)),
    ])
    write_sweep_jsonl(out / "sweep-calibrate", mixed, timing=False)
    assert main([
        "tournament", "--presets", "medium", "--strategies", "corropt,none",
        "--capacities", "0.75", "--penalties", "linear", "--seeds", "0",
        "--scale", "0.06", "--days", "2", "--no-timing",
        "--out", str(out / "tournament"),
    ]) == 0
    assert main([
        "fleet", "--dcns", "2", "--scale", "0.04", "--days", "2",
        "--no-timing", "--out", str(out / "fleet"),
    ]) == 0
    assert main([
        "serve", *_SMALL, "--seed", "7", "--fault-seed", "7",
        "--chaos-preset", "mild", "--checkpoint-every", "4",
        "--checkpoint-dir", str(out / "ck"),
        "--out", str(out / "service-report"),
    ]) == 0

    artifacts = {
        label: [
            json.dumps(_without_git_sha(json.loads(line)))
            for line in (out / label).read_text().splitlines()
        ]
        for label in JSONL_VALIDATORS
    }
    # The event stream has no row count; one row per shape keeps it short.
    artifacts["events"] = _one_row_per_shape(artifacts["events"])
    artifacts["trace"] = _without_git_sha(
        json.loads((out / "trace").read_text())
    )
    artifacts["health"] = json.loads((out / "health").read_text())
    artifacts["metrics"] = (out / "metrics").read_text()
    artifacts["benchmark"] = json.loads(BENCHMARK_RECORD.read_text())
    artifacts["checkpoint"] = (
        out / "ck" / "checkpoint-000001.ckpt"
    ).read_bytes()
    return artifacts


def _without_git_sha(value):
    """``value`` with every ``git_sha`` nulled: it is null outside a git
    checkout, and the matrix must not depend on where it runs."""
    if isinstance(value, dict):
        return {
            key: None if key == "git_sha" else _without_git_sha(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_without_git_sha(item) for item in value]
    return value


def _shape(record: dict):
    return record.get("type"), tuple(sorted(record))


def _one_row_per_shape(lines):
    """The first row of each distinct ``type`` and key set, in order."""
    seen, kept = set(), []
    for line in lines:
        shape = _shape(json.loads(line))
        if shape not in seen:
            seen.add(shape)
            kept.append(line)
    return kept


def _paths(value, prefix=()):
    """Key paths to mutate: every dict key, one list item per key set."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield prefix + (key,)
            yield from _paths(value[key], prefix + (key,))
    elif isinstance(value, list):
        seen = set()
        for index, item in enumerate(value):
            shape = (
                tuple(sorted(item)) if isinstance(item, dict)
                else type(item).__name__
            )
            if shape not in seen:
                seen.add(shape)
                yield prefix + (index,)
                yield from _paths(item, prefix + (index,))


def _wrong_type(value):
    if isinstance(value, dict):
        return []
    if isinstance(value, (list, str)):
        return 5
    return "x"


def _mutations(value, in_dict: bool):
    """``(name, replacement)`` pairs that apply to ``value``."""
    out = [("delete", _DELETE)] if in_dict else []
    out += [("null", None), ("type", _wrong_type(value))]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(("bool", True))
        if isinstance(value, int):
            out.append(("count", value + 1))
    if isinstance(value, str):
        out.append(("enum", "not-a-member"))
    if isinstance(value, list) and len(value) >= 2:
        out.append(("order", [value[1], value[0], *value[2:]]))
    return out


def _lookup(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _mutated(obj, path, replacement):
    """A deep copy of ``obj`` with ``path`` replaced (or deleted)."""
    copy = json.loads(json.dumps(obj))
    parent = _lookup(copy, path[:-1])
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return copy


def _verdict(validate, payload, key: str) -> str:
    try:
        problems = validate(payload)
    except Exception:  # noqa: BLE001 - a crash is the verdict
        return "crash"
    if not problems:
        return "valid"
    return "named" if any(key in p for p in problems) else "unnamed"


def _key_of(path, fallback: str) -> str:
    names = [step for step in path if isinstance(step, str)]
    return names[-1] if names else fallback


def _path_id(path) -> str:
    return "".join(
        f"[{step}]" if isinstance(step, int) else f".{step}" for step in path
    )


def _key_rows(prefix, validate, obj, wrap, fallback):
    """One row per key path of ``obj``; ``wrap`` rebuilds the artifact."""
    rows = {}
    for path in _paths(obj):
        key = _key_of(path, fallback)
        rows[f"{prefix}{_path_id(path)}"] = " ".join(
            f"{name}={_verdict(validate, wrap(_mutated(obj, path, new)), key)}"
            for name, new in _mutations(
                _lookup(obj, path), isinstance(path[-1], str)
            )
        )
    return rows


def _object_rows(label, validate, obj):
    rows = {f"{label}:": "type=" + _verdict(validate, [], label)}
    rows.update(_key_rows(f"{label}:", validate, obj, lambda o: o, label))
    return rows


def _jsonl_rows(label, validate, lines):
    rows = {}
    seen = set()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if _shape(record) in seen:
            continue
        seen.add(_shape(record))
        kind = str(record.get("type"))
        edits = [("garbage", lines[:index] + ["not json"] + lines[index + 1:])]
        if len(lines) > 1:
            edits.append(("drop", lines[:index] + lines[index + 1:]))
        if index + 1 < len(lines):
            swapped = list(lines)
            swapped[index : index + 2] = [lines[index + 1], lines[index]]
            edits.append(("order", swapped))
        prefix = f"{label}:line{index + 1}"
        rows[prefix] = " ".join(
            f"{name}={_verdict(validate, edited, f'line {index + 1}')}"
            for name, edited in edits
        )

        def wrap(changed, index=index):
            return lines[:index] + [json.dumps(changed)] + lines[index + 1:]

        rows.update(_key_rows(prefix, validate, record, wrap, kind))
    return rows


def _checkpoint_rows(raw: bytes, tmp: Path):
    newline = raw.index(b"\n")
    payload = raw[newline:]
    path = tmp / "mutated.ckpt"

    def validate(header):
        path.write_bytes(json.dumps(header).encode() + payload)
        return schema.validate_checkpoint_file(path)

    return _object_rows("checkpoint", validate, json.loads(raw[:newline]))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("schema-matrix")
    return out, _build_artifacts(out)


def build_matrix(out: Path, artifacts: dict) -> dict:
    """The verdict matrix over ``artifacts`` (scratch files under ``out``)."""
    matrix = {}
    for label, validate in JSONL_VALIDATORS.items():
        matrix.update(_jsonl_rows(label, validate, artifacts[label]))
    for label, validate in OBJECT_VALIDATORS.items():
        matrix.update(_object_rows(label, validate, artifacts[label]))
    matrix.update(_checkpoint_rows(artifacts["checkpoint"], out))
    return dict(sorted(matrix.items()))


def test_every_artifact_starts_valid(built):
    out, artifacts = built
    for label, validate in {**JSONL_VALIDATORS, **OBJECT_VALIDATORS}.items():
        assert validate(artifacts[label]) == [], label
    assert schema.validate_prometheus_text(artifacts["metrics"]) == []
    assert schema.validate_checkpoint_file(
        out / "ck" / "checkpoint-000001.ckpt"
    ) == []


def test_verdict_matrix_matches_snapshot(built):
    matrix = build_matrix(*built)
    expected = json.loads(SNAPSHOT.read_text())
    changed = {
        key: [expected.get(key), matrix.get(key)]
        for key in sorted(expected.keys() | matrix.keys())
        if expected.get(key) != matrix.get(key)
    }
    assert not changed, json.dumps(changed, indent=1)


def _with(lines, index, **changes):
    row = json.loads(lines[index])
    row.update(changes)
    return lines[:index] + [json.dumps(row)] + lines[index + 1:]


@pytest.mark.parametrize("spec", [None, [], 5])
def test_non_object_spec_on_an_ok_row_is_a_problem(built, spec):
    lines = _with(built[1]["sweep-chaos"], 1, spec=spec)
    problems = schema.validate_sweep_jsonl(lines)
    assert any(p.startswith("line 2: ") and "'spec'" in p for p in problems)


def test_truthy_non_list_slo_rules_is_a_problem(built):
    card = json.loads(json.dumps(built[1]["health"]))
    card["slo"]["rules"] = 5
    problems = schema.validate_health_scorecard(card)
    assert any("'rules'" in p for p in problems)


@pytest.mark.parametrize("label, index, key", [
    ("events", 1, "sim_time_s"),
    ("audit", 1, "sim_time_s"),
    ("alerts", 1, "sim_time_s"),
    ("tournament", -1, "capacity"),
    ("tournament", -1, "lg_coverage"),
    ("sweep-chaos", 1, "penalty_integral"),
    ("sweep-chaos", 1, "duration_s"),
])
def test_numbers_never_accept_bools(built, label, index, key):
    lines = list(built[1][label])
    lines = _with(lines, index % len(lines), **{key: True})
    assert any(key in p for p in JSONL_VALIDATORS[label](lines))


@pytest.mark.parametrize("key", ["ts", "dur"])
def test_span_times_never_accept_bools(built, key):
    trace = json.loads(json.dumps(built[1]["trace"]))
    next(e for e in trace["traceEvents"] if e["ph"] == "X")[key] = True
    assert any(key in p for p in schema.validate_chrome_trace(trace))


def test_benchmark_metrics_still_accept_bools(built):
    record = json.loads(json.dumps(built[1]["benchmark"]))
    record["metrics"]["flag"] = True
    assert schema.validate_benchmark_record(record) == []
