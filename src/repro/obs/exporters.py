"""Exporters: Prometheus text, JSONL event stream, Chrome trace.

Every artifact leads with provenance — package version, git SHA when
available, and the run manifest — so files are self-describing:

- **Prometheus text** (``*.prom``): the classic exposition format; header
  lines are ``#`` comments, so any Prometheus scraper/parser accepts the
  snapshot unchanged.
- **JSONL events** (``*.jsonl``): first line is a header record
  (``type: "header"``), then one JSON object per event in emission order.
- **Chrome trace** (``*.trace.json``): the ``traceEvents`` JSON object
  format; load in ``about:tracing`` or https://ui.perfetto.dev.  Spans are
  complete (``"ph": "X"``) events in wall-clock microseconds with sim-time
  bounds in ``args``.

Schema validators for all three live in :mod:`repro.obs.schema`; the CI
job round-trips emitted artifacts through them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.obs.manifest import RunManifest, git_sha, package_version
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import SpanTracer

#: Bumped when an exporter's layout changes incompatibly.
EVENTS_FORMAT_VERSION = 1
TRACE_FORMAT_VERSION = 1
PROM_FORMAT_VERSION = 1


def _provenance(manifest: Optional[RunManifest]) -> Dict[str, object]:
    if manifest is not None:
        return {
            "repro_version": manifest.repro_version,
            "git_sha": manifest.git_sha,
        }
    return {"repro_version": package_version(), "git_sha": git_sha()}


# ---------------------------------------------------------------------- #
# Prometheus text format
# ---------------------------------------------------------------------- #


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(key, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(key) + sorted((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(
    registry: MetricsRegistry,
    manifest: Optional[RunManifest] = None,
    sim_time_s: Optional[float] = None,
) -> str:
    """Render a registry snapshot in the Prometheus exposition format."""
    prov = _provenance(manifest)
    lines: List[str] = [
        f"# repro-obs prometheus snapshot format={PROM_FORMAT_VERSION}",
        f"# repro-version: {prov['repro_version']}",
    ]
    if prov["git_sha"]:
        lines.append(f"# git-sha: {prov['git_sha']}")
    if sim_time_s is not None:
        lines.append(f"# sim-time-s: {_format_value(sim_time_s)}")
    if manifest is not None and manifest.topology.get("digest"):
        lines.append(f"# topology-digest: {manifest.topology['digest']}")

    for inst in registry.instruments():
        lines.append(f"# HELP {inst.name} {inst.help or inst.name}")
        lines.append(f"# TYPE {inst.name} {inst.kind}")
        if inst.kind == "histogram":
            for key, histogram in sorted(inst.histograms.items()):
                for le, cum in histogram.cumulative():
                    labels = _format_labels(key, {"le": le})
                    lines.append(f"{inst.name}_bucket{labels} {cum}")
                lines.append(
                    f"{inst.name}_sum{_format_labels(key)} "
                    f"{_format_value(histogram.total)}"
                )
                lines.append(
                    f"{inst.name}_count{_format_labels(key)} {histogram.count}"
                )
        else:
            for key, value in inst.samples():
                lines.append(
                    f"{inst.name}{_format_labels(key)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def write_prometheus(
    path,
    registry: MetricsRegistry,
    manifest: Optional[RunManifest] = None,
    sim_time_s: Optional[float] = None,
) -> Path:
    out = Path(path)
    out.write_text(
        prometheus_text(registry, manifest, sim_time_s), encoding="utf-8"
    )
    return out


# ---------------------------------------------------------------------- #
# JSONL event stream
# ---------------------------------------------------------------------- #


def events_header(manifest: Optional[RunManifest] = None) -> Dict[str, object]:
    header: Dict[str, object] = {
        "type": "header",
        "format": "repro-obs-events",
        "format_version": EVENTS_FORMAT_VERSION,
    }
    header.update(_provenance(manifest))
    if manifest is not None:
        header["manifest"] = manifest.to_dict()
    return header


def events_jsonl_lines(
    events: Iterable[Dict[str, object]],
    manifest: Optional[RunManifest] = None,
) -> Iterable[str]:
    """Header line followed by one compact JSON object per event."""
    yield json.dumps(events_header(manifest), sort_keys=True)
    for event in events:
        yield json.dumps(event, sort_keys=True, default=str)


def write_events_jsonl(
    path,
    events: Iterable[Dict[str, object]],
    manifest: Optional[RunManifest] = None,
) -> Path:
    out = Path(path)
    with open(out, "w", encoding="utf-8") as handle:
        for line in events_jsonl_lines(events, manifest):
            handle.write(line + "\n")
    return out


# ---------------------------------------------------------------------- #
# Chrome trace (about:tracing / Perfetto)
# ---------------------------------------------------------------------- #


def chrome_trace(
    tracer: SpanTracer,
    manifest: Optional[RunManifest] = None,
    process_name: str = "repro",
) -> Dict[str, object]:
    """Build the Chrome ``traceEvents`` object from recorded spans."""
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for span in tracer.spans:
        args: Dict[str, object] = {
            "sim_time_start_s": span.start_sim_s,
            "sim_time_end_s": span.end_sim_s,
        }
        args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.cat or "repro",
                "ph": "X",
                "ts": span.start_wall_us,
                "dur": span.dur_wall_us,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    other: Dict[str, object] = {
        "format_version": TRACE_FORMAT_VERSION,
        "dropped_spans": tracer.dropped,
    }
    other.update(_provenance(manifest))
    if manifest is not None:
        other["manifest"] = manifest.to_dict()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path,
    tracer: SpanTracer,
    manifest: Optional[RunManifest] = None,
) -> Path:
    out = Path(path)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer, manifest), handle, default=str)
        handle.write("\n")
    return out
