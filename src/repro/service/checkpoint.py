"""Versioned, digest-stamped service checkpoints.

A checkpoint file is one JSON header line followed by a pickle payload::

    {"format": "repro-checkpoint", "format_version": <N>, ...}\\n
    <pickle bytes of the whole ControllerService object graph>

where ``<N>`` is :data:`~repro.obs.schema.CHECKPOINT_FORMAT_VERSION`; a
reader refuses any other version before unpickling.

It is written to a sibling temporary file and renamed into place, so a
crash mid-write leaves the previous checkpoint at ``path``, never a torn
one.

The header carries provenance (format, versions, sim time, boundary
index, config echo) plus ``state_digest`` — the SHA-256 of the payload
bytes — and ``payload_bytes``, so integrity can be validated without
unpickling (see :func:`repro.obs.schema.validate_checkpoint_file`, which
the ``repro obs --validate --checkpoint`` CLI and the CI job use).

Determinism note: the *payload bytes* are not canonical across python
processes (set iteration orders differ with the per-process string hash
seed), so the digest guards integrity, not identity.  What IS canonical
is the resumed behaviour: restoring a checkpoint and draining the run
produces byte-identical final reports and fingerprints to the
uninterrupted run — that is pinned by tests/service and the
checkpoint-determinism CI job.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Tuple

from repro._version import __version__
from repro.obs.schema import CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_VERSION

#: Fixed protocol so checkpoints written on newer interpreters stay
#: readable on the older end of the supported range.
_PICKLE_PROTOCOL = 4


def write_checkpoint(
    path,
    service: Any,
    sim_time_s: float,
    boundary_index: int,
    config: Dict[str, Any],
) -> Dict[str, Any]:
    """Snapshot ``service`` to ``path``; returns the header written."""
    payload = pickle.dumps(service, protocol=_PICKLE_PROTOCOL)
    header = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "repro_version": __version__,
        "sim_time_s": sim_time_s,
        "boundary_index": boundary_index,
        "payload_bytes": len(payload),
        "state_digest": hashlib.sha256(payload).hexdigest(),
        "config": config,
    }
    header_line = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    out = Path(path)
    temp = out.with_name(out.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(header_line + b"\n")
            handle.write(payload)
        os.replace(temp, out)
    finally:
        # Gone already after the rename; left behind by a failed write.
        temp.unlink(missing_ok=True)
    return header


def _split(path) -> Tuple[Dict[str, Any], bytes]:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: not a checkpoint (no header line)")
    header = json.loads(raw[:newline].decode("utf-8"))
    return header, raw[newline + 1 :]


def read_checkpoint(path) -> Tuple[Dict[str, Any], Any]:
    """Load a checkpoint; verifies format, version, and digest.

    Returns ``(header, service)``.  Raises ``ValueError`` on a wrong
    format/version or a digest mismatch (truncated or tampered file) —
    never unpickles a payload that fails validation.
    """
    header, payload = _split(path)
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: wrong format {header.get('format')!r}")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version "
            f"{header.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    if header.get("payload_bytes") != len(payload):
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, header says "
            f"{header.get('payload_bytes')}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if header.get("state_digest") != digest:
        raise ValueError(f"{path}: state digest mismatch (corrupt payload)")
    return header, pickle.loads(payload)
