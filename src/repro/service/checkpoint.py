"""Versioned, digest-stamped service checkpoints.

A checkpoint file is one JSON header line followed by the payload: a
protocol-5 pickle stream of the whole ControllerService object graph,
then the raw bytes of every contiguous numpy column it refers to::

    {"format": "repro-checkpoint", "format_version": <N>, ...}\\n
    <pickle stream><frame 1><frame 2>...

where ``<N>`` is :data:`~repro.obs.schema.CHECKPOINT_FORMAT_VERSION`; a
reader refuses any other version before unpickling.  The columns are
written from their own memory (no copy), and a read loads the file into
one writable buffer whose slices ``pickle.loads`` turns into the
restored columns (views, not copies).  The telemetry stages store no
direction names: each keeps a direction in its row of the poller's
direction table, which is derived from the topology and rebuilt, not
stored.

The header carries provenance (format, versions, sim time, boundary
index, config echo), ``frames`` (byte lengths of the stream and each
frame, in file order), ``payload_bytes`` (their sum) and
``state_digest`` (SHA-256 of the frame lengths and the payload), so
integrity can be validated without unpickling (see
:func:`repro.obs.schema.validate_checkpoint_file`, which the ``repro obs
--validate --checkpoint`` CLI and the CI job use).  The file is written
to a sibling temporary file, fsync'd, renamed into place and its
directory fsync'd: a crash leaves the previous checkpoint, never a torn
one.

Determinism note: the *payload bytes* are not canonical across python
processes (set iteration orders differ with the per-process string hash
seed), so the digest guards integrity, not identity.  What IS canonical
is the resumed behaviour: restoring a checkpoint and draining the run
produces byte-identical final reports and fingerprints to the
uninterrupted run — that is pinned by tests/service and the
checkpoint-determinism CI job.
"""

from __future__ import annotations

import json
import os
import pickle
from itertools import accumulate
from pathlib import Path
from typing import Any, Dict, Tuple

from repro._version import __version__
from repro.obs.schema import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_FORMAT_VERSION,
    checkpoint_digest,
    checkpoint_header,
    checkpoint_payload_problems,
)


def write_checkpoint(
    path,
    service: Any,
    sim_time_s: float,
    boundary_index: int,
    config: Dict[str, Any],
) -> Dict[str, Any]:
    """Snapshot ``service`` to ``path``; returns the header written."""
    buffers = []
    stream = pickle.dumps(  # protocol 5: columns as out-of-band buffers
        service, protocol=5, buffer_callback=buffers.append
    )
    parts = [stream] + [buffer.raw() for buffer in buffers]
    frames = [memoryview(part).nbytes for part in parts]
    header = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "repro_version": __version__,
        "sim_time_s": sim_time_s,
        "boundary_index": boundary_index,
        "frames": frames,
        "payload_bytes": sum(frames),
        "state_digest": checkpoint_digest(frames, parts),
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
            for part in parts:
                handle.write(part)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, out)
    finally:
        # Gone already after the rename; left behind by a failed write.
        temp.unlink(missing_ok=True)
    directory = os.open(out.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # the rename itself
    finally:
        os.close(directory)
    return header


def read_checkpoint(path) -> Tuple[Dict[str, Any], Any]:
    """Load a checkpoint; verifies header, format, version, frames and
    digest.

    Returns ``(header, service)``.  Raises ``ValueError`` on a header line
    that is not a JSON object, a wrong format/version, frame lengths that
    do not add up or a digest mismatch (truncated or tampered file) —
    never unpickles a payload that fails validation.
    """
    with Path(path).open("rb") as handle:
        raw = bytearray(os.fstat(handle.fileno()).st_size)
        handle.readinto(raw)
    try:
        header, start = checkpoint_header(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: wrong format {header.get('format')!r}")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version "
            f"{header.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    payload = memoryview(raw)[start:]
    problems = checkpoint_payload_problems(header, payload)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    ends = list(accumulate(header["frames"]))
    return header, pickle.loads(
        payload[: ends[0]],
        buffers=[payload[start:end] for start, end in zip(ends, ends[1:])],
    )
