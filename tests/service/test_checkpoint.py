"""Checkpoint file format: round-trip, integrity validation, pinning.

A checkpoint is one JSON header line + a payload: a pickle stream and
the raw frames of its numpy columns.  The reader must verify format,
version, frame lengths, length and digest *before* unpickling; the
schema validator must reach the same verdicts without unpickling at all.
"""

import hashlib
import json
import os
import pickle
import stat

import numpy as np
import pytest

from repro.obs import schema, validate_checkpoint_file
from repro.service import checkpoint
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_FORMAT_VERSION,
    read_checkpoint,
    write_checkpoint,
)


def test_schema_literals_pinned_against_service():
    """One definition (in the import-light repro.obs.schema), so the
    writer and the no-unpickle validator cannot drift."""
    assert checkpoint.CHECKPOINT_FORMAT is schema.CHECKPOINT_FORMAT
    assert (
        checkpoint.CHECKPOINT_FORMAT_VERSION
        is schema.CHECKPOINT_FORMAT_VERSION
    )
    assert CHECKPOINT_FORMAT_VERSION == 14


def write_sample(path, state=None):
    return write_checkpoint(
        path,
        state if state is not None else {"heap": [1, 2, 3], "t": 900.0},
        sim_time_s=1800.0,
        boundary_index=2,
        config={"days": 0.5, "seed": 7},
    )


class TestRoundTrip:
    def test_header_and_payload_survive(self, tmp_path):
        path = tmp_path / "c.ckpt"
        written = write_sample(path)
        header, state = read_checkpoint(path)
        assert header == written
        assert state == {"heap": [1, 2, 3], "t": 900.0}
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert header["boundary_index"] == 2
        assert header["sim_time_s"] == 1800.0
        assert header["config"]["seed"] == 7
        assert len(header["state_digest"]) == 64

    def test_validator_accepts_valid_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        assert validate_checkpoint_file(path) == []


@pytest.fixture
def no_unpickling(monkeypatch):
    """Fails the test if anything reaches ``pickle.loads``."""

    def refuse(*args, **kwargs):
        raise AssertionError("pickle.loads ran on a refused checkpoint")

    monkeypatch.setattr(pickle, "loads", refuse)


def corrupt(path, **header_edits):
    """Rewrite the file with edited header fields, payload untouched."""
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline])
    header.update(header_edits)
    path.write_bytes(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        + b"\n"
        + raw[newline + 1 :]
    )


@pytest.mark.usefixtures("no_unpickling")
class TestIntegrity:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        corrupt(path, format="not-a-checkpoint")
        with pytest.raises(ValueError, match="format"):
            read_checkpoint(path)
        assert any("format" in p for p in validate_checkpoint_file(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        corrupt(path, format_version=CHECKPOINT_FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    def _refused_by_version(self, tmp_path, version, repro_version):
        payload = b"\x80\x04N."  # a valid pickle; must never be loaded
        header = {
            "format": CHECKPOINT_FORMAT,
            "format_version": version,
            "repro_version": repro_version,
            "sim_time_s": 10800.0,
            "boundary_index": 1,
            "payload_bytes": len(payload),
            "state_digest": hashlib.sha256(payload).hexdigest(),
            "config": {"days": 0.5, "seed": 0},
        }
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(
            json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
            + payload
        )
        with pytest.raises(
            ValueError,
            match=rf"unsupported checkpoint version {version} \(expected 14\)",
        ):
            read_checkpoint(path)
        assert validate_checkpoint_file(path) == [
            f"unsupported 'format_version' {version}"
        ]

    def test_v1_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 1 pickled the dict-of-lists poller, sanitizer and
        store; it must be refused by version, not unpickled into objects
        with the wrong attributes."""
        self._refused_by_version(tmp_path, 1, "1.8.0")

    def test_v2_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 2 pickled one TrafficProfile, generator state and all,
        per direction; the co-model is a table now."""
        self._refused_by_version(tmp_path, 2, "1.9.0")

    def test_v3_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 3 pickled the telemetry faults' per-direction state as
        dicts of snapshots and queued batches with a ``scalar`` dict."""
        self._refused_by_version(tmp_path, 3, "1.10.0")

    def test_v4_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 4 pickled the topology's ``_link_order`` and every
        name-keyed dict of the path counter; both rebuild interned row
        tables on load now and would come up without them."""
        self._refused_by_version(tmp_path, 4, "1.11.0")

    def test_v5_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 5 pickled the fault transport's chain of fault objects,
        each with its own state, and baselines with an object fallback."""
        self._refused_by_version(tmp_path, 5, "1.12.0")

    def test_v6_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 6 pickled every link as a ``Link`` object; a topology
        keeps link state in row columns now and would come up without
        them."""
        self._refused_by_version(tmp_path, 6, "1.13.0")

    def test_v7_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 7 pickled every telemetry sample of the run; the store
        is a ring of the newest samples now, and would read a full-history
        column as one."""
        self._refused_by_version(tmp_path, 7, "1.13.0")

    def test_v8_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 8 kept the sanitizer's quarantine flags only while a
        recorder was on, so a clean push that started a quarantine left
        them stale; it must not be resumed from."""
        self._refused_by_version(tmp_path, 8, "1.13.0")

    def test_v9_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 9 pickled the service config's custom SLO rules and
        the pipeline's rule list; neither exists now."""
        self._refused_by_version(tmp_path, 9, "1.13.0")

    def test_v10_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 10 pickled the detection, debounce and probe settings
        on the pipeline and the scenario on the service, and its config
        echo names six fields the service config no longer has; the
        settings are module constants now."""
        self._refused_by_version(tmp_path, 10, "1.13.0")

    def test_v11_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 11 pickled every numpy column in-band, the poller's
        direction table and each ``DirectionIndex`` map, and its header
        has no ``frames``; it would be read as one pickle stream."""
        self._refused_by_version(tmp_path, 11, "1.13.0")

    def test_v12_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 12 pickled each telemetry stage's direction id list and
        the co-model's name map, its rows numbered in first-seen order;
        every stage keeps a direction in its direction-table row now."""
        self._refused_by_version(tmp_path, 12, "1.13.0")

    def test_v13_checkpoint_refused_before_unpickling(self, tmp_path):
        """Version 13 pickled each PathCounter with its mode flag
        (``_incremental``); the counter has one mode now and pickles
        without it."""
        self._refused_by_version(tmp_path, 13, "1.13.0")

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError):
            read_checkpoint(path)
        assert validate_checkpoint_file(path) != []

    def test_tampered_payload_fails_digest(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload bit; length unchanged
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="digest"):
            read_checkpoint(path)
        assert any(
            "state_digest" in p for p in validate_checkpoint_file(path)
        )

    def test_missing_header_line_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"no newline here")
        with pytest.raises(ValueError):
            read_checkpoint(path)


def write_columns(path):
    """A checkpoint whose state holds two numpy columns (two frames)."""
    return write_sample(path, {
        "ring": np.arange(64.0).reshape(4, 16),
        "known": np.ones(9, dtype=bool),
    })


def _sum_off(header, raw):
    header["frames"][1] += 8
    return raw


def _negative(header, raw):
    header["frames"][-1] = -1
    return raw


def _not_int(header, raw):
    header["frames"][1] = float(header["frames"][1])
    return raw


def _cut_in_frame(header, raw):
    return raw[:-3]  # inside the 9-byte last frame


def _flipped_in_frame(header, raw):
    raw = bytearray(raw)
    raw[header["frames"][0] + 5] ^= 0x01  # a byte of the first frame
    return bytes(raw)


class TestHostileFrames:
    """Frames that do not add up, torn or flipped: refused before
    ``pickle.loads`` runs, and named by the validator."""

    @pytest.mark.parametrize("edit, problem", [
        (_sum_off, "'frames' sum to"),
        (_negative, "bad 'frames'"),
        (_not_int, "bad 'frames'"),
        (_cut_in_frame, "payload is"),
        (_flipped_in_frame, "state_digest mismatch"),
    ], ids=["sum-off", "negative", "not-int", "cut-in-frame", "flipped"])
    def test_refused_before_unpickling(
        self, tmp_path, no_unpickling, edit, problem
    ):
        path = tmp_path / "c.ckpt"
        write_columns(path)
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        assert len(header["frames"]) == 3  # the stream and two columns
        payload = edit(header, raw[newline + 1 :])
        path.write_bytes(
            json.dumps(header, sort_keys=True, separators=(",", ":"))
            .encode() + b"\n" + payload
        )
        with pytest.raises(ValueError, match=problem):
            read_checkpoint(path)
        assert any(problem in p for p in validate_checkpoint_file(path))

    def test_reordered_frames_fail_the_digest(self, tmp_path, no_unpickling):
        path = tmp_path / "c.ckpt"
        frames = write_columns(path)["frames"]
        corrupt(path, frames=[frames[0], frames[2], frames[1]])
        with pytest.raises(ValueError, match="state_digest mismatch"):
            read_checkpoint(path)

    def test_columns_round_trip_as_frames(self, tmp_path):
        path = tmp_path / "c.ckpt"
        header = write_columns(path)
        _, state = read_checkpoint(path)
        assert header["payload_bytes"] == sum(header["frames"])
        assert header["frames"][1:] == [64 * 8, 9]
        np.testing.assert_array_equal(
            state["ring"], np.arange(64.0).reshape(4, 16)
        )
        assert state["known"].all() and state["known"].flags.writeable


class TestAtomicWrite:
    """A failed write leaves the previous checkpoint, and nothing else."""

    def test_unpicklable_state_leaves_previous_checkpoint(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        before = path.read_bytes()
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            write_sample(path, state=lambda: None)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_failed_write_leaves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        before = path.read_bytes()

        class TornFile:
            """Takes the header line, then the disk is full."""

            def __init__(self, handle):
                self.handle, self.writes = handle, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.handle.write(data)

        monkeypatch.setattr(
            checkpoint,
            "open",
            lambda file, mode: TornFile(open(file, mode)),
            raising=False,
        )
        with pytest.raises(OSError, match="disk full"):
            write_sample(path, state={"heap": [9], "t": 1800.0})
        assert path.read_bytes() == before
        assert read_checkpoint(path)[1] == {"heap": [1, 2, 3], "t": 900.0}
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_file_and_directory_fsynced_around_the_rename(
        self, tmp_path, monkeypatch
    ):
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            calls.append(f"fsync {kind}")
            fsync(fd)

        def record_replace(*args):
            calls.append("rename")
            replace(*args)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        write_sample(tmp_path / "c.ckpt")
        assert calls == ["fsync file", "rename", "fsync dir"]

    def test_success_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_sample(path)
        write_sample(path, state={"heap": [9], "t": 1800.0})
        assert read_checkpoint(path)[1] == {"heap": [9], "t": 1800.0}
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]


def test_serve_ckpt_scenario_checkpoint_stays_within_4_20_mb(tmp_path):
    """The ``serve_ckpt`` scenario of ``bench/`` (seed 0): 1,008 links,
    ``mild`` faults, ``hotspots`` congestion, a checkpoint every 3 h.  Its
    last checkpoint was 4.19 MB with format 3; per-direction fault state
    in columns is pickled as the directions that hold something, so it
    must not grow."""
    from repro.service import ControllerService, ServiceConfig

    service = ControllerService(
        ServiceConfig(
            days=0.5, scale=0.25, seed=0, fault_seed=0, chaos_preset="mild",
            congestion_preset="hotspots", queue_capacity=24,
        )
    )
    status = service.run(
        checkpoint_every_s=3 * 3600.0, checkpoint_dir=tmp_path
    )
    assert status.completed and len(status.checkpoints) == 4
    # What bench reports as `service.ckpt_mb`.
    assert os.path.getsize(status.checkpoints[-1]) <= 4.20e6


def test_store_and_checkpoint_stay_flat_once_the_ring_fills(tmp_path):
    """A tiny service checkpointed every ``W`` polls, ``W`` the window the
    telemetry store keeps.  Once every row's ring has filled, neither the
    store's columns nor its pickled size grow with the run, and the whole
    payload grows by under 10% (per-fault state only)."""
    from repro.service import ControllerService, ServiceConfig
    from tests.telemetry.stored import WINDOW

    service = ControllerService(
        ServiceConfig(
            days=21 / 24, scale=0.06, seed=7, fault_seed=7,
            chaos_preset="mild", congestion_preset="hotspots",
        )
    )
    store = service.pipeline.store
    column_bytes, pickled = [], []

    def at_boundary():
        column_bytes.append(sum(
            getattr(store, name).nbytes
            for name in ("_time", "_corruption", "_congestion",
                         "_utilization", "_quality")
        ))
        # The store's own state: the topology it shares is the pipeline's.
        pickled.append(len(pickle.dumps(dict(vars(store), _topo=None))))
        return False

    interval = service.config.poll_interval_s
    status = service.run(
        checkpoint_every_s=WINDOW * interval, checkpoint_dir=tmp_path,
        should_stop=at_boundary,
    )
    assert status.completed and len(status.checkpoints) >= 5
    assert int(store._length.max()) > 4 * WINDOW  # every ring wrapped
    # Boundary k lands just after poll k * W.
    assert column_bytes[1] == column_bytes[4]  # polls 2W and 5W
    assert pickled[0] == pickled[3]  # polls W and 4W
    payload = []
    for path in status.checkpoints:
        with open(path, "rb") as handle:
            payload.append(json.loads(handle.readline())["payload_bytes"])
    assert payload[3] < 1.10 * payload[0]
