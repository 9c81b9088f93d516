"""Unit tests for the durable changefeed log (:mod:`repro.wal`).

Record framing, rotation, manifest/checkpoint lifecycle, compaction
semantics, the log-backed changefeed resume path — and the corruption
matrix the durability docs promise: every distinguishable way a WAL
directory can be damaged is pinned to its typed error (or, for a torn
tail, to silent truncation).
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import time
import zlib

import pytest

from repro.errors import (
    ReplayGapError,
    ServiceClosedError,
    WalCheckpointError,
    WalCorruptionError,
    WalError,
)
from repro.ops import DeleteOp, InsertOp
from repro.relational.database import DeltaOp, RelationalDelta
from repro.replica import Snapshot
from repro.service import ViewConfig, open_view
from repro.views.events import EdgeRecord, NodeRecord, ViewEvent
from repro.wal import (
    FRAME_OVERHEAD,
    WriteAheadLog,
    decode_delta,
    encode_delta,
    encode_record,
    read_segment,
    recover_state,
)
from repro.workloads.registrar import build_registrar


def make_event(generation: int) -> ViewEvent:
    return ViewEvent(
        generation=generation,
        edges=[EdgeRecord("insert", "a", "b", 1, 100 + generation)],
        nodes=[NodeRecord(100 + generation, "b", ("x", generation))],
        delta_r=RelationalDelta(
            [DeltaOp("insert", "r", (f"k{generation}", "v"))]
        ),
    )


def bare_snapshot(generation: int, **fields) -> Snapshot:
    """A checkpoint payload with an empty store (the WAL only stores it)."""
    fields.setdefault("store_state", {})
    return Snapshot(generation=generation, config={}, **fields)


def durable_wal(tmp_path, **kwargs) -> WriteAheadLog:
    kwargs.setdefault("segment_bytes", 1024)
    kwargs.setdefault("checkpoint_every", 4)
    return WriteAheadLog(str(tmp_path / "wal"), **kwargs)


def registrar_service(wal_dir, **config):
    atg, db = build_registrar()
    config.setdefault("strict", False)
    config.setdefault("side_effects", "propagate")
    config.setdefault("wal_dir", str(wal_dir))
    return open_view(atg, db, config=ViewConfig(**config))


# ---------------------------------------------------------------------------
# Record framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_and_overhead(self):
        payload = {"generation": 7, "event": {"edges": []}, "delta_r": None}
        data = encode_record(payload)
        body = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()
        assert len(data) == len(body) + FRAME_OVERHEAD
        assert data.endswith(b"\n")
        records, torn = read_segment(data * 3, "seg", last=False)
        assert torn is None
        assert [p for _, p in records] == [payload] * 3
        # Offsets are byte positions, usable for error reporting.
        assert [off for off, _ in records] == [0, len(data), 2 * len(data)]

    @pytest.mark.parametrize("cut", [1, 8, 16, 17, 20, -2, -1])
    def test_torn_tail_is_reported_not_raised(self, cut):
        """Every strict prefix of a trailing record is a tear."""
        good = encode_record({"generation": 1})
        tail = encode_record({"generation": 2})
        data = good + (tail[:cut] if cut > 0 else tail[:cut])
        records, torn = read_segment(data, "seg", last=True)
        assert [p["generation"] for _, p in records] == [1]
        assert torn is not None
        assert torn.offset == len(good)
        assert torn.reason.startswith("incomplete")

    def test_torn_tail_in_sealed_segment_is_corruption(self):
        data = encode_record({"generation": 1})[:-3]
        with pytest.raises(WalCorruptionError) as exc:
            read_segment(data, "seg-00000001.wal", last=False)
        assert exc.value.segment == "seg-00000001.wal"
        assert exc.value.offset == 0

    def test_crc_flip_is_corruption_even_in_last_segment(self):
        """A complete-but-wrong record is never mistaken for a tear."""
        good = encode_record({"generation": 1})
        bad = bytearray(encode_record({"generation": 2}))
        bad[FRAME_OVERHEAD] ^= 0xFF  # flip a body byte; CRC now lies
        with pytest.raises(WalCorruptionError) as exc:
            read_segment(good + bytes(bad), "active", last=True)
        assert exc.value.offset == len(good)
        assert "CRC mismatch" in str(exc.value)

    def test_garbage_between_records_is_corruption(self):
        good = encode_record({"generation": 1})
        with pytest.raises(WalCorruptionError):
            read_segment(good + b"zzzz" + good, "seg", last=True)

    @pytest.mark.parametrize("length", [
        "0x{:06x}", " {:07x}", "+{:07x}", "0000_{:03x}", "{:08X}",
    ], ids=["0x", "space", "plus", "underscore", "upper"])
    def test_header_is_lowercase_hex_only(self, length):
        """``int(..., 16)`` reads all of these; the writer emits none."""
        body = b'{"generation":1,"pad":"abcdefghij"}'
        assert len(body) > 16  # so "X" appears in "{:08X}"
        crc = f"{zlib.crc32(body) & 0xFFFFFFFF:08x}".upper()
        header = length.format(len(body)) + crc
        forged = header.encode("ascii") + body + b"\n"
        good = encode_record({"generation": 0})
        for last in (False, True):
            with pytest.raises(WalCorruptionError, match="non-hex header"):
                read_segment(good + forged, "seg", last=last)

    def test_short_tail_is_torn_only_when_hex(self):
        """A crash leaves a prefix of a lowercase-hex header; anything
        else at EOF is corruption, not a tear to drop."""
        good = encode_record({"generation": 1})
        records, torn = read_segment(good + good[:5], "seg", last=True)
        assert len(records) == 1 and torn.offset == len(good)
        for tail in (b"zzzz", b"0x", b" 00", b"0A"):
            with pytest.raises(WalCorruptionError) as exc:
                read_segment(good + tail, "seg", last=True)
            assert exc.value.offset == len(good)

    def test_delta_codec_roundtrip(self):
        delta = RelationalDelta(
            [
                DeltaOp("insert", "course", ("CS1", "T")),
                DeltaOp("delete", "prereq", ("CS1", "CS2")),
            ]
        )
        wire = encode_delta(delta)
        assert json.loads(json.dumps(wire)) == wire  # JSON-safe
        back = decode_delta(wire)
        assert back.ops == delta.ops
        assert encode_delta(None) is None
        assert decode_delta(None) is None
        assert encode_delta(RelationalDelta()) is None


# ---------------------------------------------------------------------------
# The log lifecycle
# ---------------------------------------------------------------------------


class TestLogLifecycle:
    def test_append_replay_reopen(self, tmp_path):
        wal = durable_wal(tmp_path, checkpoint_every=100)
        for g in range(1, 8):
            wal.append(make_event(g))
        assert [e.generation for e in wal.events_since(3)] == [4, 5, 6, 7]
        # Replayed events are wire-form: engine-internal fields gone.
        replayed = wal.events_since(0)[0]
        assert replayed.delta_r is None
        # ...but the raw records still carry the ΔR for recovery.
        assert wal.records_since(0)[0][1]["delta_r"] is not None
        wal.close()
        wal2 = WriteAheadLog(str(tmp_path / "wal"))
        assert wal2.last_generation == 7
        assert [e.generation for e in wal2.events_since(0)] == list(
            range(1, 8)
        )
        wal2.close()

    def test_out_of_order_append_rejected(self, tmp_path):
        wal = durable_wal(tmp_path)
        wal.append(make_event(5))
        with pytest.raises(WalError, match="out of order"):
            wal.append(make_event(5))
        wal.close()

    def test_rotation_seals_segments(self, tmp_path):
        wal = durable_wal(tmp_path, segment_bytes=1024, checkpoint_every=100)
        for g in range(1, 40):
            wal.append(make_event(g))
        stats = wal.stats()
        assert stats["rotations"] >= 2
        assert stats["segments"] == stats["rotations"] + 1
        # Sealed segments survive reopen with the full stream intact.
        wal.close()
        wal2 = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        assert [e.generation for e in wal2.events_since(0)] == list(
            range(1, 40)
        )
        wal2.close()

    def test_compaction_advances_floor_to_live_checkpoint(self, tmp_path):
        wal = durable_wal(
            tmp_path, segment_bytes=1024, checkpoint_every=4,
            keep_checkpoints=2,
        )
        for g in range(1, 25):
            wal.append(make_event(g))
            if wal.should_checkpoint():
                wal.write_checkpoint(bare_snapshot(g))
        stats = wal.stats()
        assert len(stats["checkpoints"]) == 2
        oldest = stats["checkpoints"][0]["generation"]
        assert wal.floor == oldest
        # The floor names a *live* checkpoint: it loads, and replay
        # from it is complete.
        with pytest.raises(ReplayGapError) as exc:
            wal.records_since(wal.floor - 1)
        assert exc.value.oldest_available == oldest
        assert [e.generation for e in wal.events_since(oldest)] == list(
            range(oldest + 1, 25)
        )
        # Compacted files are actually gone from disk.
        names = os.listdir(str(tmp_path / "wal"))
        assert len([n for n in names if n.startswith("ckpt-")]) == 2
        wal.close()

    def test_checkpoint_envelope_roundtrip(self, tmp_path):
        wal = durable_wal(tmp_path)
        wal.append(make_event(1))
        snapshot = bare_snapshot(
            1,
            store_state={"nodes": [], "children": [], "deep": [1, 2]},
            base={"tables": {"r": [["k", 1.5, None, True]]}},
        )
        wal.write_checkpoint(snapshot)
        assert wal.latest_checkpoint() == snapshot
        # The checkpoint file is a snapshot file.
        name = wal.stats()["checkpoints"][-1]["name"]
        assert Snapshot.load(tmp_path / "wal" / name) == snapshot
        # Same-generation checkpoint is idempotent, not duplicated.
        wal.write_checkpoint(bare_snapshot(1))
        assert len(wal.stats()["checkpoints"]) == 1
        assert wal.latest_checkpoint() == snapshot
        wal.close()

    def test_service_checkpoint_is_a_snapshot_file_with_the_base_rows(
        self, tmp_path
    ):
        path = str(tmp_path / "wal")
        service = registrar_service(path, wal_checkpoint_every=2)
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        service.apply(InsertOp(".", "course", ("CS990", "Seminar")))
        name = service.wal.stats()["checkpoints"][-1]["name"]
        loaded = Snapshot.load(os.path.join(path, name))
        assert loaded.generation == service.stats()["generation"]
        assert loaded.base == service.db.export_state()
        assert loaded.store_state == service.store.export_state()
        # What the service hands out for replication carries no rows.
        assert service.snapshot().base is None
        service.close()

    def test_readonly_mode(self, tmp_path):
        wal = durable_wal(tmp_path)
        wal.append(make_event(1))
        wal.close()
        ro = WriteAheadLog(str(tmp_path / "wal"), readonly=True)
        assert [e.generation for e in ro.events_since(0)] == [1]
        with pytest.raises(WalError, match="read-only"):
            ro.append(make_event(2))
        with pytest.raises(WalError, match="read-only"):
            ro.write_checkpoint(bare_snapshot(1))
        ro.close()
        with pytest.raises(WalError, match="not a WAL directory"):
            WriteAheadLog(str(tmp_path / "empty"), readonly=True)

    def test_fsync_policies_accepted_and_counted(self, tmp_path):
        always = WriteAheadLog(str(tmp_path / "a"), fsync="always")
        always.append(make_event(1))
        always.append(make_event(2))
        assert always.stats()["fsyncs"] == 2
        always.close()
        lazy = WriteAheadLog(str(tmp_path / "o"), fsync="os")
        lazy.append(make_event(1))
        assert lazy.stats()["fsyncs"] == 0
        lazy.close()
        with pytest.raises(WalError, match="fsync policy"):
            WriteAheadLog(str(tmp_path / "x"), fsync="sometimes")

    @pytest.mark.parametrize("durable", [True, False], ids=["wal", "no_wal"])
    def test_writes_after_close_raise_and_reads_still_work(
        self, tmp_path, durable
    ):
        path = str(tmp_path / "wal")
        service = registrar_service(path) if durable else open_view(
            *build_registrar(), config=ViewConfig(strict=False)
        )
        accepted = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        generation = service.stats()["generation"]
        digest = service.store.digest()
        held = service.plan(InsertOp(".", "course", ("CS990", "Seminar")))
        service.close()
        new_course = InsertOp(".", "course", ("CS991", "Colloquium"))
        writes = {
            "apply": lambda: service.apply(new_course),
            "apply a batch": lambda: service.apply([new_course]),
            "plan": lambda: service.plan(new_course),
            "commit a held plan": held.commit,
            "undo": lambda: service.undo(accepted),
            "apply_base_update": lambda: service.updater.apply_base_update(
                RelationalDelta([DeltaOp("insert", "course", ("CS992", "X", "CS"))])
            ),
        }
        for write in writes.values():
            with pytest.raises(ServiceClosedError, match="closed"):
                write()
        held.abort()
        service.close()  # idempotent
        assert service.stats()["generation"] == generation
        assert service.store.digest() == digest
        assert service.snapshot().generation == generation
        assert service.xpath("//course").targets
        assert service.check_consistency() == []
        if durable:
            # Nothing reached the log after close().
            recovered = _reopen(path)
            assert recovered.stats()["generation"] == generation
            assert recovered.store.digest() == digest
            recovered.close()


# ---------------------------------------------------------------------------
# The corruption matrix
# ---------------------------------------------------------------------------


def _wal_dir_with_history(
    tmp_path, commits: int = 30, segment_bytes: int = 1024
) -> str:
    """A real service-produced WAL directory with sealed segments."""
    path = tmp_path / "wal"
    service = registrar_service(
        path, wal_segment_bytes=segment_bytes, wal_checkpoint_every=50
    )
    for i in range(commits):
        cno = ("CS650", "CS320", "CS240")[i % 3]
        service.apply(
            InsertOp(f"//course[cno={cno}]/prereq", "course", ("CS900", "X"))
        )
        service.apply(
            DeleteOp(f"//course[cno={cno}]/prereq/course[cno=CS900]")
        )
    service.close()
    return str(path)

def _reopen(path: str):
    atg, db = build_registrar()
    return open_view(
        atg, db,
        config=ViewConfig(strict=False, wal_dir=path, wal_segment_bytes=1024),
    )


class TestCorruptionMatrix:
    def test_truncated_tail_silently_dropped(self, tmp_path):
        # One big segment: the whole history lives in the active file,
        # so its tail is a legitimate tear target.
        path = _wal_dir_with_history(tmp_path, segment_bytes=1 << 20)
        manifest = json.loads(open(os.path.join(path, "manifest.json"), "rb").read())
        active = os.path.join(path, manifest["active"])
        size = os.path.getsize(active)
        os.truncate(active, size - 5)  # tear the last record
        service = _reopen(path)
        assert service.wal.torn_dropped == 1
        assert service.check_consistency() == []
        # The recovered generation is one commit behind the tear...
        assert service.stats()["generation"] == service.wal.last_generation
        # ...and the service keeps committing cleanly afterwards.
        service.apply(
            InsertOp("//course[cno=CS650]/prereq", "course", ("CS901", "Y"))
        )
        assert service.check_consistency() == []
        service.close()

    def test_flipped_crc_mid_segment_raises_typed_error(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        manifest = json.loads(open(os.path.join(path, "manifest.json"), "rb").read())
        sealed = manifest["sealed"][0]["name"]
        target = os.path.join(path, sealed)
        blob = bytearray(open(target, "rb").read())
        offset = len(blob) // 2
        blob[offset] ^= 0xFF
        open(target, "wb").write(bytes(blob))
        with pytest.raises(WalCorruptionError) as exc:
            _reopen(path)
        assert exc.value.segment == sealed
        assert exc.value.offset is not None
        assert 0 <= exc.value.offset <= offset
        assert sealed in str(exc.value)

    def test_missing_sealed_segment_raises(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        manifest = json.loads(open(os.path.join(path, "manifest.json"), "rb").read())
        sealed = manifest["sealed"][0]["name"]
        os.remove(os.path.join(path, sealed))
        with pytest.raises(WalCorruptionError, match="missing"):
            _reopen(path)

    def test_missing_checkpoint_raises(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        manifest = json.loads(open(os.path.join(path, "manifest.json"), "rb").read())
        ck = manifest["checkpoints"][-1]["name"]
        os.remove(os.path.join(path, ck))
        with pytest.raises(WalCheckpointError, match="missing"):
            _reopen(path)

    def test_unreadable_checkpoint_raises(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        manifest = json.loads(open(os.path.join(path, "manifest.json"), "rb").read())
        ck = os.path.join(path, manifest["checkpoints"][-1]["name"])
        open(ck, "wb").write(b"not gzip at all")
        with pytest.raises(WalCheckpointError, match="cannot be read"):
            _reopen(path)

    def test_checkpoint_manifest_generation_mismatch_raises(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(open(manifest_path, "rb").read())
        # Lie about the checkpoint's generation: the envelope inside
        # the file no longer matches what the manifest promises.
        manifest["checkpoints"][-1]["generation"] += 1
        manifest["floor"] = min(
            manifest["floor"], manifest["checkpoints"][0]["generation"]
        )
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(WalCheckpointError, match="does not match"):
            _reopen(path)

    def test_corrupt_manifest_raises(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        open(os.path.join(path, "manifest.json"), "w").write("{nope")
        with pytest.raises(WalCorruptionError, match="manifest"):
            _reopen(path)

    def test_active_name_outside_the_directory_is_refused(self, tmp_path):
        # Torn-tail repair truncates the active segment: a manifest that
        # names a file outside the WAL directory must not reach it.
        path = _wal_dir_with_history(tmp_path)
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"0123abcd")  # reads as a torn frame header
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(open(manifest_path, "rb").read())
        manifest["active"] = "../victim.txt"
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(WalCorruptionError, match="active") as exc:
            WriteAheadLog(path)
        assert exc.value.segment == "manifest.json"
        assert victim.read_bytes() == b"0123abcd"

    def test_checkpoint_name_outside_the_directory_is_refused(self, tmp_path):
        # Compaction removes the checkpoints it drops.
        path = _wal_dir_with_history(tmp_path)
        outside = tmp_path / "x"
        outside.write_bytes(b"keep")
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(open(manifest_path, "rb").read())
        manifest["checkpoints"][0]["name"] = "../x"
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(WalCorruptionError, match="checkpoints"):
            WriteAheadLog(path, keep_checkpoints=1)
        assert outside.read_bytes() == b"keep"

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("active"),
        lambda m: m.update(active=7),
        lambda m: m.update(active="seg-1.wal"),
        lambda m: m.update(active="seg-00000001.wal/../../x"),
        lambda m: m.update(sealed=[1]),
        lambda m: m.update(sealed={"name": "seg-00000001.wal"}),
        lambda m: m.update(sealed=[{"name": "seg-x.wal", "last": 1}]),
        lambda m: m.update(sealed=[{"name": "seg-00000001.wal"}]),
        lambda m: m.update(sealed=[{"name": "seg-00000001.wal", "last": -1}]),
        lambda m: m.update(checkpoints=["x"]),
        lambda m: m.update(checkpoints=[{"name": "ckpt-1.gz", "generation": 1}]),
        lambda m: m.update(checkpoints=[
            {"name": "ckpt-000000000001.gz", "generation": True}
        ]),
        lambda m: m.update(floor="0"),
        lambda m: m.update(floor=-1),
    ], ids=[
        "no-active", "active-int", "active-short", "active-traversal",
        "sealed-int", "sealed-object", "sealed-bad-name", "sealed-no-last",
        "sealed-negative-last", "checkpoints-str", "checkpoint-short-name",
        "checkpoint-bool-generation", "floor-str", "floor-negative",
    ])
    def test_malformed_manifest_raises_typed_error(self, tmp_path, edit):
        path = str(tmp_path / "wal")
        WriteAheadLog(path).close()
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(open(manifest_path, "rb").read())
        edit(manifest)
        open(manifest_path, "w").write(json.dumps(manifest))
        with pytest.raises(WalCorruptionError) as exc:
            WriteAheadLog(path)
        assert exc.value.segment == "manifest.json"

    def test_deeply_nested_manifest_raises_typed_error(self, tmp_path):
        path = str(tmp_path / "wal")
        WriteAheadLog(path).close()
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            fh.write("[" * 200_000)
        with pytest.raises(WalCorruptionError) as exc:
            WriteAheadLog(path)
        assert exc.value.segment == "manifest.json"

    def test_rotation_past_eight_digit_segment_numbers(self, tmp_path):
        path = str(tmp_path / "wal")
        WriteAheadLog(path).close()
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.loads(open(manifest_path, "rb").read())
        manifest["active"] = "seg-99999999.wal"
        open(manifest_path, "w").write(json.dumps(manifest))
        open(os.path.join(path, "seg-99999999.wal"), "wb").close()
        wal = WriteAheadLog(path, segment_bytes=1024)
        wal._rotate()
        assert wal._active == "seg-100000000.wal"
        wal.close()
        assert WriteAheadLog(path).last_generation == 0

    def test_orphan_files_cleaned_on_rw_open_only(self, tmp_path):
        path = _wal_dir_with_history(tmp_path)
        orphan = os.path.join(path, "tmp-ckpt-999.gz")
        stranger = os.path.join(path, "notes.txt")
        open(orphan, "wb").write(b"stranded")
        open(stranger, "wb").write(b"keep me")
        ro = WriteAheadLog(path, readonly=True)
        ro.close()
        assert os.path.exists(orphan)  # readonly never mutates
        service = _reopen(path)
        service.close()
        assert not os.path.exists(orphan)
        assert os.path.exists(stranger)  # only WAL-shaped names are owned


# ---------------------------------------------------------------------------
# Coarse records
# ---------------------------------------------------------------------------


class TestCoarseRecords:
    def test_coarse_record_without_checkpoint_is_a_typed_error(self, tmp_path):
        # The writer logs no coarse record; hand-build a log with one
        # after a valid checkpoint at generation 0.
        atg, db = build_registrar()
        plain = open_view(atg, db)
        wal = durable_wal(tmp_path, checkpoint_every=100)
        wal.write_checkpoint(
            dataclasses.replace(plain.snapshot(), base=plain.db.export_state())
        )
        wal.append(ViewEvent(generation=1, coarse=True, reason="rebuild"))
        with pytest.raises(WalError, match="coarse"):
            atg2, db2 = build_registrar()
            recover_state(atg2, db2, wal)
        wal.close()


# ---------------------------------------------------------------------------
# Log-backed changefeed resume
# ---------------------------------------------------------------------------


class TestDurableChangefeed:
    def test_resume_below_buffer_floor_replays_from_log(self, tmp_path):
        """The satellite contract: durable consumers outlive the buffer."""
        path = tmp_path / "wal"
        service = registrar_service(
            path, changefeed_retention=4, wal_checkpoint_every=10_000
        )
        generations = []
        for i in range(12):
            cno = ("CS650", "CS320", "CS240")[i % 3]
            for op in (
                InsertOp(
                    f"//course[cno={cno}]/prereq", "course", ("CS900", "X")
                ),
                DeleteOp(f"//course[cno={cno}]/prereq/course[cno=CS900]"),
            ):
                if service.apply(op).accepted:
                    generations.append(service.stats()["generation"])
        buffer_floor = service.changefeeds._buffer.floor
        assert buffer_floor > 0  # retention=4 must have evicted
        # Resume from generation 0: far below the in-memory buffer,
        # fully covered by the log.
        feed = service.changefeed(since=0)
        replayed = []
        while True:
            event = feed.next_event(timeout=0)
            if event is None:
                break
            replayed.append(event.generation)
        assert replayed == generations
        # And the feed is live, not just a replay.
        service.apply(
            InsertOp("//course[cno=CS650]/prereq", "course", ("CS901", "Z"))
        )
        live = feed.next_event(timeout=1)
        assert live is not None
        assert live.generation == service.stats()["generation"]
        # Below the WAL floor is still a typed gap.
        with pytest.raises(ReplayGapError):
            service.changefeed(since=-1)
        service.close()

    def test_log_replay_longer_than_queue_bound_is_not_truncated(
        self, tmp_path
    ):
        """A log-backed replay can exceed the in-memory retention
        window by an arbitrary margin; the pull-queue bound must cover
        the whole attach batch, or the attach blocks on its own replay
        and silently drops the newest events (regression: with
        retention=2 an 11-event replay came back truncated to 4)."""
        service = registrar_service(
            tmp_path / "wal", changefeed_retention=2,
            wal_checkpoint_every=10_000,
        )
        generations = []
        for i in range(11):
            out = service.apply(InsertOp(
                "//course[cno=CS650]/prereq", "course", (f"Z{i}", "t")
            ))
            assert out.accepted
            generations.append(service.stats()["generation"])
        assert len(generations) > 2 * 2  # longer than the default bound
        before = time.monotonic()
        feed = service.changefeed(since=0)
        attach_cost = time.monotonic() - before
        replayed = []
        while True:
            event = feed.next_event(timeout=0)
            if event is None:
                break
            replayed.append(event.generation)
        assert replayed == generations  # every logged event, in order
        # The attach never waited on the consumer's own backpressure
        # (the block_writer timeout is 1s per stalled enqueue).
        assert attach_cost < 0.5
        # The consumer survived the oversized replay and is still live.
        service.apply(InsertOp(
            "//course[cno=CS650]/prereq", "course", ("Z99", "t")
        ))
        live = feed.next_event(timeout=1)
        assert live is not None and live.generation == generations[-1] + 1
        service.close()

    def test_stats_surface(self, tmp_path):
        service = registrar_service(tmp_path / "wal")
        stats = service.stats()
        assert stats["wal"]["fsync"] == "batch"
        assert stats["changefeed"]["durable"] is True
        assert stats["wal"]["checkpoints"][0]["generation"] == 0
        service.close()
        plain_atg, plain_db = build_registrar()
        plain = open_view(plain_atg, plain_db)
        assert plain.stats()["wal"] is None
        assert plain.stats()["changefeed"]["durable"] is False
