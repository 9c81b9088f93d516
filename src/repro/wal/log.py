"""The write-ahead log: rotating segments, manifest, checkpoints.

One :class:`WriteAheadLog` per WAL directory.  The layout::

    wal/
      manifest.json        # which files are live, and the replay floor
      seg-00000001.wal     # sealed segment (length/CRC-framed records)
      seg-00000002.wal     # the active segment (appends go here)
      ckpt-000000000042.gz # checkpoint: a snapshot file (base rows included)

Every committed changefeed event is appended to the active segment as
one framed record (:mod:`repro.wal.segment`) carrying the event's
frozen wire form *plus* the commit's base-table ΔR (engine-internal,
never on the changefeed wire) — together they are exactly what crash
recovery needs to restore both the view store and the base database.

Durability discipline:

- records are written with ``os.write`` (no userspace buffering), so an
  un-fsynced record survives a *process* crash; the fsync policy only
  decides exposure to a *machine* crash;
- the manifest is replaced atomically (tmp + fsync + rename + directory
  fsync), and checkpoints are fully durable *before* the manifest
  references them, so a manifest never points at bytes that might not
  exist — anything a crash strands is an unreferenced orphan, removed
  at the next open;
- the active segment is fsynced before a checkpoint is cut, so a
  surviving checkpoint can never be newer than the surviving log tail
  (a consumer resuming from below the checkpoint would otherwise find
  a hole).

Retention: each checkpoint advances the *replay floor* to the oldest
retained checkpoint's generation and deletes segments wholly below it,
so :class:`~repro.errors.ReplayGapError.oldest_available` always names
a generation some live checkpoint covers.
"""

from __future__ import annotations

import json
import re
from typing import NoReturn

from repro.errors import (
    ReplayGapError,
    SnapshotError,
    WalCheckpointError,
    WalCorruptionError,
    WalError,
)
from repro.metrics.registry import MetricsRegistry
from repro.relational.database import DeltaOp, RelationalDelta
from repro.views.events import ViewEvent
from repro.views.snapshot import Snapshot
from repro.wal.fs import OsFileSystem
from repro.wal.segment import encode_record, read_segment

#: Manifest envelope format tag / version.
MANIFEST_FORMAT = "repro-wal"
MANIFEST_VERSION = 1

#: The fsync policies (see ``docs/durability.md`` for the tradeoffs).
FSYNC_POLICIES = ("always", "batch", "os")

#: Appends between fsyncs under the ``batch`` policy (rotation,
#: checkpoints and ``close()`` always sync the active segment first).
BATCH_FSYNC_INTERVAL = 32

_MANIFEST = "manifest.json"

#: What the writer names its files (``seg-%08d.wal`` / ``ckpt-%012d.gz``);
#: a manifest naming anything else is refused before a path is built.
_SEGMENT_NAME = re.compile(r"seg-(\d{8,})\.wal")
_CHECKPOINT_NAME = re.compile(r"ckpt-\d{12,}\.gz")


def _parse_manifest(data: bytes) -> tuple[list[dict], str, list[dict], int]:
    """The manifest's ``(sealed, active, checkpoints, floor)``, checked.

    Every file name must be one the writer makes and every generation a
    non-negative int; anything else raises
    :class:`~repro.errors.WalCorruptionError` naming the manifest.
    """

    def refuse(what: str) -> NoReturn:
        raise WalCorruptionError(
            f"WAL manifest {what}", segment=_MANIFEST
        ) from None

    try:
        manifest = json.loads(data)
    except (ValueError, RecursionError) as exc:
        refuse(f"is not valid JSON: {exc}")
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != MANIFEST_FORMAT
        or manifest.get("version") != MANIFEST_VERSION
    ):
        refuse(
            f"is not a {MANIFEST_FORMAT}/{MANIFEST_VERSION} manifest: "
            f"{str(manifest)[:80]}"
        )

    def name(value, pattern: re.Pattern, key: str) -> str:
        if not isinstance(value, str) or not pattern.fullmatch(value):
            refuse(f"key {key!r} holds no file name of the log: {value!r:.80}")
        return value

    def generation(value, key: str) -> int:
        if type(value) is not int or value < 0:
            refuse(f"key {key!r} holds no generation: {value!r:.80}")
        return value

    def entries(key: str, pattern: re.Pattern, number: str) -> list[dict]:
        value = manifest.get(key, [])
        if not isinstance(value, list) or not all(
            isinstance(entry, dict) for entry in value
        ):
            refuse(f"key {key!r} is not a list of objects: {value!r:.80}")
        return [
            {
                "name": name(entry.get("name"), pattern, key),
                number: generation(entry.get(number), key),
            }
            for entry in value
        ]

    return (
        entries("sealed", _SEGMENT_NAME, "last"),
        name(manifest.get("active"), _SEGMENT_NAME, "active"),
        entries("checkpoints", _CHECKPOINT_NAME, "generation"),
        generation(manifest.get("floor", 0), "floor"),
    )


def encode_delta(delta: RelationalDelta | None) -> list | None:
    """The JSON-safe record form of a commit's ΔR (``None`` stays)."""
    if delta is None or not delta.ops:
        return None
    return [[op.kind, op.relation, list(op.row)] for op in delta.ops]


def decode_delta(payload) -> RelationalDelta | None:
    """Inverse of :func:`encode_delta` (rows come back as tuples)."""
    if payload is None:
        return None
    return RelationalDelta(
        DeltaOp(kind, relation, tuple(row)) for kind, relation, row in payload
    )


class WriteAheadLog:
    """An append-only, checkpointed changefeed log in one directory.

    Parameters
    ----------
    directory:
        The WAL directory (created if absent, unless ``readonly``).
    fsync:
        ``'always'`` (fsync per append — every acknowledged commit
        survives power loss), ``'batch'`` (fsync every
        :data:`BATCH_FSYNC_INTERVAL` appends and at every rotation /
        checkpoint / close — the default), or ``'os'`` (no explicit
        fsync; the OS page cache decides).
    segment_bytes:
        Rotation threshold: an append that grows the active segment to
        this size seals it and starts a new one.
    checkpoint_every:
        Records between periodic checkpoints (the hub consults
        :meth:`should_checkpoint` after each append).
    keep_checkpoints:
        Retained checkpoints; writing one past this count compacts the
        oldest away and advances the replay floor.
    fs:
        The file-system seam (:class:`~repro.wal.fs.OsFileSystem` by
        default; tests inject fault-injection wrappers).
    readonly:
        Open without mutating: no orphan cleanup, no torn-tail
        truncation (the tail is simply ignored), appends and
        checkpoints refused.  Safe against a directory another process
        is actively writing.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        segment_bytes: int = 1 << 20,
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
        fs=None,
        readonly: bool = False,
        metrics=None,
    ):
        metrics = metrics or MetricsRegistry()
        # Series handles (``labels()`` materializes each at 0 in the
        # exposition); ``stats()`` reads them back.  All five count what
        # *this* process did, not what it replayed at open.
        self._m_records = metrics.counter(
            "repro_wal_records_total",
            "Event records appended to the write-ahead log.",
        ).labels()
        self._m_bytes = metrics.counter(
            "repro_wal_bytes_total",
            "Framed bytes appended to the write-ahead log.",
        ).labels()
        self._m_fsyncs = metrics.counter(
            "repro_wal_fsyncs_total",
            "Explicit segment fsyncs issued (policy-dependent).",
        ).labels()
        self._m_rotations = metrics.counter(
            "repro_wal_rotations_total",
            "Log segments sealed by rotation.",
        ).labels()
        self._m_checkpoints = metrics.counter(
            "repro_wal_checkpoints_total",
            "Checkpoints cut into the log.",
        ).labels()
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 1024:
            raise WalError(
                f"segment_bytes must be >= 1024, got {segment_bytes!r}"
            )
        if checkpoint_every < 1:
            raise WalError(
                f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
            )
        if keep_checkpoints < 1:
            raise WalError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints!r}"
            )
        self.directory = str(directory)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.readonly = readonly
        self.fs = fs if fs is not None else OsFileSystem()
        self._sealed: list[dict] = []          # [{"name": ..., "last": gen}]
        self._active: str = ""
        self._checkpoints: list[dict] = []     # [{"name": ..., "generation"}]
        self._floor = 0
        self._last_generation = 0
        self._active_size = 0
        self._records: list[tuple[int, dict]] = []
        self._since_checkpoint = 0
        self._unsynced = 0
        self.torn_dropped = 0
        """Torn tail records dropped (truncated) at open."""
        self._open()

    # -- paths -----------------------------------------------------------------------

    def _path(self, name: str) -> str:
        return f"{self.directory}/{name}"

    @staticmethod
    def _segment_name(seq: int) -> str:
        return f"seg-{seq:08d}.wal"

    @staticmethod
    def _checkpoint_name(generation: int) -> str:
        return f"ckpt-{generation:012d}.gz"

    # -- open ------------------------------------------------------------------------

    def _open(self) -> None:
        fs = self.fs
        manifest_path = self._path(_MANIFEST)
        if not fs.exists(manifest_path):
            if self.readonly:
                raise WalError(
                    f"{self.directory} is not a WAL directory "
                    f"(no {_MANIFEST})"
                )
            fs.makedirs(self.directory)
            self._active = self._segment_name(1)
            self._write_manifest()
            return
        self._sealed, self._active, self._checkpoints, self._floor = (
            _parse_manifest(fs.read_bytes(manifest_path))
        )
        if not self.readonly:
            self._remove_orphans()
        for entry in self._checkpoints:
            if not fs.exists(self._path(entry["name"])):
                raise WalCheckpointError(
                    f"manifest references checkpoint {entry['name']} "
                    f"(generation {entry['generation']}) but the file is "
                    f"missing from {self.directory}"
                )
        self._scan_segments()

    def _remove_orphans(self) -> None:
        """Drop files a crash stranded outside the manifest."""
        referenced = {entry["name"] for entry in self._sealed}
        referenced.add(self._active)
        referenced.update(entry["name"] for entry in self._checkpoints)
        referenced.add(_MANIFEST)
        for name in self.fs.listdir(self.directory):
            unowned = name.startswith(("seg-", "ckpt-", "tmp-"))
            if unowned and name not in referenced:
                self.fs.remove(self._path(name))

    def _scan_segments(self) -> None:
        """Replay every live segment into the in-memory record cache.

        Sealed segments must decode completely (any failure is interior
        corruption); the active segment may end in a torn record, which
        is truncated away (or, read-only, ignored).
        """
        fs = self.fs
        for entry in self._sealed:
            path = self._path(entry["name"])
            if not fs.exists(path):
                raise WalCorruptionError(
                    f"manifest references sealed segment {entry['name']} "
                    f"but the file is missing from {self.directory}",
                    segment=entry["name"],
                )
            records, _ = read_segment(
                fs.read_bytes(path), entry["name"], last=False
            )
            self._ingest(records)
        active_path = self._path(self._active)
        if fs.exists(active_path):
            data = fs.read_bytes(active_path)
            records, torn = read_segment(data, self._active, last=True)
            if torn is not None:
                self.torn_dropped += 1
                if not self.readonly:
                    fs.truncate(active_path, torn.offset)
                    if self.fsync_policy != "os":
                        fs.fsync(active_path)
                self._active_size = torn.offset
            else:
                self._active_size = len(data)
            self._ingest(records)
        newest = self._checkpoints[-1]["generation"] if self._checkpoints else 0
        self._last_generation = max(self._last_generation, newest)
        self._since_checkpoint = sum(
            1 for gen, _ in self._records if gen > newest
        )

    def _ingest(self, records: list[tuple[int, dict]]) -> None:
        for _, payload in records:
            generation = payload.get("generation")
            if not isinstance(generation, int) or isinstance(generation, bool):
                raise WalCorruptionError(
                    f"record carries no integer generation: "
                    f"{str(payload)[:80]}"
                )
            self._records.append((generation, payload))
            self._last_generation = max(self._last_generation, generation)

    # -- the manifest ----------------------------------------------------------------

    def _write_manifest(self) -> None:
        data = json.dumps(
            {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "sealed": self._sealed,
                "active": self._active,
                "checkpoints": self._checkpoints,
                "floor": self._floor,
            },
            sort_keys=True,
        ).encode("utf-8")
        fs = self.fs
        fs.makedirs(self.directory)
        tmp = self._path("tmp-manifest.json")
        fs.write_bytes(tmp, data)
        if self.fsync_policy != "os":
            fs.fsync(tmp)
        fs.rename(tmp, self._path(_MANIFEST))
        if self.fsync_policy != "os":
            fs.fsync_dir(self.directory)

    # -- the write path ----------------------------------------------------------------

    def _check_writable(self) -> None:
        if self.readonly:
            raise WalError("this WAL handle is read-only")

    def append(self, event: ViewEvent) -> None:
        """Durably log one published event (+ its ΔR) in commit order.

        Called by the changefeed hub inside the writer's critical
        section, after the commit's state change and replay-buffer
        append — the WAL sees exactly the published event stream.
        """
        self._check_writable()
        if event.generation <= self._last_generation:
            raise WalError(
                f"append out of order: generation {event.generation} after "
                f"{self._last_generation}"
            )
        payload = {
            "generation": event.generation,
            "event": event.to_dict(),
            "delta_r": encode_delta(event.delta_r),
        }
        data = encode_record(payload)
        path = self._path(self._active)
        self.fs.append(path, data)
        self._active_size += len(data)
        self._records.append((event.generation, payload))
        self._last_generation = event.generation
        self._m_records.inc()
        self._m_bytes.inc(len(data))
        self._since_checkpoint += 1
        self._unsynced += 1
        if self.fsync_policy == "always" or (
            self.fsync_policy == "batch"
            and self._unsynced >= BATCH_FSYNC_INTERVAL
        ):
            self._fsync_active()
        if self._active_size >= self.segment_bytes:
            self._rotate()

    def _fsync_active(self) -> None:
        path = self._path(self._active)
        if self._unsynced and self.fs.exists(path):
            self.fs.fsync(path)
            self._m_fsyncs.inc()
        self._unsynced = 0

    def _rotate(self) -> None:
        """Seal the active segment and open a fresh one (lazily)."""
        if self.fsync_policy != "os":
            self._fsync_active()
        self._sealed.append(
            {"name": self._active, "last": self._last_generation}
        )
        seq = max(
            int(_SEGMENT_NAME.fullmatch(entry["name"]).group(1))
            for entry in (*self._sealed, {"name": self._active})
        )
        self._active = self._segment_name(seq + 1)
        self._active_size = 0
        self._unsynced = 0
        self._m_rotations.inc()
        self._write_manifest()

    # -- checkpoints -------------------------------------------------------------------

    def should_checkpoint(self) -> bool:
        """Whether the periodic-checkpoint interval has elapsed."""
        return self._since_checkpoint >= self.checkpoint_every

    def write_checkpoint(self, snapshot: Snapshot) -> None:
        """Cut a checkpoint at ``snapshot.generation``, then compact.

        The file is ``snapshot.to_bytes()``, a snapshot file (the
        service's carries the base rows in ``snapshot.base``), fully
        durable before the manifest references it; retention then drops
        checkpoints beyond ``keep_checkpoints``, advances the replay
        floor to the oldest kept one, and deletes segments below it.
        """
        self._check_writable()
        generation = snapshot.generation
        if (
            self._checkpoints
            and self._checkpoints[-1]["generation"] == generation
        ):
            return  # idempotent: one checkpoint per generation
        if self.fsync_policy != "os":
            # The log tail must never trail a surviving checkpoint.
            self._fsync_active()
        name = self._checkpoint_name(generation)
        tmp = self._path(f"tmp-{name}")
        fs = self.fs
        fs.write_bytes(tmp, snapshot.to_bytes())
        if self.fsync_policy != "os":
            fs.fsync(tmp)
        fs.rename(tmp, self._path(name))
        if self.fsync_policy != "os":
            fs.fsync_dir(self.directory)
        self._checkpoints.append({"name": name, "generation": generation})
        dead: list[str] = []
        while len(self._checkpoints) > self.keep_checkpoints:
            dead.append(self._checkpoints.pop(0)["name"])
        self._floor = self._checkpoints[0]["generation"]
        kept_sealed: list[dict] = []
        for entry in self._sealed:
            if entry["last"] <= self._floor:
                dead.append(entry["name"])
            else:
                kept_sealed.append(entry)
        self._sealed = kept_sealed
        # Manifest first: a crash after the rename leaves the dead files
        # as orphans (cleaned at next open), never dangling references.
        self._write_manifest()
        for name in dead:
            fs.remove(self._path(name))
        self._records = [
            (gen, payload)
            for gen, payload in self._records
            if gen > self._floor or self._covered(gen)
        ]
        self._since_checkpoint = sum(
            1 for gen, _ in self._records if gen > generation
        )
        self._m_checkpoints.inc()

    def _covered(self, generation: int) -> bool:
        """Whether a record at ``generation`` is still on disk."""
        if generation > self._floor:
            return True
        return any(entry["last"] >= generation for entry in self._sealed)

    def latest_checkpoint(self) -> Snapshot | None:
        """The newest checkpoint as a :class:`~repro.views.snapshot.Snapshot`
        (``None`` when none exist).  One that cannot be read or decoded
        (a pickle-era file included), or whose generation is not the
        manifest's, raises :class:`~repro.errors.WalCheckpointError`."""
        if not self._checkpoints:
            return None
        entry = self._checkpoints[-1]
        try:
            snapshot = Snapshot.from_bytes(
                self.fs.read_bytes(self._path(entry["name"]))
            )
        except (OSError, SnapshotError) as exc:
            raise WalCheckpointError(
                f"checkpoint {entry['name']} (generation "
                f"{entry['generation']}) cannot be read: {exc}"
            ) from exc
        if snapshot.generation != entry["generation"]:
            raise WalCheckpointError(
                f"checkpoint {entry['name']} does not match the manifest "
                f"(it holds generation {snapshot.generation}, the manifest "
                f"expects {entry['generation']})"
            )
        return snapshot

    # -- replay -----------------------------------------------------------------------

    @property
    def floor(self) -> int:
        """Oldest generation replayable from this log (compaction bound)."""
        return self._floor

    @property
    def last_generation(self) -> int:
        """Generation of the newest logged record (or checkpoint)."""
        return self._last_generation

    def records_since(self, generation: int) -> list[tuple[int, dict]]:
        """Every logged record after ``generation``, in commit order.

        Each item is ``(generation, payload)`` where the payload carries
        the event wire dict plus the encoded ΔR.  A resume point below
        the replay floor raises :class:`~repro.errors.ReplayGapError`
        whose ``oldest_available`` names the oldest live checkpoint.
        """
        if generation < self._floor:
            raise ReplayGapError(since=generation, floor=self._floor)
        return [
            (gen, payload)
            for gen, payload in self._records
            if gen > generation
        ]

    def events_since(self, generation: int) -> list[ViewEvent]:
        """The logged *events* after ``generation`` (wire-form decode).

        What the changefeed hub replays for a durable consumer whose
        resume point has dropped below the in-memory buffer's floor.
        The decoded events carry only wire fields (no ΔR) — exactly what
        a replayed consumer would have seen live.
        """
        return [
            ViewEvent.from_dict(payload["event"])
            for _, payload in self.records_since(generation)
        ]

    # -- diagnostics -------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe log statistics (for ``service.stats()['wal']``)."""
        return {
            "directory": self.directory,
            "fsync": self.fsync_policy,
            "segments": len(self._sealed) + 1,
            "active_segment": self._active,
            "active_bytes": self._active_size,
            "records": len(self._records),
            "records_appended": int(self._m_records.value),
            "fsyncs": int(self._m_fsyncs.value),
            "rotations": int(self._m_rotations.value),
            "checkpoints": [
                dict(entry) for entry in self._checkpoints
            ],
            "checkpoints_written": int(self._m_checkpoints.value),
            "floor": self._floor,
            "last_generation": self._last_generation,
            "torn_dropped": self.torn_dropped,
        }

    def close(self) -> None:
        """Flush the tail per policy and release descriptors (idempotent)."""
        if not self.readonly and self.fsync_policy != "os":
            if self.fs.exists(self._path(self._active)):
                self._fsync_active()
        close = getattr(self.fs, "close", None)
        if close is not None:
            close()
