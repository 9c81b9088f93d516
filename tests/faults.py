"""Crash-point fault injection for the durable changefeed log.

Three tools, layered from fastest to most realistic:

- :class:`CrashPointFS` — wraps the WAL's file-system seam and raises
  :class:`CrashInjected` *instead of performing* the Nth mutating
  operation, simulating a process that died at exactly that boundary
  (an un-performed operation leaves no bytes, like a kill between two
  syscalls).
- :class:`RecordingFS` — performs every operation against a real
  directory *and* records the mutating ones with their payloads;
  :func:`materialize` then reproduces the exact on-disk state after any
  prefix of that history in a fresh directory.  One writer run plus
  O(boundaries) cheap materializations sweeps every crash point without
  re-running the writer per point.
- :func:`spawn_writer` / ``kill -9`` — an actual subprocess writer
  killed mid-stream, for the one test where nothing short of SIGKILL
  is convincing.

A *mutating* operation is one that changes directory contents:
``append``, ``write_bytes``, ``rename``, ``truncate``, ``remove``,
``makedirs``.  ``fsync``/``fsync_dir`` are deliberately not crash
boundaries for :func:`materialize`: with no machine-crash simulation,
a completed write survives whether or not it was fsynced, so the state
after "crash at fsync #k" equals the state after the preceding
mutation.  (:class:`CrashPointFS` *can* count them, for tests that
want an exception raised inside a sync path.)
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from repro.wal.fs import OsFileSystem

#: Operations that change directory contents (crash-sweep boundaries).
MUTATING_OPS = (
    "append",
    "write_bytes",
    "rename",
    "truncate",
    "remove",
    "makedirs",
)

#: Operations CrashPointFS counts when ``count_fsync`` is set.
DURABILITY_OPS = MUTATING_OPS + ("fsync", "fsync_dir")


class CrashInjected(BaseException):
    """The simulated crash.

    Deliberately a ``BaseException``: production code must not be able
    to swallow it with ``except Exception`` — a real SIGKILL is not
    catchable either.
    """


class CrashPointFS:
    """Raise :class:`CrashInjected` instead of the Nth counted operation.

    ``crash_at=N`` (1-based) performs operations 1..N-1 normally and
    raises on the Nth; ``crash_at=None`` never raises (pure counter,
    used to measure a run's total operation count).  ``ops_seen``
    records every counted operation as ``(name, relpath)`` for
    diagnostics.
    """

    def __init__(
        self,
        root: str,
        crash_at: int | None = None,
        inner=None,
        count_fsync: bool = False,
    ):
        self.root = str(root)
        self.inner = inner if inner is not None else OsFileSystem()
        self.crash_at = crash_at
        self.counted = DURABILITY_OPS if count_fsync else MUTATING_OPS
        self.ops_seen: list[tuple[str, str]] = []
        self.crashed = False

    def _rel(self, path: str) -> str:
        return os.path.relpath(path, self.root)

    def count(self, name: str, prefix: str) -> int:
        """Counted ``name`` operations on files starting with ``prefix``."""
        return sum(
            1 for op, path in self.ops_seen
            if op == name and path.startswith(prefix)
        )

    def _gate(self, name: str, path: str) -> None:
        if name not in self.counted:
            return
        self.ops_seen.append((name, self._rel(path)))
        at = self.crash_at
        if at is not None and len(self.ops_seen) >= at and not self.crashed:
            self.crashed = True
            raise CrashInjected(
                f"crash injected at op #{len(self.ops_seen)}: "
                f"{name}({self._rel(path)})"
            )

    # -- gated passthroughs --------------------------------------------------------

    def append(self, path, data):
        self._gate("append", path)
        self.inner.append(path, data)

    def write_bytes(self, path, data):
        self._gate("write_bytes", path)
        self.inner.write_bytes(path, data)

    def fsync(self, path):
        self._gate("fsync", path)
        self.inner.fsync(path)

    def fsync_dir(self, path):
        self._gate("fsync_dir", path)
        self.inner.fsync_dir(path)

    def rename(self, src, dst):
        self._gate("rename", src)
        self.inner.rename(src, dst)

    def truncate(self, path, size):
        self._gate("truncate", path)
        self.inner.truncate(path, size)

    def remove(self, path):
        self._gate("remove", path)
        self.inner.remove(path)

    def makedirs(self, path):
        self._gate("makedirs", path)
        self.inner.makedirs(path)

    # -- reads are never crash boundaries ------------------------------------------

    def read_bytes(self, path):
        return self.inner.read_bytes(path)

    def exists(self, path):
        return self.inner.exists(path)

    def listdir(self, path):
        return self.inner.listdir(path)

    def close(self):
        self.inner.close()


class RecordingFS:
    """Perform and record every mutating operation (with payloads).

    The recorded history (:attr:`ops`) holds root-relative paths, so
    :func:`materialize` can replay any prefix into a different
    directory.  Reads pass straight through, unrecorded.
    """

    def __init__(self, root: str, inner=None):
        self.root = str(root)
        self.inner = inner if inner is not None else OsFileSystem()
        self.ops: list[tuple] = []

    def _rel(self, path: str) -> str:
        return os.path.relpath(path, self.root)

    def append(self, path, data):
        self.ops.append(("append", self._rel(path), bytes(data)))
        self.inner.append(path, data)

    def write_bytes(self, path, data):
        self.ops.append(("write_bytes", self._rel(path), bytes(data)))
        self.inner.write_bytes(path, data)

    def fsync(self, path):
        self.inner.fsync(path)

    def fsync_dir(self, path):
        self.inner.fsync_dir(path)

    def rename(self, src, dst):
        self.ops.append(("rename", self._rel(src), self._rel(dst)))
        self.inner.rename(src, dst)

    def truncate(self, path, size):
        self.ops.append(("truncate", self._rel(path), size))
        self.inner.truncate(path, size)

    def remove(self, path):
        self.ops.append(("remove", self._rel(path)))
        self.inner.remove(path)

    def makedirs(self, path):
        self.ops.append(("makedirs", self._rel(path)))
        self.inner.makedirs(path)

    def read_bytes(self, path):
        return self.inner.read_bytes(path)

    def exists(self, path):
        return self.inner.exists(path)

    def listdir(self, path):
        return self.inner.listdir(path)

    def close(self):
        self.inner.close()


def materialize(
    ops: list[tuple], target: str, partial_tail: int | None = None
) -> None:
    """Reproduce the on-disk state after a prefix of a recorded history.

    Replays ``ops`` (from a :class:`RecordingFS`) into the ``target``
    directory.  ``partial_tail=k`` additionally applies only the first
    ``k`` bytes of one *extra* trailing ``append``/``write_bytes``
    operation the caller included in ``ops`` — the torn-record case a
    crash mid-``write(2)`` produces.  (``k`` may exceed the final op's
    payload; it is clamped.)
    """
    os.makedirs(target, exist_ok=True)
    history = ops if partial_tail is None else ops[:-1]
    for op in history:
        _replay(op, target)
    if partial_tail is not None:
        kind, rel, data = ops[-1]
        assert kind in ("append", "write_bytes"), kind
        _replay((kind, rel, data[:partial_tail]), target)


def _replay(op: tuple, target: str) -> None:
    kind = op[0]
    path = os.path.join(target, op[1])
    if kind == "append":
        with open(path, "ab") as handle:
            handle.write(op[2])
    elif kind == "write_bytes":
        with open(path, "wb") as handle:
            handle.write(op[2])
    elif kind == "rename":
        os.replace(path, os.path.join(target, op[2]))
    elif kind == "truncate":
        os.truncate(path, op[2])
    elif kind == "remove":
        os.remove(path)
    elif kind == "makedirs":
        os.makedirs(path, exist_ok=True)
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown recorded op {kind!r}")


# ---------------------------------------------------------------------------
# The subprocess / SIGKILL driver
# ---------------------------------------------------------------------------

#: Stand-alone writer the kill -9 test runs: an infinite commit stream
#: against a durable registrar service, one line of progress per commit.
WRITER_SCRIPT = textwrap.dedent(
    """
    import itertools, sys
    from repro.ops import DeleteOp, InsertOp
    from repro.service import ViewConfig, open_view
    from repro.workloads.registrar import build_registrar

    wal_dir = sys.argv[1]
    fsync = sys.argv[2] if len(sys.argv) > 2 else "batch"
    atg, db = build_registrar()
    service = open_view(
        atg, db,
        config=ViewConfig(
            wal_dir=wal_dir, wal_fsync=fsync, strict=False,
            wal_checkpoint_every=16,
        ),
    )
    for i in itertools.count():
        cno = ("CS650", "CS320", "CS240")[i % 3]
        service.apply(
            InsertOp(f"//course[cno={cno}]/prereq", "course", ("CS900", "X"))
        )
        service.apply(DeleteOp(f"//course[cno={cno}]/prereq/course[cno=CS900]"))
        print(service.stats()["generation"], flush=True)
    """
)


def spawn_writer(wal_dir: str, fsync: str = "batch") -> subprocess.Popen:
    """Start the stand-alone durable writer as a real subprocess.

    The child prints its generation after every commit (line-buffered),
    so the parent can wait for progress before delivering SIGKILL.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", WRITER_SCRIPT, wal_dir, fsync],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def kill_after_progress(proc: subprocess.Popen, commits: int) -> int:
    """SIGKILL the writer once it has reported ``commits`` commits.

    Returns the last generation the writer acknowledged before the
    kill — the recovery floor the recovered service must reach (every
    acknowledged commit at most one fsync batch old may exceed it).
    """
    last = 0
    for _ in range(commits):
        line = proc.stdout.readline()
        if not line:  # pragma: no cover - writer died early; tests assert
            break
        last = int(line)
    proc.kill()  # SIGKILL: no atexit, no finally, no flush
    proc.wait(timeout=30)
    return last
