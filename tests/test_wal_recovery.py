"""Crash-point recovery tests for the durable changefeed log.

The acceptance property, stated once and tested three ways:

    For ANY prefix of the file-system operation history a durable
    writer produces — i.e. for a crash at any operation boundary, plus
    any partial final write — recovering the directory yields exactly
    the state of some committed prefix of the op stream: never torn,
    never inconsistent, never an error.

1. :class:`TestCrashPointSweep` enumerates *every* boundary of a
   200-op commit stream (the writer runs once under a
   :class:`~faults.RecordingFS`; each boundary is materialized into a
   fresh directory — no writer re-runs).
2. ``test_recovery_property`` lets Hypothesis pick both the op stream
   (insert/delete/replace/base/batch/abort) and the crash point.
3. :class:`TestKillNine` crashes a real subprocess writer with SIGKILL
   mid-stream and recovers in this process.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faults import (
    CrashInjected,
    CrashPointFS,
    RecordingFS,
    kill_after_progress,
    materialize,
    spawn_writer,
)
from repro.errors import WalError
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp
from repro.replica import ReplicaView, Snapshot
from repro.service import ViewConfig, open_view
from repro.views.events import ViewEvent, fold_event
from repro.wal import WriteAheadLog, decode_delta
from repro.workloads.registrar import build_registrar

WAL_CONFIG = dict(
    strict=False,
    side_effects="propagate",
    wal_segment_bytes=1024,      # force rotations inside the stream
    wal_checkpoint_every=10,     # force checkpoints + compaction too
    wal_fsync="batch",
)

COURSES = ("CS650", "CS320", "CS240", "CS700", "CS800")


def commit_stream(n: int) -> list:
    """A deterministic n-op mix touching every op kind.

    Entries are ops, lists of ops (batched apply), or ``("abort", op)``
    tuples (planned then aborted — must publish nothing).
    """
    stream = []
    for i in range(n):
        cno = COURSES[i % len(COURSES)]
        other = COURSES[(i + 1) % len(COURSES)]
        kind = i % 7
        if kind in (0, 3):
            stream.append(
                InsertOp(
                    f"//course[cno={cno}]/prereq",
                    "course",
                    (other, f"Title {other}"),
                )
            )
        elif kind in (1, 4):
            stream.append(DeleteOp(f"//course[cno={cno}]/prereq/course"))
        elif kind == 2:
            stream.append(
                ReplaceOp(
                    f"//course[cno={cno}]/prereq/course",
                    "course",
                    (other, f"Title {other}"),
                )
            )
        elif kind == 5:
            stream.append(
                BaseUpdateOp(
                    ops=(("insert", "course", (f"X{i}", "Fresh", "CS")),)
                )
            )
        else:
            stream.append(
                [
                    InsertOp(
                        f"//course[cno={cno}]/prereq",
                        "course",
                        (other, f"Title {other}"),
                    ),
                    DeleteOp(f"//course[cno={cno}]/prereq/course"),
                ]
            )
    return stream


def db_fingerprint(db) -> dict:
    """Row multisets per table (order-independent comparison)."""
    return {
        name: sorted(db.rows(name)) for name in db.table_names()
    }


def run_writer(stream, wal_dir, fs=None, committed=None) -> dict:
    """Apply ``stream`` to a durable registrar service.

    Populates and returns ``{generation: (digest, db_fingerprint)}`` —
    the at-rest state after boot and after *every logged event* (a
    batched apply logs one record per op, so mid-batch crash points are
    real boundaries too); recovery from any crash point must land
    exactly on one of these.  The per-generation states come from a
    shadow fold of the live changefeed — the same fold recovery itself
    replays.  Pass ``committed={}`` to keep the partial map when an
    injected crash aborts the run: every event staged before the crash
    is folded before the exception propagates.  (Same-run comparison
    also sidesteps the process-global fresh-value counter, which makes
    synthesized db values differ *between* runs.)
    """
    committed = {} if committed is None else committed
    # The boot state, computed without touching wal_dir: a crash during
    # the durable service's own boot recovers to exactly this.
    shadow_atg, shadow_db = build_registrar()
    plain = open_view(
        shadow_atg, shadow_db,
        config=ViewConfig(strict=False, side_effects="propagate"),
    )
    shadow = plain.store
    committed[0] = (shadow.digest(), db_fingerprint(shadow_db))

    atg, db = build_registrar()
    service = open_view(
        atg, db,
        config=ViewConfig(wal_dir=str(wal_dir), **WAL_CONFIG),
        wal_fs=fs,
    )
    feed = service.changefeed()

    def fold_pending():
        for event in feed.events():
            fold_event(shadow, event)
            if event.delta_r is not None:
                shadow_db.apply(event.delta_r)
            committed[event.generation] = (
                shadow.digest(), db_fingerprint(shadow_db),
            )

    def fold_tail_from_disk():
        # A crash inside the commit pipeline can leave records durable
        # in the log that never reached the fan-out phase (delivery to
        # consumers happens off the write lock), so the feed alone
        # under-covers the recoverable generations: fold the log tail.
        try:
            wal = WriteAheadLog(str(wal_dir), readonly=True)
        except WalError:
            return  # crashed before the directory became a log
        try:
            for generation, payload in wal.records_since(max(committed)):
                fold_event(shadow, ViewEvent.from_dict(payload["event"]))
                delta = decode_delta(payload.get("delta_r"))
                if delta is not None:
                    shadow_db.apply(delta)
                committed[generation] = (
                    shadow.digest(), db_fingerprint(shadow_db),
                )
        finally:
            wal.close()

    try:
        for entry in stream:
            if isinstance(entry, tuple) and entry[0] == "abort":
                plan = service.plan(entry[1])
                if plan.accepted:
                    plan.abort()
                continue
            service.apply(entry)
            fold_pending()
    except BaseException:
        fold_tail_from_disk()
        raise
    assert service.check_consistency() == []
    assert shadow.digest() == service.store.digest()
    feed.close()
    service.close()
    return committed


def assert_recovers_to_commit(wal_dir, committed) -> int:
    """Recover ``wal_dir`` and assert it equals some committed state."""
    atg, db = build_registrar()
    service = open_view(
        atg, db, config=ViewConfig(wal_dir=str(wal_dir), **WAL_CONFIG)
    )
    generation = service.stats()["generation"]
    assert generation in committed, (
        f"recovered to generation {generation}, which was never an "
        f"at-rest commit (have {sorted(committed)})"
    )
    digest, rows = committed[generation]
    assert service.store.digest() == digest
    assert db_fingerprint(service.db) == rows
    assert service.check_consistency() == []
    service.close()
    return generation


# ---------------------------------------------------------------------------
# The exhaustive boundary sweep
# ---------------------------------------------------------------------------


class TestCrashPointSweep:
    def test_every_boundary_of_a_200_op_stream(self, tmp_path):
        """One writer run; every fs-op boundary materialized + recovered.

        Also covers the torn-write variants: for each append boundary,
        the final write is additionally cut short at first/middle/last
        byte (a crash mid-``write(2)``).
        """
        stream = commit_stream(200)
        fs = RecordingFS(str(tmp_path / "writer"))
        committed = run_writer(stream, tmp_path / "writer", fs=fs)
        ops = fs.ops
        assert len(ops) > 200, "stream too small to be a real sweep"
        recovered_gens = set()
        scratch = tmp_path / "scratch"
        for boundary in range(len(ops) + 1):
            target = str(scratch / f"b{boundary}")
            materialize(ops[:boundary], target)
            recovered_gens.add(assert_recovers_to_commit(target, committed))
        # Torn final writes: only append/write_bytes can tear.
        for boundary in range(len(ops)):
            kind = ops[boundary][0]
            if kind not in ("append", "write_bytes"):
                continue
            data = ops[boundary][2]
            cuts = {1, len(data) // 2, max(1, len(data) - 1)}
            for cut in sorted(cuts):
                if cut >= len(data):
                    continue
                target = str(scratch / f"b{boundary}p{cut}")
                materialize(
                    ops[: boundary + 1], target, partial_tail=cut
                )
                recovered_gens.add(
                    assert_recovers_to_commit(target, committed)
                )
        # The sweep is meaningful: recovery landed on many different
        # generations (not always the same checkpoint), including the
        # final one (the complete-history boundary).
        assert len(recovered_gens) > 10
        assert max(committed) in recovered_gens

    def test_crash_point_fs_raises_and_directory_recovers(self, tmp_path):
        """The in-process injector: die AT an op, then recover the dir.

        Complements the sweep (which reproduces the state *before* an
        op): here the writer actually raises mid-commit, exercising the
        service's unwind path, and the directory left behind must still
        recover.  A handful of probe points across the run suffice —
        the sweep owns exhaustiveness.
        """
        stream = commit_stream(60)
        counter = CrashPointFS(str(tmp_path / "count"))
        run_writer(stream, tmp_path / "count", fs=counter)
        total = len(counter.ops_seen)
        probes = sorted({1, 2, total // 4, total // 2, total - 1, total})
        for n in probes:
            wal_dir = tmp_path / f"crash{n}"
            fs = CrashPointFS(str(wal_dir), crash_at=n)
            committed: dict = {}
            with pytest.raises(CrashInjected):
                run_writer(stream, wal_dir, fs=fs, committed=committed)
            assert_recovers_to_commit(wal_dir, committed)


# ---------------------------------------------------------------------------
# The Hypothesis property
# ---------------------------------------------------------------------------


@st.composite
def crash_scenarios(draw):
    """An arbitrary op stream plus an arbitrary crash fraction."""
    n_ops = draw(st.integers(min_value=1, max_value=8))
    entries = []
    for index in range(n_ops):
        cno = draw(st.sampled_from(COURSES))
        other = draw(st.sampled_from(COURSES))
        kind = draw(
            st.sampled_from(
                ("insert", "delete", "replace", "base", "batch", "abort")
            )
        )
        insert = InsertOp(
            f"//course[cno={cno}]/prereq", "course", (other, f"Title {other}")
        )
        if kind == "insert":
            entries.append(insert)
        elif kind == "delete":
            entries.append(DeleteOp(f"//course[cno={cno}]/prereq/course"))
        elif kind == "replace":
            entries.append(
                ReplaceOp(
                    f"//course[cno={cno}]/prereq/course",
                    "course",
                    (other, f"Title {other}"),
                )
            )
        elif kind == "base":
            entries.append(
                BaseUpdateOp(
                    ops=(
                        ("insert", "course", (f"X{cno}{index}", "Fresh", "CS")),
                    )
                )
            )
        elif kind == "batch":
            entries.append(
                [insert, DeleteOp(f"//course[cno={cno}]/prereq/course")]
            )
        else:
            entries.append(("abort", insert))
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    return entries, fraction


@given(crash_scenarios())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recovery_property(tmp_path_factory, scenario):
    """Arbitrary stream × arbitrary crash point → some committed state."""
    stream, fraction = scenario
    base = tmp_path_factory.mktemp("walprop")
    fs = RecordingFS(str(base / "writer"))
    committed = run_writer(stream, base / "writer", fs=fs)
    boundary = round(fraction * len(fs.ops))
    target = str(base / "crash")
    materialize(fs.ops[:boundary], target)
    assert_recovers_to_commit(target, committed)


# ---------------------------------------------------------------------------
# SIGKILL, for real
# ---------------------------------------------------------------------------


class TestKillNine:
    @pytest.mark.parametrize("fsync", ["batch", "always"])
    def test_subprocess_writer_killed_mid_stream(self, tmp_path, fsync):
        wal_dir = str(tmp_path / "wal")
        proc = spawn_writer(wal_dir, fsync=fsync)
        try:
            acked = kill_after_progress(proc, commits=20)
        finally:
            if proc.poll() is None:  # pragma: no cover - defensive
                proc.kill()
                proc.wait(timeout=30)
        # 20 applies were acknowledged; the generation they reached is
        # lower (the writer's delete-by-path ops are sometimes rejected
        # under the abort policy), but progress must be real.
        assert acked > 0, proc.stderr.read()
        # A *process* crash loses nothing that reached write(2): the
        # page cache survives, so recovery must reach every
        # acknowledged commit regardless of fsync policy.
        atg, db = build_registrar()
        service = open_view(
            atg, db,
            config=ViewConfig(
                strict=False, wal_dir=wal_dir, wal_checkpoint_every=16
            ),
        )
        assert service.stats()["generation"] >= acked
        assert service.check_consistency() == []
        # The recovered service is a fully functional writer.
        out = service.apply(
            InsertOp("//course[cno=CS650]/prereq", "course", ("CS901", "N"))
        )
        assert out.accepted
        assert service.check_consistency() == []
        service.close()
        # Recovery is idempotent: a second recovery sees the new commit.
        atg2, db2 = build_registrar()
        again = open_view(
            atg2, db2,
            config=ViewConfig(
                strict=False, wal_dir=wal_dir, wal_checkpoint_every=16
            ),
        )
        assert again.stats()["generation"] == service.stats()["generation"]
        assert again.store.digest() == service.store.digest()
        again.close()


# ---------------------------------------------------------------------------
# Artifacts written before the config lost five fields and ``M`` its backends
# ---------------------------------------------------------------------------


def test_checkpoint_with_retired_config_fields_still_loads(tmp_path):
    """A snapshot / WAL checkpoint as releases up to 0.10 wrote it —
    ``config`` carrying ``commit_pipeline``,
    ``capture_closure_deltas``, ``coarse_event_threshold``,
    ``verify_each_update`` and ``index_backend: "sets"``, the provenance carrying ``index_backend``
    too — recovers and bootstraps a replica: the fields are carried as
    data, never decoded."""
    wal_dir = str(tmp_path / "wal")
    atg, db = build_registrar()
    writer = open_view(atg, db, config=ViewConfig(strict=False))
    assert writer.apply(
        DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
    ).accepted
    old_config = {
        **ViewConfig(strict=False, wal_dir=wal_dir).to_dict(),
        "index_backend": "sets",
        "capture_closure_deltas": "auto",
        "commit_pipeline": True,
        "coarse_event_threshold": None,
        "verify_each_update": False,
    }
    snapshot = Snapshot.capture(
        writer.store, generation=1, config=old_config, base=db.export_state()
    )
    snapshot = dataclasses.replace(
        snapshot,
        provenance={**snapshot.provenance, "index_backend": "sets"},
    )
    wal = WriteAheadLog(wal_dir)
    wal.write_checkpoint(snapshot)
    wal.close()
    snapshot.save(str(tmp_path / "snap.json.gz"))

    loaded = Snapshot.load(str(tmp_path / "snap.json.gz"))
    assert loaded.config == old_config
    assert loaded.provenance["index_backend"] == "sets"
    for replica in (
        ReplicaView.from_snapshot(atg, loaded),
        ReplicaView.from_wal(atg, wal_dir),
    ):
        assert replica.generation == 1
        assert replica.store.digest() == writer.store.digest()

    atg2, db2 = build_registrar()
    recovered = open_view(
        atg2, db2, config=ViewConfig(strict=False, wal_dir=wal_dir)
    )
    assert recovered.stats()["generation"] == 1
    assert recovered.stats()["index_backend"] == "bitset"
    assert recovered.store.digest() == writer.store.digest()
    assert recovered.apply(
        InsertOp("course[cno=CS650]/prereq", "course", ("CS320", "Databases"))
    ).accepted
    assert recovered.check_consistency() == []
    recovered.close()
