"""Tests for the replication subsystem (``repro.replica``).

The contract under test (normative doc: ``docs/replication.md``):

- ``service.snapshot()`` produces a generation-stamped, schema-versioned
  artifact whose save/load round-trip is lossless and whose loader
  rejects mismatched schema versions and view definitions with typed
  errors;
- a :class:`ReplicaView` bootstrapped from a snapshot and folding the
  changefeed converges to a store *byte-identical* to the writer's at
  every generation it reaches, including replicas that attach mid-stream
  (the Hypothesis acceptance property);
- reads are fenced (``wait_for``), strict (divergence raises), and
  recover from staleness (coarse events, replay gaps) by
  re-bootstrapping — using ``ReplayGapError.oldest_available``;
- ``python -m repro.replica`` is the two offline modes over a snapshot
  artifact.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import __version__
from repro.errors import (
    ReplicaDivergedError,
    ReplicaError,
    ReplicaStaleError,
    ReproError,
    SnapshotError,
    SnapshotMismatchError,
    SnapshotSchemaError,
)
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp
from repro.replica import (
    SNAPSHOT_SCHEMA_VERSION,
    ReplicaView,
    Snapshot,
    atg_fingerprint,
)
from repro.replica.__main__ import main as replica_cli
from repro.service import ViewConfig, open_view
from repro.subscribe import NodeRecord, ViewEvent, coalesce
from repro.views.events import EdgeRecord
from repro.views.store import ViewStore
from repro.workloads import REGISTRAR_QUERIES, synthetic_config
from repro.workloads.bom import build_bom
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import build_synthetic

from registrar_streams import apply_item, registrar_streams


def registrar_service(**config):
    atg, db = build_registrar()
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    return open_view(atg, db, config=ViewConfig(**config))


OPS = [
    DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
    InsertOp(
        "course[cno=CS650]/prereq", "course", ("CS500", "Operating Systems")
    ),
    ReplaceOp(
        "course[cno=CS650]/prereq/course[cno=CS500]",
        "course",
        ("CS700", "Theory"),
    ),
]


def assert_converged(service, replica):
    assert replica.generation == service.stats()["generation"]
    assert replica.export_state() == service.store.export_state()
    assert replica.digest() == service.store.digest()
    for query in REGISTRAR_QUERIES:
        assert sorted(replica.xpath(query).targets) == sorted(
            service.xpath(query).targets
        ), f"replica xpath drifted for {query!r}"


# ---------------------------------------------------------------------------
# The snapshot artifact
# ---------------------------------------------------------------------------


class TestSnapshotArtifact:
    def test_capture_embeds_generation_and_provenance(self):
        service = registrar_service()
        service.apply(OPS[0])
        snapshot = service.snapshot()
        assert snapshot.generation == service.stats()["generation"] == 1
        assert snapshot.schema_version == SNAPSHOT_SCHEMA_VERSION
        prov = snapshot.provenance
        assert prov["library_version"] == __version__
        assert prov["atg_fingerprint"] == atg_fingerprint(service.atg)
        assert prov["nodes"] == service.store.num_nodes
        assert prov["edges"] == service.store.num_edges
        assert "created_at" in prov
        # The embedded config decodes back to the writer's exact config.
        assert ViewConfig.from_dict(snapshot.config) == service.config

    def test_save_load_round_trip_is_lossless(self, tmp_path):
        service = registrar_service()
        service.apply(OPS[0])
        snapshot = service.snapshot()
        path = tmp_path / "view.json.gz"
        snapshot.save(path)
        assert Snapshot.load(path) == snapshot

    def test_json_round_trip(self):
        snapshot = registrar_service().snapshot()
        assert Snapshot.from_json(snapshot.to_json()) == snapshot

    def test_restore_store_is_byte_identical(self):
        service = registrar_service()
        for op in OPS:
            service.apply(op)
        snapshot = service.snapshot()
        store = snapshot.restore_store(service.atg)
        assert store.export_state() == service.store.export_state()
        assert store.digest() == service.store.digest()

    def test_mismatched_schema_version_raises_typed_error(self, tmp_path):
        snapshot = registrar_service().snapshot()
        payload = snapshot.to_dict()
        payload["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotSchemaError) as info:
            Snapshot.from_dict(payload)
        assert info.value.found == SNAPSHOT_SCHEMA_VERSION + 1
        assert info.value.expected == SNAPSHOT_SCHEMA_VERSION

    def test_foreign_or_corrupt_artifacts_raise(self, tmp_path):
        with pytest.raises(SnapshotError):
            Snapshot.from_dict({"format": "something-else"})
        with pytest.raises(SnapshotError):
            Snapshot.from_dict({"format": "repro-snapshot"})  # no version
        path = tmp_path / "garbage.json.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(SnapshotError):
            Snapshot.load(path)

    def test_wrong_view_definition_raises_mismatch(self):
        snapshot = registrar_service().snapshot()
        bom_atg, _ = build_bom()
        with pytest.raises(SnapshotMismatchError):
            snapshot.restore_store(bom_atg)
        # Fingerprints are deterministic across ATG constructions.
        atg1, _ = build_registrar()
        atg2, _ = build_registrar()
        assert atg_fingerprint(atg1) == atg_fingerprint(atg2)


# ---------------------------------------------------------------------------
# The node-interning side channel (wire format)
# ---------------------------------------------------------------------------


class TestNodeRecordWire:
    def test_round_trip(self):
        record = NodeRecord(node=4, element="course", sem=("CS650", "AI"))
        assert NodeRecord.from_dict(record.to_dict()) == record

    def test_event_nodes_key_is_optional(self):
        # Producers that predate the key still decode (additive change,
        # not a schema bump — docs/event-schema.md compatibility rules).
        event = ViewEvent(generation=3, reason="delete")
        payload = event.to_dict()
        assert payload["nodes"] == []
        del payload["nodes"]
        assert ViewEvent.from_dict(payload).nodes == []

    def test_insert_events_carry_interning_records(self):
        service = registrar_service()
        feed = service.changefeed()
        service.apply(OPS[0])
        assert feed.events()[0].nodes == []  # pure delete: no new nodes
        service.apply(OPS[1])
        event = feed.events()[0]
        by_id = {rec.node: rec for rec in event.nodes}
        inserted = {
            rec.child for rec in event.edges if rec.kind == "insert"
        } | {rec.parent for rec in event.edges if rec.kind == "insert"}
        assert set(by_id) == inserted
        for rec in event.nodes:
            assert rec.element == service.store.node_type[rec.node]
            assert rec.sem == service.store.node_sem[rec.node]

    def test_coalesce_merges_nodes_deduplicated(self):
        a = ViewEvent(
            generation=1,
            nodes=[NodeRecord(1, "course", ("CS1",))],
        )
        b = ViewEvent(
            generation=2,
            nodes=[
                NodeRecord(1, "course", ("CS1",)),
                NodeRecord(2, "cno", ("CS1",)),
            ],
        )
        merged = coalesce([a, b])
        assert [rec.node for rec in merged.nodes] == [1, 2]


# ---------------------------------------------------------------------------
# Store export/import and ensure_node (unit level)
# ---------------------------------------------------------------------------


class TestStoreExportImport:
    def test_ensure_node_mirrors_and_guards(self):
        atg, db = build_registrar()
        store = ViewStore(atg)
        assert store.ensure_node(5, "course", ("CS1", "T")) is True
        assert store.ensure_node(5, "course", ("CS1", "T")) is False
        assert store._next_id == 6  # allocator advanced past the id
        with pytest.raises(ReproError):
            store.ensure_node(9, "course", ("CS1", "T"))  # same data, new id
        with pytest.raises(ReproError):
            store.ensure_node(5, "course", ("CS2", "U"))  # same id, new data

    def test_from_state_rejects_malformed_payloads(self):
        atg, _ = build_registrar()
        with pytest.raises(ReproError):
            ViewStore.from_state(atg, {"nodes": [[0, "course"]]})


# ---------------------------------------------------------------------------
# Bootstrap + fold
# ---------------------------------------------------------------------------


class TestReplicaFold:
    def test_bootstrap_then_fold_converges(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        assert replica.bootstrap() == 0
        for op in OPS:
            service.apply(op)
        assert replica.pump() == len(OPS)
        assert_converged(service, replica)
        assert replica.lag() == 0

    def test_batches_undo_and_base_updates_fold(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.bootstrap()
        with service.batch() as batch:
            batch.apply(OPS[0])
            batch.apply(OPS[1])
        outcome = service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS500]")
        )
        service.undo(outcome)
        service.apply(BaseUpdateOp(ops=(
            ("insert", "course", ("CS901", "Seminar", "CS")),
        )))
        replica.pump()
        assert_converged(service, replica)

    def test_mid_stream_bootstrap_converges(self):
        service = registrar_service()
        service.changefeed().close()  # retain from generation 0
        service.apply(OPS[0])
        service.apply(OPS[1])
        replica = ReplicaView(service.atg, service)
        started = replica.bootstrap()
        assert started == service.stats()["generation"]
        service.apply(OPS[2])
        replica.pump()
        assert_converged(service, replica)

    def test_replay_overlap_is_ignored(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.bootstrap()
        service.apply(OPS[0])
        event = replica._feed.next_event(timeout=1.0)
        assert replica.apply_event(event) is True
        assert replica.apply_event(event) is False  # duplicate delivery
        assert replica.events_folded == 1

    def test_coarse_event_raises_stale(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.bootstrap()
        event = ViewEvent(generation=1, coarse=True, reason="by hand")
        with pytest.raises(ReplicaStaleError):
            replica.apply_event(event)
        assert replica.generation == 0  # nothing folded

    def test_unknown_endpoint_raises_diverged(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.bootstrap()
        rogue = ViewEvent(
            generation=99,
            edges=[EdgeRecord("insert", "prereq", "course", 7, 12345)],
        )
        with pytest.raises(ReplicaDivergedError):
            replica.apply_event(rogue)

    def test_reads_require_bootstrap(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        with pytest.raises(ReplicaError):
            replica.xpath("course")
        with pytest.raises(ReplicaError):
            replica.digest()
        with pytest.raises(ReplicaError):
            replica.pump()

    def test_offline_replica_from_saved_artifact(self, tmp_path):
        service = registrar_service()
        for op in OPS:
            service.apply(op)
        path = tmp_path / "view.json.gz"
        service.snapshot().save(path)
        replica = ReplicaView.from_snapshot(
            service.atg, Snapshot.load(path)
        )
        assert replica.generation == service.stats()["generation"]
        for query in REGISTRAR_QUERIES:
            assert sorted(replica.xpath(query).targets) == sorted(
                service.xpath(query).targets
            )

    def test_wait_for_fences_background_folding(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.start()  # bootstraps and folds on a daemon thread
        for op in OPS:
            service.apply(op)
        generation = service.stats()["generation"]
        assert replica.wait_for(generation, timeout=10.0) >= generation
        assert_converged(service, replica)
        assert replica.lag() == 0
        with pytest.raises(TimeoutError):
            replica.wait_for(generation + 50, timeout=0.05)
        replica.close()
        assert replica.error is None

    def test_stats_shape(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.bootstrap()
        stats = replica.stats()
        assert stats["generation"] == 0
        assert stats["snapshots_loaded"] == 1
        assert stats["running"] is False


# ---------------------------------------------------------------------------
# A batch that collects a node and re-interns its (element, sem)
# ---------------------------------------------------------------------------

#: On ``synthetic:120:0`` deleting ``//cnode[key=1]`` collects the cnode,
#: and inserting its ``(element, sem)`` under cnode 2 interns it again,
#: under a new id.
COLLECT = DeleteOp("//cnode[key=1]")
REINTERN = InsertOp("//cnode[key=2]/sub", "cnode", (1, "v1"))


def synthetic_service(**config):
    dataset = build_synthetic(synthetic_config("synthetic:120:0"))
    config.setdefault("side_effects", "propagate")
    return open_view(dataset.atg, dataset.db, config=ViewConfig(**config))


class TestCollectAndReintern:
    def test_a_coalesced_event_folds_into_a_snapshot_replica(self):
        """The coalesced event's record for the new id comes while the
        old holder is still bound in the snapshot; the fold installs it
        once the edges that collected the old holder are folded."""
        service = synthetic_service()
        snapshot = service.snapshot()
        holder = service.store.lookup("cnode", (1, "v1"))
        assert holder is not None
        events = []
        service.changefeed(on_event=events.append)
        service.apply(COLLECT)
        assert service.store.lookup("cnode", (1, "v1")) is None
        service.apply(REINTERN)
        assert service.store.lookup("cnode", (1, "v1")) not in (None, holder)
        assert len(events) == 2
        replica = ReplicaView.from_snapshot(service.atg, snapshot)
        assert replica.apply_event(coalesce(events))
        assert replica.export_state() == service.store.export_state()
        assert replica.digest() == service.store.digest()

    def test_a_batch_recovers_from_its_log(self, tmp_path):
        """One batch, one logged event: reopening the log recovers the
        writer's state."""
        service = synthetic_service(wal_dir=str(tmp_path))
        with service.batch() as batch:
            assert batch.apply(COLLECT).accepted
            assert batch.apply(REINTERN).accepted
        service.close()
        recovered = synthetic_service(wal_dir=str(tmp_path))
        assert recovered.stats()["generation"] == service.stats()["generation"]
        assert recovered.store.digest() == service.store.digest()
        replica = ReplicaView.from_wal(service.atg, str(tmp_path))
        assert replica.digest() == service.store.digest()
        recovered.close()


# ---------------------------------------------------------------------------
# Staleness recovery (re-bootstrap)
# ---------------------------------------------------------------------------


class _StaleSnapshotWriter:
    """The service, except that its first snapshot is a stale one."""

    def __init__(self, service, stale):
        self.service = service
        self._stale = stale
        self.snapshots_served = 0

    def snapshot(self):
        self.snapshots_served += 1
        if self._stale is not None:
            stale, self._stale = self._stale, None
            return stale
        return self.service.snapshot()

    def changefeed(self, since):
        return self.service.changefeed(since=since)

    def stats(self):
        return self.service.stats()


class TestRebootstrap:
    def test_gap_retry_uses_oldest_available(self):
        service = registrar_service(changefeed_retention=2)
        service.changefeed().close()
        stale = service.snapshot()  # generation 0
        for _ in range(4):  # overflow the 2-event replay buffer
            service.apply(OPS[0])
            service.apply(OPS[1])
        writer = _StaleSnapshotWriter(service, stale)
        replica = ReplicaView(service.atg, writer)
        replica.bootstrap()
        # First attempt hit the gap; the retry demanded a snapshot at or
        # past ReplayGapError.oldest_available and succeeded.
        assert writer.snapshots_served == 2
        assert replica.snapshots_loaded == 1
        replica.pump()
        assert_converged(service, replica)

    def test_bootstrap_gives_up_with_typed_error(self):
        service = registrar_service(changefeed_retention=2)
        service.changefeed().close()
        stale = service.snapshot()
        for _ in range(4):
            service.apply(OPS[0])
            service.apply(OPS[1])

        class AlwaysStale(_StaleSnapshotWriter):
            def snapshot(self):
                return stale

        replica = ReplicaView(service.atg, AlwaysStale(service, stale))
        with pytest.raises(ReplicaStaleError):
            replica.bootstrap()

    def test_divergence_triggers_rebootstrap(self):
        service = registrar_service()
        replica = ReplicaView(service.atg, service)
        replica.bootstrap()
        replica.store = ViewStore(service.atg)  # a mirror that drifted
        service.apply(OPS[0])
        replica.pump()
        assert replica.snapshots_loaded == 2
        assert_converged(service, replica)


# ---------------------------------------------------------------------------
# The command line: offline modes only
# ---------------------------------------------------------------------------


class TestReplicaCli:
    def test_inspect_and_snapshot_modes(self, tmp_path, capsys):
        service = registrar_service()
        service.apply(OPS[0])
        path = str(tmp_path / "view.json.gz")
        service.snapshot().save(path)
        assert replica_cli(["--inspect", path]) == 0
        assert "snapshot generation 1:" in capsys.readouterr().out
        query = "course[cno=CS650]/prereq/course"
        assert replica_cli(["--snapshot", path, "--query", query]) == 0
        expected = sorted(service.xpath(query).targets)
        assert f"[gen 1] {query} -> {expected}" in capsys.readouterr().out

    def test_connect_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as usage:
            replica_cli(
                ["--connect", "127.0.0.1:1", "--workload", "registrar"]
            )
        assert usage.value.code == 2
        assert "usage: python -m repro.replica" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The acceptance property: byte-identical convergence for arbitrary streams
# ---------------------------------------------------------------------------


@given(registrar_streams())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_replicas_converge_byte_identically(stream):
    """ISSUE 7 acceptance: for any op stream over the full mutating
    surface (insert/delete/replace/base/batch/abort), a replica attached
    at generation 0 AND a replica bootstrapped mid-stream from a fresh
    snapshot both reach a store byte-identical to the writer's at the
    final generation, and their local xpath() answers match the writer's
    for the whole query panel."""
    service = registrar_service()
    replica_0 = ReplicaView(service.atg, service)
    replica_0.bootstrap()
    replica_mid = None

    midpoint = len(stream) // 2
    for position, item in enumerate(stream):
        if position == midpoint:
            replica_mid = ReplicaView(service.atg, service)
            replica_mid.bootstrap()
        apply_item(service, item)
    if replica_mid is None:  # single-op streams have no midpoint
        replica_mid = ReplicaView(service.atg, service)
        replica_mid.bootstrap()

    replica_0.pump()
    replica_mid.pump()
    assert_converged(service, replica_0)
    assert_converged(service, replica_mid)
    assert service.check_consistency() == []
