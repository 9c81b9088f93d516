"""Files read back from disk never run code, and decode to typed errors.

A snapshot file and a WAL checkpoint are one artifact (gzip'd, sorted,
compact JSON), decoded only by :meth:`Snapshot.from_bytes`.  Three
layers of evidence:

- a *hostile* gzip'd pickle — one whose ``__reduce__`` creates a marker
  file — fed to every reader of the artifact (``Snapshot.load``,
  ``open_view(wal_dir=...)`` recovery, ``ReplicaView.from_wal`` and
  ``python -m repro.replica --inspect``): each raises its typed error or
  exits non-zero, and the marker never appears;
- Hypothesis over ``Snapshot.from_bytes`` and ``latest_checkpoint`` on
  the same bytes: arbitrary bytes, gzip of arbitrary bytes, gzip of
  arbitrary JSON values, and valid envelopes with one key dropped or
  retyped; only :class:`~repro.errors.ReproError` subclasses escape,
  from the decode or from describing and restoring what it returned;
- a committed seed corpus (``tests/data/snapshot_corpus/``): a harmless
  pickle-era file, a truncated gzip, and a JSON snapshot in the format
  of the release before ``base`` existed, which still loads.

WAL segments get the same fuzz at their frame decoder
(``read_segment(data, name, last)``): valid frames, cut, flipped or
followed by other bytes, raise :class:`~repro.errors.WalCorruptionError`
or decode, and only a lowercase-hex prefix of a frame is ever dropped
as a torn tail.  So does the WAL manifest (``WriteAheadLog(dir)``, read
only and read-write), and so do the two wire decoders peers feed:
``op_from_json`` / ``ops_from_jsonl`` and ``ViewEvent.from_json``
(:class:`~repro.errors.OpDecodeError` /
:class:`~repro.errors.EventDecodeError`, nesting past the JSON
decoder's recursion limit included).  The corpus holds a deeply nested
document, a JSON-lines op stream with one malformed line of each kind,
and an event in the current wire form.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import DeleteOp, ReplicaView, Snapshot, ViewConfig, open_view
from repro.errors import (
    EventDecodeError,
    OpDecodeError,
    ReproError,
    SnapshotError,
    WalCheckpointError,
    WalCorruptionError,
)
from repro.ops import InsertOp, op_from_dict, op_from_json, ops_from_jsonl
from repro.views.events import ViewEvent
from repro.wal import WriteAheadLog
from repro.wal.log import MANIFEST_FORMAT, MANIFEST_VERSION
from repro.wal.segment import encode_record, read_segment
from repro.workloads.registrar import build_registrar

CORPUS = Path(__file__).parent / "data" / "snapshot_corpus"
DELETE = DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")


class _CreatesFile:
    """Unpickling this object opens (creates) ``path`` for writing."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def hostile_artifact(marker: Path) -> bytes:
    """A gzip'd pickle whose load creates ``marker``."""
    return gzip.compress(pickle.dumps(_CreatesFile(str(marker))))


def durable_registrar(wal_dir: str):
    atg, db = build_registrar()
    return open_view(
        atg, db, config=ViewConfig(strict=False, wal_dir=wal_dir)
    )


def plant_checkpoint(wal_dir: str, data: bytes) -> None:
    """Overwrite the checkpoint the manifest references with ``data``."""
    with open(os.path.join(wal_dir, "manifest.json")) as fh:
        name = json.load(fh)["checkpoints"][-1]["name"]
    with open(os.path.join(wal_dir, name), "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# A hostile pickle reaches every reader; none of them runs it
# ---------------------------------------------------------------------------


class TestHostilePickle:
    def test_snapshot_load(self, tmp_path):
        marker = tmp_path / "pwned"
        path = tmp_path / "view.json.gz"
        path.write_bytes(hostile_artifact(marker))
        with pytest.raises(SnapshotError) as info:
            Snapshot.load(path)
        assert not marker.exists()
        assert "pickle-era" in str(info.value)

    @pytest.fixture
    def hostile_wal(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        service = durable_registrar(wal_dir)
        service.apply(DELETE)
        service.close()
        marker = tmp_path / "pwned"
        plant_checkpoint(wal_dir, hostile_artifact(marker))
        return wal_dir, marker

    def test_open_view_recovery(self, hostile_wal):
        wal_dir, marker = hostile_wal
        with pytest.raises(WalCheckpointError) as info:
            durable_registrar(wal_dir)
        assert not marker.exists()
        assert "pickle-era" in str(info.value)

    def test_replica_from_wal(self, hostile_wal):
        wal_dir, marker = hostile_wal
        atg, _ = build_registrar()
        with pytest.raises(WalCheckpointError) as info:
            ReplicaView.from_wal(atg, wal_dir)
        assert not marker.exists()
        assert "pickle-era" in str(info.value)

    def test_replica_cli_inspect(self, tmp_path):
        marker = tmp_path / "pwned"
        path = tmp_path / "view.json.gz"
        path.write_bytes(hostile_artifact(marker))
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.replica", "--inspect", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode != 0
        assert not marker.exists()
        assert "pickle-era" in proc.stderr


# ---------------------------------------------------------------------------
# Decode fuzzing
# ---------------------------------------------------------------------------

_ATG, _ = build_registrar()


def _valid_envelope() -> dict:
    atg, db = build_registrar()
    service = open_view(atg, db)
    service.apply(DELETE)
    snapshot = service.snapshot()
    return {**snapshot.to_dict(), "base": db.export_state()}


_ENVELOPE = _valid_envelope()

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _dropped(key: str) -> dict:
    return {k: v for k, v in _ENVELOPE.items() if k != key}


@st.composite
def _broken_envelopes(draw) -> dict:
    """A valid envelope with one key dropped or given another type."""
    kind = draw(st.sampled_from(
        ["drop", "retype", "generation", "store_state", "base", "rows",
         "fingerprint", "nodes", "children"]
    ))
    if kind == "drop":
        return _dropped(draw(st.sampled_from(sorted(_ENVELOPE))))
    if kind == "retype":
        return {**_ENVELOPE, draw(st.sampled_from(sorted(_ENVELOPE))):
                draw(_json_values)}
    if kind == "generation":
        return {**_ENVELOPE, "generation": draw(
            st.booleans() | st.text(max_size=4) | st.floats()
        )}
    if kind == "store_state":
        return {**_ENVELOPE, "store_state": draw(st.lists(_json_values))}
    if kind == "base":
        return {**_ENVELOPE, "base": draw(
            st.lists(_json_values) | st.text(max_size=4) | st.integers()
        )}
    if kind == "rows":
        tables = _ENVELOPE["base"]["tables"]
        name = draw(st.sampled_from(sorted(tables)))
        return {**_ENVELOPE, "base": {"tables": {
            **tables, name: draw(st.lists(_json_values, max_size=3))
        }}}
    if kind == "fingerprint":
        return {**_ENVELOPE, "provenance": {"atg_fingerprint": draw(
            _json_values.filter(lambda value: value is not None)
        )}}
    rows = draw(st.lists(_json_values, min_size=1, max_size=4))
    return {**_ENVELOPE,
            "store_state": {**_ENVELOPE["store_state"], kind: rows}}


def _gzip_json(value) -> bytes:
    return gzip.compress(json.dumps(value).encode("utf-8"))


_inputs = st.one_of(
    st.binary(max_size=256),
    st.binary(max_size=256).map(gzip.compress),
    _json_values.map(_gzip_json),
    _broken_envelopes().map(_gzip_json),
)


@pytest.mark.parametrize("broken", [
    {**_ENVELOPE, "generation": True},
    {**_ENVELOPE, "generation": "1"},
    {**_ENVELOPE, "store_state": []},
    {**_ENVELOPE, "base": []},
    {**_ENVELOPE, "base": "rows"},
    {**_ENVELOPE, "store_state": {**_ENVELOPE["store_state"], "nodes": 3}},
    {**_ENVELOPE, "store_state": {**_ENVELOPE["store_state"], "children": [[1]]}},
    _dropped("store_state"),
], ids=["generation-bool", "generation-str", "store_state-list", "base-list",
        "base-str", "nodes-int", "children-short-row", "no-store_state"])
def test_each_named_breakage_is_refused(checkpoint_wal, broken):
    wal, wal_dir = checkpoint_wal
    data = _gzip_json(broken)
    with pytest.raises(SnapshotError):
        Snapshot.from_bytes(data)
    plant_checkpoint(wal_dir, data)
    with pytest.raises(WalCheckpointError):
        wal.latest_checkpoint()


@pytest.mark.parametrize(
    "rows", [[5], [None], 5, {"k": [1]}],
    ids=["int-row", "null-row", "int", "object"],
)
def test_malformed_base_rows_are_a_typed_error_on_recovery(tmp_path, rows):
    wal_dir = str(tmp_path / "wal")
    durable_registrar(wal_dir).close()
    tables = {**_ENVELOPE["base"]["tables"], "course": rows}
    plant_checkpoint(wal_dir, _gzip_json(
        {**_ENVELOPE, "generation": 0, "base": {"tables": tables}}
    ))
    with pytest.raises(ReproError, match="must be lists"):
        durable_registrar(wal_dir)


@pytest.fixture(scope="module")
def checkpoint_wal(tmp_path_factory):
    """A WAL whose manifest references one checkpoint file to overwrite."""
    wal_dir = str(tmp_path_factory.mktemp("fuzz") / "wal")
    wal = WriteAheadLog(wal_dir)
    wal.write_checkpoint(Snapshot.from_dict(_ENVELOPE))
    yield wal, wal_dir
    wal.close()


def _use(snapshot: Snapshot) -> None:
    """What a reader does with a decoded artifact."""
    snapshot.describe()
    snapshot.restore_store(_ATG)
    if snapshot.base is not None:
        build_registrar()[1].load_state(snapshot.base)


@given(data=_inputs)
@settings(max_examples=300, deadline=None)
def test_decoders_raise_only_typed_errors(checkpoint_wal, data):
    wal, wal_dir = checkpoint_wal
    plant_checkpoint(wal_dir, data)
    for decode in (Snapshot.from_bytes, lambda _: wal.latest_checkpoint()):
        try:
            _use(decode(data))
        except ReproError:  # SnapshotError, WalCheckpointError, ...
            pass


def test_the_unbroken_envelope_decodes(checkpoint_wal):
    """The fuzz's starting point is valid: every failure above comes from
    the breakage, not from the envelope."""
    wal, wal_dir = checkpoint_wal
    data = _gzip_json(_ENVELOPE)
    assert Snapshot.from_bytes(data).to_dict() == _ENVELOPE
    plant_checkpoint(wal_dir, data)
    assert wal.latest_checkpoint().base == _ENVELOPE["base"]


@st.composite
def _segments(draw) -> bytes:
    """Valid frames followed by arbitrary bytes, then maybe one byte
    changed and maybe cut short."""
    payloads = st.dictionaries(st.text(max_size=4), _json_values, max_size=3)
    data = b"".join(map(encode_record, draw(st.lists(payloads, max_size=3))))
    data += draw(st.binary(max_size=24))
    if data and draw(st.booleans()):
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


@given(data=_segments(), last=st.booleans())
@settings(max_examples=300, deadline=None)
def test_wal_frames_decode_or_raise_only_typed_errors(data, last):
    try:
        records, torn = read_segment(data, "seg-00000001.wal", last)
    except WalCorruptionError:
        return
    offsets = [offset for offset, _ in records]
    assert offsets == sorted(set(offsets))
    assert all(isinstance(payload, dict) for _, payload in records)
    if torn is not None:
        assert last
        assert re.fullmatch(rb"[0-9a-f]*", data[torn.offset:torn.offset + 16])


#: What a WAL that rotated once and checkpointed writes.
_MANIFEST = {
    "format": MANIFEST_FORMAT,
    "version": MANIFEST_VERSION,
    "sealed": [{"name": "seg-00000001.wal", "last": 1}],
    "active": "seg-00000002.wal",
    "checkpoints": [{"name": "ckpt-000000000001.gz", "generation": 1}],
    "floor": 1,
}


@st.composite
def _broken_manifests(draw) -> dict:
    """A valid manifest with one key dropped or retyped, or one entry of
    ``sealed`` / ``checkpoints`` given another name or generation."""
    key = draw(st.sampled_from(sorted(_MANIFEST)))
    kind = draw(st.sampled_from(["drop", "retype", "entry"]))
    if kind == "drop":
        return {k: v for k, v in _MANIFEST.items() if k != key}
    if kind == "retype":
        return {**_MANIFEST, key: draw(_json_values)}
    field = draw(st.sampled_from(["sealed", "checkpoints"]))
    entry = dict(_MANIFEST[field][0])
    entry[draw(st.sampled_from(sorted(entry)))] = draw(
        _json_values | st.sampled_from(["../x", "/etc/passwd", "seg-1.wal"])
    )
    return {**_MANIFEST, field: [entry]}


@given(data=st.one_of(
    st.binary(max_size=128),
    _json_values.map(lambda v: json.dumps(v).encode("utf-8")),
    _broken_manifests().map(lambda v: json.dumps(v).encode("utf-8")),
    st.integers(1, 3).map(lambda k: b"[" * (10 ** 5 * k)),
))
@settings(max_examples=200, deadline=None)
def test_wal_manifest_decodes_or_raises_only_typed_errors(tmp_path_factory, data):
    wal_dir = tmp_path_factory.mktemp("manifest")
    (wal_dir / "manifest.json").write_bytes(data)
    for readonly in (True, False):
        try:
            WriteAheadLog(str(wal_dir), readonly=readonly).close()
        except ReproError:
            pass
    assert sorted(os.listdir(wal_dir)) == ["manifest.json"]


def test_the_unbroken_manifest_opens(tmp_path):
    """The fuzz's starting point is valid once its files exist."""
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    (wal_dir / "manifest.json").write_text(json.dumps(_MANIFEST))
    for entry in (*_MANIFEST["sealed"], *_MANIFEST["checkpoints"]):
        (wal_dir / entry["name"]).write_bytes(b"")
    wal = WriteAheadLog(str(wal_dir))
    assert wal.floor == 1 and wal.last_generation == 1
    wal.close()


def _valid_wire() -> tuple[list[dict], list[dict]]:
    """Ops of every kind and the events a registrar service published."""
    atg, db = build_registrar()
    service = open_view(atg, db, config=ViewConfig(strict=False))
    events: list[ViewEvent] = []
    service.changefeed(on_event=events.append)
    ops = [
        DELETE,
        InsertOp("course[cno=CS650]/prereq", "course", ("CS700", "Theory")),
    ]
    for op in ops:
        service.apply(op)
    ops.append(op_from_dict({
        "op": "base_update",
        "ops": [["insert", "course", ["CS800", "Quantum", "CS"]]],
    }))
    ops.append(op_from_dict({
        "op": "replace", "path": "course[cno=CS650]/prereq/course",
        "element": "course", "sem": ["CS1", "t"],
    }))
    return [op.to_dict() for op in ops], [e.to_dict() for e in events]


_OPS, _EVENTS = _valid_wire()


@st.composite
def _broken_wire(draw, valid: list[dict]) -> dict:
    """One valid op or event with one key dropped or retyped."""
    payload = dict(draw(st.sampled_from(valid)))
    key = draw(st.sampled_from(sorted(payload)))
    if draw(st.booleans()):
        del payload[key]
    else:
        payload[key] = draw(_json_values)
    return payload


def _wire_texts(valid: list[dict]):
    return st.one_of(
        st.text(max_size=64),
        _json_values.map(json.dumps),
        _broken_wire(valid).map(json.dumps),
        st.sampled_from(valid).map(json.dumps),
        st.integers(1, 3).map(lambda k: "[" * (10 ** 5 * k)),
        st.integers(1, 3).map(lambda k: '{"op": ' * (10 ** 5 * k)),
    )


@given(texts=st.lists(_wire_texts(_OPS), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_op_decoders_raise_only_typed_errors(texts):
    for text in texts:
        try:
            op_from_json(text)
        except OpDecodeError:
            pass
    lines = [text.replace("\n", " ") for text in texts]
    bad: list[int] = []
    decoded = list(ops_from_jsonl(
        lines, on_error=lambda lineno, exc: bad.append(lineno) or True
    ))
    assert len(decoded) + len(bad) == sum(
        1 for line in lines if line.strip() and not line.strip().startswith("#")
    )
    try:
        list(ops_from_jsonl(lines))
    except OpDecodeError as exc:
        assert str(exc).startswith(f"line {bad[0]}: ")


@given(text=_wire_texts(_EVENTS))
@settings(max_examples=300, deadline=None)
def test_event_decoder_raises_only_typed_errors(text):
    try:
        event = ViewEvent.from_json(text)
    except EventDecodeError:
        return
    assert ViewEvent.from_json(event.to_json()) == event


def test_the_unbroken_wire_decodes():
    for payload in _OPS:
        assert op_from_json(json.dumps(payload)).to_dict() == payload
    for payload in _EVENTS:
        assert ViewEvent.from_json(json.dumps(payload)).to_dict() == payload


# ---------------------------------------------------------------------------
# The seed corpus
# ---------------------------------------------------------------------------


def test_corpus_deep_nesting_is_a_typed_error_everywhere(tmp_path):
    data = gzip.decompress((CORPUS / "deep_nesting.json.gz").read_bytes())
    with pytest.raises(OpDecodeError, match="not valid JSON"):
        op_from_json(data.decode())
    with pytest.raises(OpDecodeError, match="^line 1: "):
        list(ops_from_jsonl([data.decode()]))
    with pytest.raises(EventDecodeError, match="not valid JSON"):
        ViewEvent.from_json(data.decode())
    with pytest.raises(SnapshotError):
        Snapshot.from_bytes(gzip.compress(data))
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    (wal_dir / "manifest.json").write_bytes(data)
    with pytest.raises(WalCorruptionError, match="not valid JSON"):
        WriteAheadLog(str(wal_dir))


def test_corpus_op_stream_names_each_malformed_line():
    with open(CORPUS / "ops_mixed.jsonl") as fh:
        lines = fh.readlines()
    bad: list[tuple[int, str]] = []
    ops = list(ops_from_jsonl(
        lines, on_error=lambda lineno, exc: bad.append((lineno, str(exc))) or True
    ))
    assert [op.to_json() for op in ops] == [line.strip() for line in lines[1:3]]
    assert [lineno for lineno, _ in bad] == list(range(4, 12))
    for (_, message), needle in zip(bad, [
        "not valid JSON", "unknown operation kind", "missing the 'element'",
        "field 'path'", "must be an object", "must be an object",
        "(kind, relation, row)", "sem must be an array",
    ]):
        assert needle in message


def test_corpus_event_in_the_current_wire_form_decodes():
    text = (CORPUS / "event_wire.json").read_text()
    event = ViewEvent.from_json(text)
    assert event.generation == 1 and event.reason == "delete"
    assert json.loads(event.to_json()) == json.loads(text)



def test_corpus_pickle_era_file_is_refused():
    data = (CORPUS / "pickle_era_plain_dict.gz").read_bytes()
    with pytest.raises(SnapshotError, match="pickle-era.*re-capture"):
        Snapshot.from_bytes(data)


def test_corpus_truncated_gzip_is_refused():
    with pytest.raises(SnapshotError, match="not a gzip stream"):
        Snapshot.load(CORPUS / "truncated.gz")


def test_corpus_json_snapshot_without_base_still_loads():
    """A JSON snapshot as the release before ``Snapshot.base`` wrote it
    (default separators, no ``base`` key) loads, plain or gzip'd, and
    restores the store it was captured from."""
    text = (CORPUS / "parent_format_snapshot.json").read_text()
    atg, db = build_registrar()
    service = open_view(atg, db)
    service.apply(DELETE)
    for snapshot in (
        Snapshot.from_json(text),
        Snapshot.from_bytes(gzip.compress(text.encode("utf-8"))),
    ):
        assert snapshot.base is None
        assert snapshot.generation == 1
        assert snapshot.restore_store(atg).digest() == service.store.digest()
