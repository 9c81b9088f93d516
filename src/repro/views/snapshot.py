"""Durable, generation-stamped snapshots of a published view.

A :class:`Snapshot` is the bootstrap half of the replication protocol
(the changefeed is the other half): it captures the writer's complete
:class:`~repro.views.store.ViewStore` state — interning table, ordered
edges, id-allocator watermark — at one generation, together with the
service's :class:`~repro.service.config.ViewConfig` and provenance
metadata.  A replica that restores the store and then folds
``changefeed(since=snapshot.generation)`` is gapless by construction.

The artifact is a versioned envelope in one encoding: sorted, compact
JSON (``to_json``), gzip'd on disk (``to_bytes``, ``save``); a WAL
checkpoint is such a file with the base rows in ``base``.  Nothing here
unpickles.  The view definition (ATG) is deliberately **not** serialized
— view definitions are code, not data — the artifact instead embeds
:func:`atg_fingerprint` so a loader constructing its own ATG can verify
it matches the writer's.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro._version import __version__
from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.errors import (
    SnapshotError,
    SnapshotMismatchError,
    SnapshotSchemaError,
)
from repro.views.store import ViewStore

#: Version of the snapshot artifact envelope.  Bumped on incompatible
#: layout changes; :meth:`Snapshot.from_dict` (and thus ``load``)
#: refuses artifacts from a different version with a typed
#: :class:`~repro.errors.SnapshotSchemaError`.  An optional key
#: (``base``) is additive and does not bump it.
SNAPSHOT_SCHEMA_VERSION = 1


def atg_fingerprint(atg: ATG) -> str:
    """SHA-256 fingerprint of a view definition.

    Built from a canonical text rendering of the DTD (root + content
    models), the semantic-attribute signatures, the root sem, and every
    child rule (projections by their column mapping, query rules by
    their SPJ query's tables/projection/predicate).  Two ATGs with equal
    fingerprints publish identical views from identical databases, which
    is exactly what a replica folding the writer's edge stream needs.
    """
    lines: list[str] = [f"root={atg.dtd.root}", f"root_sem={atg.root_sem!r}"]
    for element in sorted(atg.dtd.types):
        lines.append(f"type {element} := {atg.dtd.content(element)}")
        lines.append(f"sig {element} = {atg.signature(element)!r}")
    for (parent, child), rule in sorted(atg.rules.items()):
        if isinstance(rule, ProjectionRule):
            lines.append(f"rule {parent}->{child} proj {rule.mapping!r}")
        elif isinstance(rule, QueryRule):
            query = rule.query
            projected = tuple(
                (name, str(col)) for name, col in query.project
            )
            lines.append(
                f"rule {parent}->{child} query {query.name} "
                f"tables={query.tables!r} project={projected!r} "
                f"where={query.where}"
            )
        else:  # pragma: no cover - no third rule kind exists today
            lines.append(f"rule {parent}->{child} {rule!r}")
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Snapshot:
    """One generation-stamped, schema-versioned view snapshot.

    Attributes
    ----------
    generation:
        The writer's generation at capture time; resume the changefeed
        with ``changefeed(since=generation)`` for a gapless bootstrap.
    store_state:
        :meth:`repro.views.store.ViewStore.export_state` output — the
        complete store (interning table + ordered edges + allocator).
    config:
        The writer's :meth:`~repro.service.config.ViewConfig.to_dict`.
    provenance:
        Capture metadata: ``created_at`` (UTC ISO-8601),
        ``library_version``, ``atg_fingerprint``, ``nodes``, ``edges``.
    base:
        The base rows (``Database.export_state()``) at ``generation``
        in a WAL checkpoint; ``None`` in ``ViewService.snapshot()``.
    schema_version:
        The artifact envelope version (:data:`SNAPSHOT_SCHEMA_VERSION`).
    """

    generation: int
    store_state: dict
    config: dict
    provenance: dict = field(default_factory=dict)
    base: dict | None = None
    schema_version: int = SNAPSHOT_SCHEMA_VERSION

    # -- capture ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        store: ViewStore,
        generation: int,
        config: dict,
        base: dict | None = None,
    ) -> "Snapshot":
        """Snapshot ``store`` (and ``base``) as of ``generation``.

        The caller (:meth:`ViewService.snapshot
        <repro.service.facade.ViewService.snapshot>` under its read
        lock, or the WAL checkpoint under the write lock) guarantees
        both are at rest at ``generation``.
        """
        return cls(
            generation=generation,
            store_state=store.export_state(),
            config=dict(config),
            provenance={
                "created_at": datetime.now(timezone.utc).isoformat(),
                "library_version": __version__,
                "atg_fingerprint": atg_fingerprint(store.atg),
                "nodes": store.num_nodes,
                "edges": store.num_edges,
            },
            base=base,
        )

    # -- restore ------------------------------------------------------------------

    def restore_store(self, atg: ATG) -> ViewStore:
        """Rebuild the captured :class:`ViewStore` against ``atg``.

        Checks ``atg`` against the embedded :func:`atg_fingerprint`
        first and raises :class:`~repro.errors.SnapshotMismatchError` on
        a different view definition — folding the writer's edge stream
        into the wrong schema would diverge silently otherwise.
        """
        expected = self.provenance.get("atg_fingerprint")
        actual = atg_fingerprint(atg)
        if expected is not None and expected != actual:
            raise SnapshotMismatchError(
                f"snapshot was captured from a view definition with "
                f"fingerprint {str(expected)[:12]}..., but the supplied "
                f"ATG has fingerprint {actual[:12]}..."
            )
        return ViewStore.from_state(atg, self.store_state)

    # -- wire format --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-safe envelope (inverse of :meth:`from_dict`)."""
        return {
            "format": "repro-snapshot",
            "schema_version": self.schema_version,
            "generation": self.generation,
            "store_state": self.store_state,
            "config": self.config,
            "provenance": self.provenance,
            "base": self.base,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Snapshot":
        """Decode an envelope; strict on shape and schema version."""
        if not isinstance(payload, dict):
            raise SnapshotError(
                f"snapshot envelope must be an object, got {type(payload).__name__}"
            )
        if payload.get("format") != "repro-snapshot":
            raise SnapshotError(
                f"not a repro snapshot envelope (format="
                f"{payload.get('format')!r})"
            )
        version = payload.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotSchemaError(version, SNAPSHOT_SCHEMA_VERSION)
        try:
            generation = payload["generation"]
            store_state = payload["store_state"]
            config = payload["config"]
            provenance = payload.get("provenance", {})
            base = payload.get("base")
        except KeyError as exc:
            raise SnapshotError(
                f"snapshot envelope is missing required key {exc.args[0]!r}"
            ) from None
        if not isinstance(generation, int) or isinstance(generation, bool):
            raise SnapshotError(
                f"snapshot generation must be an integer, got {generation!r}"
            )
        for key, value in (
            ("store_state", store_state),
            ("config", config),
            ("provenance", provenance),
            ("base", {} if base is None else base),
        ):
            if not isinstance(value, dict):
                raise SnapshotError(
                    f"snapshot key {key!r} must be an object, "
                    f"got {str(value)[:80]}"
                )
        rows = store_state.get("children", [])
        if not isinstance(store_state.get("nodes", []), list) or not (
            isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == 2 for r in rows)
            and all(isinstance(kids, list) for _, kids in rows)
        ):
            raise SnapshotError("snapshot store_state rows are malformed")
        return cls(
            generation=generation,
            store_state=store_state,
            config=config,
            provenance=provenance,
            base=base,
        )

    def to_json(self) -> str:
        """The envelope as one sorted, compact JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str | bytes) -> "Snapshot":
        """Decode :meth:`to_json` output (round-trip tested)."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise SnapshotError(
                f"snapshot is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)

    def to_bytes(self) -> bytes:
        """:meth:`to_json`, UTF-8 encoded and gzip-compressed."""
        return gzip.compress(self.to_json().encode("utf-8"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        """Decode :meth:`to_bytes` output; never unpickles (a gzip'd
        pickle, as releases up to 0.10 wrote, raises a typed error)."""
        try:
            text = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise SnapshotError(f"snapshot is not a gzip stream: {exc}") from None
        if text.startswith(b"\x80"):  # pickle's PROTO opcode
            raise SnapshotError(
                "snapshot is a pickle-era artifact (gzip'd pickle); it is "
                "never unpickled — re-capture it with this release"
            )
        return cls.from_json(text)

    # -- durable artifacts ---------------------------------------------------------

    def save(self, path) -> str:
        """Write :meth:`to_bytes` to ``path``; returns it as a string.

        The payload under the compression is exactly :meth:`to_dict`,
        so artifacts survive library upgrades as long as the envelope
        version matches.
        """
        Path(path).write_bytes(self.to_bytes())
        return str(path)

    @classmethod
    def load(cls, path) -> "Snapshot":
        """Read an artifact written by :meth:`save`.

        Unreadable or corrupt files raise
        :class:`~repro.errors.SnapshotError`; a mismatched envelope
        version raises :class:`~repro.errors.SnapshotSchemaError`.
        """
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotError(
                f"cannot read snapshot artifact {path!s}: {exc}"
            ) from exc
        return cls.from_bytes(data)

    # -- convenience ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Captured node count (from the store state, not provenance)."""
        return len(self.store_state.get("nodes", ()))

    @property
    def num_edges(self) -> int:
        """Captured edge count (from the store state, not provenance)."""
        return sum(
            len(kids) for _, kids in self.store_state.get("children", ())
        )

    def describe(self) -> str:
        """One human-readable line (the CLI's ``--inspect`` output)."""
        prov = self.provenance
        return (
            f"snapshot generation {self.generation}: {self.num_nodes} "
            f"nodes, {self.num_edges} edges; schema v{self.schema_version}; "
            f"created {prov.get('created_at', '?')} by repro "
            f"{prov.get('library_version', '?')} "
            f"(atg {str(prov.get('atg_fingerprint', '?'))[:12]})"
        )
