"""Durable, generation-stamped snapshots of a published view.

A :class:`Snapshot` is the bootstrap half of the replication protocol
(the changefeed is the other half): it captures the writer's complete
:class:`~repro.views.store.ViewStore` state — interning table, ordered
edges, id-allocator watermark — at one generation, together with the
service's :class:`~repro.service.config.ViewConfig` and provenance
metadata.  A replica that restores the store and then folds
``changefeed(since=snapshot.generation)`` is gapless by construction.

The artifact is a JSON-safe dict wrapped in a versioned envelope, so the
same payload is a gzip-compressed pickle on disk (``save``/``load``, the
``snapshots/*.pkl.gz`` discipline), the ``snapshot`` of every WAL
checkpoint, and one JSON document (``to_json``/``from_json``).  The
view definition (ATG) is deliberately **not** serialized — view
definitions are code, not data — the artifact instead embeds
:func:`atg_fingerprint` so a loader constructing its own ATG can verify
it matches the writer's.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from datetime import datetime, timezone

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
#: :class:`~repro.errors.SnapshotSchemaError`.
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
    schema_version:
        The artifact envelope version (:data:`SNAPSHOT_SCHEMA_VERSION`).
    """

    generation: int
    store_state: dict
    config: dict
    provenance: dict = field(default_factory=dict)
    schema_version: int = SNAPSHOT_SCHEMA_VERSION

    # -- capture ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        store: ViewStore,
        generation: int,
        config: dict,
    ) -> "Snapshot":
        """Snapshot ``store`` as of ``generation``.

        The caller (normally :meth:`ViewService.snapshot
        <repro.service.facade.ViewService.snapshot>`, under its read
        lock) guarantees the store is at rest at ``generation``.
        """
        from repro import __version__

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
        )

    # -- restore ------------------------------------------------------------------

    def restore_store(self, atg: ATG, verify_fingerprint: bool = True) -> ViewStore:
        """Rebuild the captured :class:`ViewStore` against ``atg``.

        ``verify_fingerprint=True`` (default) checks ``atg`` against the
        embedded :func:`atg_fingerprint` first and raises
        :class:`~repro.errors.SnapshotMismatchError` on a different view
        definition — folding the writer's edge stream into the wrong
        schema would diverge silently otherwise.
        """
        if verify_fingerprint:
            expected = self.provenance.get("atg_fingerprint")
            actual = atg_fingerprint(atg)
            if expected is not None and expected != actual:
                raise SnapshotMismatchError(
                    f"snapshot was captured from a view definition with "
                    f"fingerprint {expected[:12]}..., but the supplied "
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
        ):
            if not isinstance(value, dict):
                raise SnapshotError(
                    f"snapshot key {key!r} must be an object, got {value!r}"
                )
        return cls(
            generation=generation,
            store_state=store_state,
            config=config,
            provenance=provenance,
        )

    def to_json(self) -> str:
        """The envelope as one JSON document (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        """Decode :meth:`to_json` output (round-trip tested)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)

    # -- durable artifacts ---------------------------------------------------------

    def save(self, path) -> str:
        """Write the artifact to ``path`` (gzip-compressed pickle).

        Returns the path written, as a string.  The payload under the
        compression is exactly :meth:`to_dict`, so artifacts survive
        library upgrades as long as the envelope version matches.
        """
        with gzip.open(path, "wb") as fh:
            pickle.dump(self.to_dict(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        return str(path)

    @classmethod
    def load(cls, path) -> "Snapshot":
        """Read an artifact written by :meth:`save`.

        Unreadable or corrupt files raise
        :class:`~repro.errors.SnapshotError`; a mismatched envelope
        version raises :class:`~repro.errors.SnapshotSchemaError`.
        """
        try:
            with gzip.open(path, "rb") as fh:
                payload = pickle.load(fh)
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            raise SnapshotError(
                f"cannot read snapshot artifact {path!s}: {exc}"
            ) from exc
        return cls.from_dict(payload)

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
