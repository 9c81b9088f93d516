"""Read replicas for a published XML view: a snapshot plus ΔV events.

The writer stays exactly what it was — one :class:`~repro.service.facade.ViewService`
maintaining the view incrementally — and a replica is its ΔV stream
folded onto a snapshot, in two layers:

- **snapshot protocol** (:mod:`repro.views.snapshot`) —
  ``service.snapshot()`` produces a generation-stamped, schema-versioned
  :class:`Snapshot` artifact (the complete interned store state plus
  view config and provenance metadata) with a lossless gzip-compressed
  ``save``/``load`` round-trip;
- **bootstrap + fold** (:mod:`repro.replica.view`) — a
  :class:`ReplicaView` loads a snapshot at generation ``g`` from its
  writer, attaches ``changefeed(since=g)`` gaplessly, folds each event's
  :class:`~repro.views.events.EdgeRecord` list (with the
  :class:`~repro.views.events.NodeRecord` interning side channel for
  nodes unseen at snapshot time) into a full mirrored
  :class:`~repro.views.store.ViewStore`, and serves ``xpath()`` locally
  with read-your-generation fencing (``replica.wait_for(gen)``).

A replica in another process needs no connection to the writer: it
bootstraps from a saved snapshot file (``ReplicaView.from_snapshot``,
``python -m repro.replica --snapshot``) or from the writer's WAL
directory (``ReplicaView.from_wal``, see ``examples/replication_demo.py``).

Semantics in one paragraph: the changefeed's event stream is *complete*
(``docs/event-schema.md``) — node bindings are immutable once interned
and edges are the only mutable state — so a replica that folds every
event after its snapshot generation converges to a store byte-identical
to the writer's (``replica.digest() == writer.store.digest()``), and
reads at a fenced generation return exactly what the writer would have
returned at that generation.  See ``docs/replication.md``.
"""

from repro.views.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    Snapshot,
    atg_fingerprint,
)
from repro.replica.view import ReplicaView

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "Snapshot",
    "atg_fingerprint",
    "ReplicaView",
]
