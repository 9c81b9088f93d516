"""The structured ΔV event stream: what every committed mutation says.

Every committed mutation of a published view — foreground ΔV edge
operations, the background Δ(M,L) repair's garbage collection, base
update propagation — is described to the layers above ``core`` as one
:class:`ViewEvent`: a generation-tagged list of :class:`EdgeRecord`
changes, edge by edge.  ``core`` builds the events; the subscription
engine, the changefeed, the WAL and the replicas consume them, and the
per-step dependency analysis of :mod:`repro.subscribe.deps` lets a
subscription skip an event its query cannot see.

Edges are the whole story for this XPath fragment: node types and
string values are immutable once interned (gen_id), the root never
changes, and a node with no incident edges is unreachable — so query
results can only move when an edge appears or disappears.  An
:class:`EdgeRecord` therefore carries the edge's typed endpoints plus
the child's PCDATA value (captured *before* garbage collection frees
the node), which is what value-anchored pruning needs.

:func:`fold_event` applies one event to a mirrored store.  Replicas
(:class:`~repro.replica.view.ReplicaView`) and crash recovery
(:mod:`repro.wal.recover`) both fold through it, so the two can never
drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import EventDecodeError, ReplicaDivergedError
from repro.relational.database import RelationalDelta
from repro.views.store import ViewDelta, ViewStore

#: Version of the frozen public event wire format (see
#: ``docs/event-schema.md``).  Bumped only on incompatible changes;
#: decoders reject payloads from a different major version.
SCHEMA_VERSION = 1


def _expect(payload: dict, key: str, types, what: str):
    """Pull ``key`` out of ``payload``, validating its JSON type."""
    if key not in payload:
        raise EventDecodeError(f"{what} is missing required key {key!r}")
    value = payload[key]
    # bool subclasses int in Python but not in JSON: `true` is not an id.
    wrong_type = not isinstance(value, types) or (
        types is int and isinstance(value, bool)
    )
    if wrong_type:
        raise EventDecodeError(
            f"{what} key {key!r} has wrong type: expected "
            f"{types}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class EdgeRecord:
    """One edge change, typed and (for PCDATA children) valued."""

    kind: str  # "insert" | "delete"
    parent_type: str
    child_type: str
    parent: int
    child: int
    child_value: str | None = None
    """The child's string value when it is a PCDATA leaf and the value
    was still known at capture time; ``None`` means "unknown — assume
    any value" (pruning must stay conservative)."""

    def to_dict(self) -> dict:
        """The frozen JSON wire form (``docs/event-schema.md``)."""
        return {
            "kind": self.kind,
            "parent_type": self.parent_type,
            "child_type": self.child_type,
            "parent": self.parent,
            "child": self.child,
            "child_value": self.child_value,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EdgeRecord":
        """Decode one wire-form edge record (strict: bad shapes raise)."""
        if not isinstance(payload, dict):
            raise EventDecodeError(
                f"edge record must be an object, got {payload!r}"
            )
        kind = _expect(payload, "kind", str, "edge record")
        if kind not in ("insert", "delete"):
            raise EventDecodeError(
                f"edge record kind must be 'insert' or 'delete', "
                f"got {kind!r}"
            )
        value = payload.get("child_value")
        if value is not None and not isinstance(value, str):
            raise EventDecodeError(
                f"edge record child_value must be a string or null, "
                f"got {value!r}"
            )
        return cls(
            kind=kind,
            parent_type=_expect(payload, "parent_type", str, "edge record"),
            child_type=_expect(payload, "child_type", str, "edge record"),
            parent=_expect(payload, "parent", int, "edge record"),
            child=_expect(payload, "child", int, "edge record"),
            child_value=value,
        )


#: JSON scalar types a node's sem tuple may carry on the wire.
_SEM_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class NodeRecord:
    """One interning decision: node ``id`` ↔ ``(element, sem)``.

    The node-interning side channel for replication: edge records name
    nodes by id only, so a replica folding an insert for a node it has
    never seen needs the writer's ``(element, sem)`` binding for that
    id.  Every published event carries a record for each node appearing
    as an endpoint of one of its insert edges (captured before garbage
    collection, so endpoints that die within the same event are still
    described).  Pure metadata for subscription maintenance — the
    engine ignores it.
    """

    node: int
    element: str
    sem: tuple

    def to_dict(self) -> dict:
        """The JSON wire form (``sem`` travels as a list)."""
        return {
            "node": self.node,
            "element": self.element,
            "sem": list(self.sem),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NodeRecord":
        """Decode one wire-form node record (strict: bad shapes raise)."""
        if not isinstance(payload, dict):
            raise EventDecodeError(
                f"node record must be an object, got {payload!r}"
            )
        sem = _expect(payload, "sem", list, "node record")
        for value in sem:
            if not isinstance(value, _SEM_SCALARS):
                raise EventDecodeError(
                    f"node record sem values must be JSON scalars, "
                    f"got {value!r}"
                )
        return cls(
            node=_expect(payload, "node", int, "node record"),
            element=_expect(payload, "element", str, "node record"),
            sem=tuple(sem),
        )


def node_records_for(
    store: ViewStore, records: Iterable[EdgeRecord]
) -> list[NodeRecord]:
    """Interning records for every endpoint of the insert edges.

    Must run while the endpoints are still interned (before garbage
    collection).  Delete edges need no records: a replica deleting an
    edge already knows both endpoints.  Deduplicated, in first-seen
    order.
    """
    out: list[NodeRecord] = []
    seen: set[int] = set()
    for rec in records:
        if rec.kind != "insert":
            continue
        for node in (rec.parent, rec.child):
            if node in seen or not store.has_node(node):
                continue
            seen.add(node)
            out.append(
                NodeRecord(
                    node=node,
                    element=store.node_type[node],
                    sem=store.node_sem[node],
                )
            )
    return out


@dataclass
class ViewEvent:
    """One committed mutation, described for subscription maintenance."""

    generation: int
    """The updater's version counter *after* this mutation; a
    subscription refreshed against this event is current iff its own
    generation equals this value."""

    edges: list[EdgeRecord] = field(default_factory=list)

    nodes: list[NodeRecord] = field(default_factory=list)
    """Interning records for nodes appearing as insert-edge endpoints
    (see :class:`NodeRecord`).  An additive, optional wire key — schema
    version 1 decoders that predate it ignore it, and :meth:`from_dict`
    tolerates payloads without it."""

    coarse: bool = False
    """True when ``edges`` does not describe the change.  Every event
    this package publishes is fine (``False``); the flag stays in the
    frozen wire format, and the decoding consumers (WAL recovery, a
    replica's fold) refuse an event that sets it."""

    reason: str = ""

    delta_r: RelationalDelta | None = None
    """The base-table group update ``ΔR`` this commit applied (``None``
    when the commit touched no relations).  Engine-internal and
    deliberately absent from the wire format (:meth:`to_dict`):
    consumers see only the view-side ΔV, but the durable changefeed log
    (:mod:`repro.wal`) persists it alongside each event so crash
    recovery can restore the base database ``I`` in lockstep with the
    view."""

    # -- the frozen public wire format (docs/event-schema.md) -------------------

    def to_dict(self) -> dict:
        """The JSON-safe wire form of this event.

        ``nodes`` is an additive optional key (not a version bump — see
        the compatibility rules in ``docs/event-schema.md``).
        """
        return {
            "schema": SCHEMA_VERSION,
            "generation": self.generation,
            "coarse": self.coarse,
            "reason": self.reason,
            "edges": [rec.to_dict() for rec in self.edges],
            "nodes": [rec.to_dict() for rec in self.nodes],
        }

    def to_json(self) -> str:
        """One compact JSON object (the changefeed's on-the-wire unit)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ViewEvent":
        """Decode one wire-form event; strict on shape and version."""
        if not isinstance(payload, dict):
            raise EventDecodeError(f"event must be an object, got {payload!r}")
        schema = _expect(payload, "schema", int, "event")
        if schema != SCHEMA_VERSION:
            raise EventDecodeError(
                f"unsupported event schema version {schema} "
                f"(this library speaks version {SCHEMA_VERSION})"
            )
        edges = _expect(payload, "edges", list, "event")
        # ``nodes`` was added after v1 froze, as an *optional* key:
        # payloads from older producers simply lack it.
        nodes = payload.get("nodes", [])
        if not isinstance(nodes, list):
            raise EventDecodeError(
                f"event key 'nodes' has wrong type: expected a list, "
                f"got {nodes!r}"
            )
        return cls(
            generation=_expect(payload, "generation", int, "event"),
            edges=[EdgeRecord.from_dict(rec) for rec in edges],
            nodes=[NodeRecord.from_dict(rec) for rec in nodes],
            coarse=_expect(payload, "coarse", bool, "event"),
            reason=_expect(payload, "reason", str, "event"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ViewEvent":
        """Decode :meth:`to_json` output (round-trip tested)."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise EventDecodeError(f"event is not valid JSON: {exc}") from None
        return cls.from_dict(payload)


def edge_records_from_delta(
    store: ViewStore,
    delta: ViewDelta,
    removed_info: dict[int, tuple[str, str | None]] | None = None,
) -> list[EdgeRecord]:
    """Typed+valued records for a ΔV, resolving child values eagerly.

    Must run while the delta's child nodes are still interned (i.e.
    before garbage collection); for edges whose child has already been
    collected, ``removed_info`` (node → (type, value), captured by the
    maintenance pass) supplies the value instead.
    """
    records: list[EdgeRecord] = []
    for op in delta:
        value: str | None = None
        if store.has_node(op.child):
            value = store.value_of(op.child)
        elif removed_info is not None:
            value = removed_info.get(op.child, (op.child_type, None))[1]
        records.append(
            EdgeRecord(
                kind=op.kind,
                parent_type=op.parent_type,
                child_type=op.child_type,
                parent=op.parent,
                child=op.child,
                child_value=value,
            )
        )
    return records


def coalesce(events: Iterable[ViewEvent]) -> ViewEvent:
    """Merge an event sequence into one (latest generation wins).

    Used when a write scope seals: the per-op events of a batch (each
    with its own GC edges) collapse into a single event carrying the
    union of the edge changes.  Membership pruning only needs the set of
    touched (label, value) coordinates, so concatenation — without
    cancelling an insert against a later delete — is sound, merely
    conservative.
    """
    merged = ViewEvent(generation=0)
    seen_nodes: set[int] = set()
    delta_ops: list = []
    for event in events:
        merged.generation = max(merged.generation, event.generation)
        merged.edges.extend(event.edges)
        for rec in event.nodes:
            if rec.node not in seen_nodes:
                seen_nodes.add(rec.node)
                merged.nodes.append(rec)
        if event.delta_r is not None:
            # ΔR ops concatenate in commit order (a batch's per-op
            # events each carry their own ΔR), so replaying the
            # merged delta reproduces the batch's base-table effect
            # exactly.
            delta_ops.extend(event.delta_r.ops)
        if event.reason:
            merged.reason = event.reason
    if delta_ops:
        merged.delta_r = RelationalDelta(delta_ops)
    return merged


def fold_event(store: ViewStore, event: ViewEvent) -> None:
    """Apply one fine-grained event's records to ``store``, in place.

    In order: apply every :class:`EdgeRecord` (``add_edge`` appends
    rightmost exactly like the writer's, so child order — XML document
    order — is reproduced, not approximated), installing each
    :class:`NodeRecord` (the interning side channel — id ↔ ``(element,
    sem)`` bindings for nodes the mirror has never seen) when an edge
    first names its node, and any record no edge names after them; then
    drop any touched non-root node left with no incident edges, the
    writer's at-rest invariant (events record *every* edge removal, the
    GC pass's included — see ``docs/event-schema.md``).

    A record is installed late because a batch's event can collect a
    node and re-intern its ``(element, sem)`` under a new id: by the
    time an edge names the new id, the edges that collected the old
    holder have been folded, so a holder left with no edges is removed
    first (:func:`_install`).

    Strict: an edge record referencing a node the store does not hold
    raises :class:`~repro.errors.ReplicaDivergedError` rather than
    papering over a gap.  The caller owns ordering (events must arrive
    in generation order) and locking, and refuses a coarse event: its
    edge list does not describe the change and must not reach this
    function.
    """
    pending = {rec.node: rec for rec in event.nodes}
    touched: set[int] = set()
    for rec in event.edges:
        for node in (rec.parent, rec.child):
            if node in pending:
                _install(store, pending.pop(node))
        if not store.has_node(rec.parent) or not store.has_node(rec.child):
            raise ReplicaDivergedError(
                f"event at generation {event.generation} references "
                f"unknown node(s) {rec.parent}->{rec.child}; the "
                f"mirror has drifted — re-bootstrap"
            )
        if rec.kind == "insert":
            store.add_edge(rec.parent, rec.child)
        else:
            store.remove_edge(rec.parent, rec.child)
        touched.add(rec.parent)
        touched.add(rec.child)
    for rec in pending.values():
        _install(store, rec)
    # Mirror the writer's GC invariant: at rest, every non-root node has
    # at least one incident edge.  Events record every edge removal (the
    # GC pass's included), so any touched node left isolated here is
    # exactly a node the writer collected.
    for node in sorted(touched):
        if (
            node != store.root_id
            and store.has_node(node)
            and not store.children_of(node)
            and not store.parents_of(node)
        ):
            store.remove_node(node)


def _install(store: ViewStore, rec: NodeRecord) -> None:
    """Bind ``rec`` in ``store``, first removing an edge-less other
    holder of its ``(element, sem)``: the event collected that node
    before re-interning the pair.  A holder with edges is a conflict,
    and :meth:`~repro.views.store.ViewStore.ensure_node` raises."""
    holder = store.lookup(rec.element, rec.sem)
    if (
        holder is not None
        and holder != rec.node
        and not store.children_of(holder)
        and not store.parents_of(holder)
    ):
        store.remove_node(holder)
    store.ensure_node(rec.node, rec.element, rec.sem)
