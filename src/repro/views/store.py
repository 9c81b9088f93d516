"""The DAG view store: gen tables, edge relations, ordered children.

``gen_id`` (paper, Section 2.3) is realized as deterministic interning:
the first time a ``(type, $A)`` pair is seen it receives the next dense
integer id; the mapping is stored in per-type *gen tables*.  Edges are
kept three ways, all consistent:

- per-type-pair edge relations ``edge_A_B`` (sets of ``(id_A, id_B)``),
  the unit the paper's ``ΔV`` group updates operate on;
- an ordered children list per node (XML is ordered; inserts append as
  the rightmost child, matching the paper's insert semantics);
- a parent set per node (the DAG evaluator and the maintenance
  algorithms walk edges upwards).

PCDATA nodes are also indexed by ``(type, value_of)``, so the DAG
evaluator can start a ``//label[path = value]`` from the nodes holding
``value`` instead of from every node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from repro.atg.model import ATG
from repro.errors import ReproError
from repro.relational.database import Database
from repro.relational.schema import AttrType, RelationSchema

_NO_NODES: frozenset[int] = frozenset()


def _text(sem: tuple) -> str:
    """The XPath string value of a PCDATA node with this ``sem``."""
    return str(sem[0]) if sem else ""


@dataclass(frozen=True)
class EdgeOp:
    """One edge-relation operation inside a view group update ``ΔV``."""

    kind: Literal["insert", "delete"]
    parent_type: str
    child_type: str
    parent: int
    child: int

    @property
    def relation(self) -> str:
        return f"edge_{self.parent_type}_{self.child_type}"


class ViewDelta:
    """A group update ``ΔV`` over the edge relations."""

    def __init__(self, ops: Iterable[EdgeOp] = ()):
        self.ops: list[EdgeOp] = list(ops)

    def insert(self, parent_type: str, child_type: str, parent: int, child: int):
        self.ops.append(EdgeOp("insert", parent_type, child_type, parent, child))

    def delete(self, parent_type: str, child_type: str, parent: int, child: int):
        self.ops.append(EdgeOp("delete", parent_type, child_type, parent, child))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[EdgeOp]:
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def deletions(self) -> list[EdgeOp]:
        return [op for op in self.ops if op.kind == "delete"]

    def insertions(self) -> list[EdgeOp]:
        return [op for op in self.ops if op.kind == "insert"]


class ViewStore:
    """DAG representation of a published XML view, stored relationally."""

    def __init__(self, atg: ATG):
        self.atg = atg
        self._pcdata = frozenset(
            t for t in atg.dtd.types if atg.dtd.is_pcdata(t)
        )
        self._next_id = 0
        self._intern: dict[tuple[str, tuple], int] = {}
        self.node_type: dict[int, str] = {}
        self.node_sem: dict[int, tuple] = {}
        self.gen: dict[str, dict[int, tuple]] = {t: {} for t in atg.dtd.types}
        self.children: dict[int, list[int]] = {}
        self.parents: dict[int, set[int]] = {}
        self.edges: dict[tuple[str, str], set[tuple[int, int]]] = {
            edge: set() for edge in atg.dtd.edges()
        }
        self.root_id: int | None = None
        self._by_value: dict[tuple[str, str], set[int]] = {}
        """``(type, value_of(node)) → nodes``, for PCDATA types only."""

    # -- node management -----------------------------------------------------------

    def intern(self, element: str, sem: tuple) -> tuple[int, bool]:
        """gen_id: return the node id for ``(element, sem)``.

        The second component is ``True`` when the node is new.
        """
        sem = tuple(sem)
        key = (element, sem)
        node = self._intern.get(key)
        if node is not None:
            return node, False
        node = self._next_id
        self._next_id += 1
        self._bind(node, element, sem)
        return node, True

    def _bind(self, node: int, element: str, sem: tuple) -> None:
        """Install a new, edge-less ``node`` for ``(element, sem)``."""
        self._intern[(element, sem)] = node
        self.node_type[node] = element
        self.node_sem[node] = sem
        self.gen.setdefault(element, {})[node] = sem
        self.children[node] = []
        self.parents[node] = set()
        if element in self._pcdata:
            self._by_value.setdefault((element, _text(sem)), set()).add(node)

    def lookup(self, element: str, sem: tuple) -> int | None:
        """Existing id of ``(element, sem)``, or ``None``."""
        return self._intern.get((element, tuple(sem)))

    def has_node(self, node: int) -> bool:
        return node in self.node_type

    def remove_node(self, node: int) -> None:
        """Remove an isolated node (no incident edges) from the gen tables."""
        if self.children.get(node) or self.parents.get(node):
            raise ReproError(f"node {node} still has incident edges")
        element = self.node_type.pop(node)
        sem = self.node_sem.pop(node)
        del self._intern[(element, sem)]
        del self.gen[element][node]
        self.children.pop(node, None)
        self.parents.pop(node, None)
        if element in self._pcdata:
            key = (element, _text(sem))
            holders = self._by_value[key]
            holders.discard(node)
            if not holders:
                del self._by_value[key]

    def ensure_node(self, node: int, element: str, sem: tuple) -> bool:
        """Install ``(element, sem)`` under a *caller-chosen* id.

        The replication fold's counterpart of :meth:`intern`: a replica
        mirrors the writer's interning decisions instead of making its
        own, so node ids stay identical across processes.  Returns
        ``True`` when the node was newly installed, ``False`` when the
        exact binding already exists; a conflicting binding (same id
        bound to different data, or same data bound to a different id)
        raises :class:`~repro.errors.ReproError`.  The id allocator is
        advanced past ``node`` so local interning never collides.
        """
        sem = tuple(sem)
        key = (element, sem)
        existing = self._intern.get(key)
        if existing is not None:
            if existing != node:
                raise ReproError(
                    f"({element}, {sem!r}) is already interned as node "
                    f"{existing}, cannot rebind to {node}"
                )
            return False
        if node in self.node_type:
            raise ReproError(
                f"node id {node} is already bound to "
                f"({self.node_type[node]}, {self.node_sem[node]!r})"
            )
        self._bind(node, element, sem)
        if node >= self._next_id:
            self._next_id = node + 1
        return True

    def release_ids(self, ids: Iterable[int]) -> None:
        """Return already-removed node ids to the allocator if possible.

        Ids are handed back only when they are still the top of the id
        space (nothing interned since) — then the counter rewinds and a
        later intern reuses them, so a rolled-back publish leaves the
        store byte-identical.  Otherwise this is a no-op: ids are never
        reused out of order.
        """
        ids = [n for n in ids if not self.has_node(n)]
        if ids and self._next_id == max(ids) + 1:
            self._next_id = min(ids)

    def type_of(self, node: int) -> str:
        return self.node_type[node]

    def sem_of(self, node: int) -> tuple:
        return self.node_sem[node]

    def value_of(self, node: int) -> str | None:
        """String value used by XPath value filters (PCDATA leaves)."""
        if self.node_type[node] in self._pcdata:
            return _text(self.node_sem[node])
        return None

    def nodes_with_value(
        self, element: str, value: str
    ) -> set[int] | frozenset[int]:
        """The ``element`` nodes whose :meth:`value_of` is ``value``
        (read-only; empty for a non-PCDATA ``element``)."""
        return self._by_value.get((element, value), _NO_NODES)

    def value_index_is_exact(self) -> bool:
        """Whether the value index equals one rebuilt from ``node_sem``
        (the consistency check's view of it)."""
        rebuilt: dict[tuple[str, str], set[int]] = {}
        for node, element in self.node_type.items():
            if element in self._pcdata:
                key = (element, _text(self.node_sem[node]))
                rebuilt.setdefault(key, set()).add(node)
        return rebuilt == self._by_value

    # -- edge management -----------------------------------------------------------

    def has_edge(self, parent: int, child: int) -> bool:
        return parent in self.parents.get(child, ())

    def add_edge(self, parent: int, child: int) -> bool:
        """Add edge (append child rightmost); no-op if present.

        Returns ``True`` if the edge was newly added.
        """
        if self.has_edge(parent, child):
            return False
        ptype = self.node_type[parent]
        ctype = self.node_type[child]
        key = (ptype, ctype)
        if key not in self.edges:
            raise ReproError(f"edge type {ptype}->{ctype} not in the DTD")
        self.edges[key].add((parent, child))
        self.children[parent].append(child)
        self.parents[child].add(parent)
        return True

    def remove_edge(self, parent: int, child: int) -> bool:
        """Remove edge; no-op (returns False) if absent."""
        if not self.has_edge(parent, child):
            return False
        ptype = self.node_type[parent]
        ctype = self.node_type[child]
        self.edges[(ptype, ctype)].discard((parent, child))
        self.children[parent].remove(child)
        self.parents[child].discard(parent)
        return True

    def apply(self, delta: ViewDelta) -> None:
        """Apply a ``ΔV`` group update to the edge relations."""
        for op in delta:
            if op.kind == "insert":
                self.add_edge(op.parent, op.child)
            else:
                self.remove_edge(op.parent, op.child)

    def collect(self, nodes: list[int]) -> ViewDelta:
        """Remove ``nodes`` and every edge leaving them, in one pass.

        ``nodes`` must be closed under parents: every parent of a member
        is a member, so unlinking the members' out-edges leaves none of
        them an incident edge (Δ(M,L)delete's condemned nodes).  Returns
        the removed edges as the garbage-collection ``ΔV``, in ``nodes``
        order and each node's child order, without re-applying it edge
        by edge.
        """
        gc = ViewDelta()
        ops = gc.ops
        node_type, parents, edges = self.node_type, self.parents, self.edges
        for node in nodes:
            ptype = node_type[node]
            kids = self.children[node]
            if not kids:
                continue
            for child in kids:
                ctype = node_type[child]
                ops.append(EdgeOp("delete", ptype, ctype, node, child))
                edges[(ptype, ctype)].discard((node, child))
                parents[child].discard(node)
            self.children[node] = []
        for node in nodes:
            self.remove_node(node)
        return gc

    # -- traversal -----------------------------------------------------------------

    def children_of(self, node: int) -> list[int]:
        return self.children.get(node, [])

    def parents_of(self, node: int) -> set[int]:
        return self.parents.get(node, set())

    def nodes(self) -> Iterator[int]:
        return iter(self.node_type)

    def descendants_of(self, roots: Iterable[int]) -> set[int]:
        """Proper descendants of ``roots`` by edge walk (no index).

        The one way to list a descendant set: ``M`` keeps ancestor rows
        only (Δ(M,L)delete's ``LR``, a ``//`` region that must be
        listed, every region of a replica, which keeps no ``M``).
        """
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            for child in self.children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def reachable_from_root(self) -> set[int]:
        if self.root_id is None:
            return set()
        return {self.root_id} | self.descendants_of([self.root_id])

    # -- statistics ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_type)

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.edges.values())

    @property
    def size(self) -> int:
        """|V|: nodes plus edges of the relational view representation."""
        return self.num_nodes + self.num_edges

    def in_degree(self, node: int) -> int:
        return len(self.parents.get(node, ()))

    def sharing_rate(self) -> float:
        """Fraction of nodes with more than one parent (subtree sharing)."""
        if not self.node_type:
            return 0.0
        shared = sum(1 for n in self.node_type if self.in_degree(n) > 1)
        return shared / len(self.node_type)

    # -- export / import (replication snapshots) --------------------------------------

    def export_state(self) -> dict:
        """The complete store state as one JSON-safe dict.

        The shape feeds replication snapshots
        (:class:`repro.replica.Snapshot`) and byte-level equality
        checks: two stores with equal ``export_state()`` are
        behaviourally identical (same interning table, same id
        allocator, same ordered edges).  Keys:

        - ``next_id`` — the id allocator watermark;
        - ``root`` — the root node id (or ``None`` pre-publish);
        - ``nodes`` — ``[id, element, [sem...]]`` rows, sorted by id;
        - ``children`` — ``[parent, [child...]]`` rows for nodes with
          children, sorted by parent, child lists in document order.

        Parent sets and per-type-pair edge relations are derived on
        import.  Sem values must be JSON scalars for the dict to be
        JSON-safe (true for every built-in workload).
        """
        return {
            "next_id": self._next_id,
            "root": self.root_id,
            "nodes": [
                [node, self.node_type[node], list(self.node_sem[node])]
                for node in sorted(self.node_type)
            ],
            "children": [
                [node, list(kids)]
                for node, kids in sorted(self.children.items())
                if kids
            ],
        }

    @classmethod
    def from_state(cls, atg: ATG, state: dict) -> "ViewStore":
        """Rebuild a store from :meth:`export_state` output.

        The ATG is not part of the state (view definitions are code, not
        data — snapshots carry only a fingerprint); the caller supplies
        the same ATG the exporting store was published from.  Round-trip
        is lossless: ``from_state(atg, s.export_state()).export_state()
        == s.export_state()``.
        """
        store = cls(atg)
        try:
            for node, element, sem in state["nodes"]:
                store.ensure_node(node, element, tuple(sem))
            for parent, kids in state["children"]:
                for child in kids:
                    store.add_edge(parent, child)
            store.root_id = state["root"]
            store._next_id = max(store._next_id, state["next_id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed store state: {exc!r}") from exc
        return store

    def canonical_bytes(self) -> bytes:
        """:meth:`export_state` as canonical (sorted, compact) JSON."""
        return json.dumps(
            self.export_state(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_bytes`.

        Two stores with equal digests hold byte-identical state — the
        convergence check replicas and the replication demo use.
        """
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- relational materialization ---------------------------------------------------

    def to_database(self, name: str = "view_store") -> Database:
        """Materialize gen and edge tables into a relational database.

        ``gen_A(id, col1, ..., colk)`` per element type and
        ``edge_A_B(parent, child, position)`` per DTD edge — the exact
        "XML view stored in relations" of the paper (plus an explicit
        child position to preserve XML ordering).
        """
        db = Database(name)
        for element in self.atg.dtd.types:
            columns = [("id", AttrType.INT)]
            for col in self.atg.signature(element):
                columns.append((f"a_{col}", _attr_type_for(element, col, self)))
            schema = RelationSchema(f"gen_{element}", columns, key=("id",))
            db.create_table(schema)
            for node, sem in sorted(self.gen.get(element, {}).items()):
                db.insert(f"gen_{element}", (node, *sem))
        for (parent_t, child_t), pairs in sorted(self.edges.items()):
            schema = RelationSchema(
                f"edge_{parent_t}_{child_t}",
                [
                    ("parent", AttrType.INT),
                    ("child", AttrType.INT),
                    ("position", AttrType.INT),
                ],
                key=("parent", "child"),
            )
            db.create_table(schema)
            for parent, child in sorted(pairs):
                position = self.children[parent].index(child)
                db.insert(f"edge_{parent_t}_{child_t}", (parent, child, position))
        return db


def _attr_type_for(element: str, col: str, store: ViewStore) -> AttrType:
    """Infer a column type from the first stored value (STR fallback)."""
    for sem in store.gen.get(element, {}).values():
        index = store.atg.signature(element).index(col)
        value = sem[index]
        if isinstance(value, bool):
            return AttrType.BOOL
        if isinstance(value, int):
            return AttrType.INT
        if isinstance(value, float):
            return AttrType.FLOAT
        return AttrType.STR
    return AttrType.STR
