"""Schema-directed publishing: materialize ``σ(I)`` (paper, Section 2.2).

Three entry points:

- :func:`publish_store` — publish directly into the DAG representation:
  a worklist over ``(type, $A)`` pairs; each pair is expanded exactly
  once no matter how often its subtree occurs, so publishing terminates
  even for recursive DTDs (as long as the data's derivation graph is a
  DAG) and the result is the compressed view.
- :func:`publish_subtree` — publish ``ST(A, t)`` for an insertion: new
  nodes are interned into the main store's id space (gen_id is global)
  but *no edges are added to the store*; the caller decides (Xinsert) or
  rolls back (:meth:`SubtreeResult.rollback`).  It costs what the insert
  adds: the shared part of ``ST`` is never walked.
- :func:`publish_tree` / :func:`unfold_to_tree` — the uncompressed tree,
  used by baselines and as the oracle in tests.  Unfolding detects
  cycles (a cyclic derivation has no finite tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.dtd.model import Alternation
from repro.errors import ATGError, CycleError
from repro.relational.database import Database
from repro.views.store import ViewStore
from repro.xmltree.tree import XMLNode


def _child_sems(
    atg: ATG, db: Database, element: str, sem: tuple, child: str
) -> list[tuple]:
    """The ``$child`` tuples of an ``element`` node with attribute ``sem``."""
    rule = atg.rule(element, child)
    parent_columns = atg.signature(element)
    if isinstance(rule, ProjectionRule):
        return [rule.project(parent_columns, sem)]
    if isinstance(rule, QueryRule):
        bindings = rule.bindings_for(parent_columns, sem)
        result = rule.query.evaluate(db, bindings)
        return sorted(result.rows, key=_sort_key)
    raise ATGError(f"unknown rule type {type(rule).__name__}")


def _sort_key(row: tuple):
    return tuple((type(v).__name__, v) for v in row)


def _expand_children(
    atg: ATG, db: Database, element: str, sem: tuple
) -> list[tuple[str, tuple]]:
    """All ``(child_type, child_sem)`` pairs of a node, in document order."""
    content = atg.dtd.content(element)
    out: list[tuple[str, tuple]] = []
    if isinstance(content, Alternation):
        # Exactly one alternative applies: the first whose projection is
        # defined (by convention, alternation rules map disjoint columns;
        # see the model validation).  We emit each declared alternative
        # whose projected tuple is non-None-filled.
        for child in content.child_types():
            for child_sem in _child_sems(atg, db, element, sem, child):
                if all(v is not None for v in child_sem):
                    out.append((child, child_sem))
                    break
            else:
                continue
            break
        return out
    for child in content.child_types():
        for child_sem in _child_sems(atg, db, element, sem, child):
            out.append((child, child_sem))
    return out


# ---------------------------------------------------------------------------
# DAG publishing
# ---------------------------------------------------------------------------


def publish_store(atg: ATG, db: Database) -> ViewStore:
    """Publish ``σ(I)`` as a DAG view store."""
    store = ViewStore(atg)
    root_id, _ = store.intern(atg.root, atg.root_sem)
    store.root_id = root_id
    worklist: list[int] = [root_id]
    while worklist:
        node = worklist.pop()
        element = store.type_of(node)
        sem = store.sem_of(node)
        for child_type, child_sem in _expand_children(atg, db, element, sem):
            child_id, is_new = store.intern(child_type, child_sem)
            store.add_edge(node, child_id)
            if is_new:
                worklist.append(child_id)
    return store


@dataclass
class SubtreeResult:
    """Result of publishing ``ST(A, t)`` against the main store's id space.

    Holds what this publish added, never the whole subtree: by the
    subtree property an existing node's subtree is already published,
    so ``ST`` is the new nodes plus the descendant-or-self closure of
    :attr:`frontier`, and nothing here walks it.

    Attributes
    ----------
    root:
        id of the subtree root (``r_A`` in Algorithm Xinsert).
    new_nodes:
        ids interned by this publish (in creation order); they have no
        edges in the main store yet.  Empty when the root already
        existed.
    edges:
        The new nodes' edges ``E_A`` as
        ``(parent_type, parent_id, child_type, child_id)``: the edges
        this insert stores (edges below an already-interned node are
        shared and already stored).
    """

    root: int
    new_nodes: list[int] = field(default_factory=list)
    edges: list[tuple[str, int, str, int]] = field(default_factory=list)

    @property
    def frontier(self) -> list[int]:
        """The existing nodes ``ST`` reaches first: ``[root]`` when the
        root already existed, else the distinct existing children the
        new edges reach.  Every existing node of ``ST`` is in their
        descendant-or-self closure, so a node lies inside ``ST`` iff it
        is new or in that closure."""
        if not self.new_nodes:
            return [self.root]
        new = set(self.new_nodes)
        return list(dict.fromkeys(
            child for *_, child in self.edges if child not in new
        ))

    def rollback(self, store: ViewStore) -> None:
        """Remove the newly interned (still edge-less) nodes from the store.

        When the interned ids are still the top of the id space (nothing
        interned since — guaranteed inside a rejected update or an
        aborted :class:`~repro.core.updater.UpdatePlan`), the id counter
        is wound back too (:meth:`ViewStore.release_ids`), so an aborted
        plan leaves the store byte-identical and later inserts allocate
        the same ids a never-planned store would.
        """
        removed: list[int] = []
        for node in reversed(self.new_nodes):
            if store.has_node(node):
                store.remove_node(node)
                removed.append(node)
        store.release_ids(removed)


def publish_subtree(
    atg: ATG, db: Database, store: ViewStore, element: str, sem: tuple
) -> SubtreeResult:
    """Publish ``ST(element, sem)``, interning nodes into ``store``.

    An existing root is returned as it is, without a walk: its subtree
    is already published (subtree property).  Otherwise expansion
    interns the new nodes and stops at nodes that already exist — their
    subtrees are shared rather than recreated — so the cost is the new
    nodes and their edges, never the shared part of ``ST``.
    """
    sem = tuple(sem)
    existing = store.lookup(element, sem)
    if existing is not None:
        return SubtreeResult(root=existing)
    root_id, _ = store.intern(element, sem)
    result = SubtreeResult(root=root_id, new_nodes=[root_id])
    worklist: list[int] = [root_id]
    while worklist:
        node = worklist.pop()
        node_type = store.type_of(node)
        node_sem = store.sem_of(node)
        for child_type, child_sem in _expand_children(
            atg, db, node_type, node_sem
        ):
            child_id, is_new = store.intern(child_type, child_sem)
            result.edges.append((node_type, node, child_type, child_id))
            if is_new:
                result.new_nodes.append(child_id)
                worklist.append(child_id)
    return result


# ---------------------------------------------------------------------------
# Tree publishing / unfolding
# ---------------------------------------------------------------------------


def publish_tree(atg: ATG, db: Database, max_nodes: int = 10_000_000) -> XMLNode:
    """Publish ``σ(I)`` as an uncompressed tree (baseline/oracle).

    Raises :class:`CycleError` if the derivation is cyclic (the tree
    would be infinite) and :class:`ATGError` past ``max_nodes``.
    """
    budget = [max_nodes]

    def build(element: str, sem: tuple, on_path: frozenset) -> XMLNode:
        identity = (element, sem)
        if identity in on_path:
            raise CycleError(
                f"cyclic derivation at {identity!r}: view has no finite tree"
            )
        budget[0] -= 1
        if budget[0] < 0:
            raise ATGError(f"tree exceeds max_nodes={max_nodes}")
        node = XMLNode(element, sem)
        if atg.dtd.is_pcdata(element):
            node.text = str(sem[0]) if sem else ""
            return node
        child_path = on_path | {identity}
        for child_type, child_sem in _expand_children(atg, db, element, sem):
            node.children.append(build(child_type, child_sem, child_path))
        return node

    return build(atg.root, atg.root_sem, frozenset())


def unfold_to_tree(
    store: ViewStore, root: int | None = None, max_nodes: int = 10_000_000
) -> XMLNode:
    """Unfold the DAG to the XML tree it compresses.

    Shared nodes are expanded once per occurrence; cycles raise
    :class:`CycleError`.
    """
    if root is None:
        if store.root_id is None:
            raise ATGError("store has no root")
        root = store.root_id
    budget = [max_nodes]

    def build(node: int, on_path: frozenset) -> XMLNode:
        if node in on_path:
            raise CycleError(f"cycle through node {node} in view store")
        budget[0] -= 1
        if budget[0] < 0:
            raise ATGError(f"unfolded tree exceeds max_nodes={max_nodes}")
        element = store.type_of(node)
        sem = store.sem_of(node)
        xml = XMLNode(element, sem)
        if store.atg.dtd.is_pcdata(element):
            xml.text = str(sem[0]) if sem else ""
            return xml
        child_path = on_path | {node}
        for child in store.children_of(node):
            xml.children.append(build(child, child_path))
        return xml

    return build(root, frozenset())
