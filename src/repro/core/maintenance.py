"""Incremental maintenance of ``M`` and ``L`` (paper, Figs. 7 and 8).

Both algorithms run "in the background" in the paper's framework: they do
not gate the user-visible update, but the structures must be consistent
before the next update is processed.  ``L`` is repaired when an insert is
applied (:func:`repair_topo_after_insert`); ``M`` by one :func:`repair`
per update and per base update (:mod:`repro.atg.incremental`), at its
commit, which runs the delete pass first
and the insertions' ``ΔM`` after it (DRed's order: Gupta, Mumick &
Subrahmanian, SIGMOD 1993).

**Why no row is read stale.**  ``ΔV`` removes only edges into the delete
targets, so below the last cut edge of any ancestor path the path is
intact and ends in ``LR = desc-or-self(targets)``: a row outside ``LR``
holds true ancestors only.  The delete pass rebuilds every row of ``LR``
from its surviving parents, ancestors first, and adds no bit.  After it
every row is a subset of the closure of the final store, so none holds
a condemned node or its own, and the insertions close ``M`` over the
edges they added that are still in the store, reading only such rows.

**Δ(M,L)insert** (after ``insert (A, t) into p``) pays for the pairs
the insert adds, not for the size of ``ST(A, t)``.  DAG compression
shares most of ``ST`` with the existing view, and by the invariant of
``M`` the closure below an already-interned node is in ``M`` already.
So ``ΔM`` is the closure update for the edges the insert adds, one
:meth:`~repro.index.ReachabilityIndex.add_closure_below` per edge head
(the edge-insertion update of Italiano, "Amortized efficiency of a path
retrieval data structure", TCS 1986):

1. reachability *inside* ``ST``: for the new nodes only, ancestors
   first, each edge ``(n, c)`` leaving ``n`` adds ``({n} ∪ anc(n)) ×
   ({c} ∪ desc(c))`` — a localized Algorithm Reach when ``c`` is new,
   and the whole shared region below ``c`` when it is not;
2. cross pairs: the connecting edges ``(u, r_A)`` add ``anc*(r[[p]]) ×
   ({r_A} ∪ desc(r_A))``, only the bits missing from ``anc(r_A)``
   written — none missing, nothing to do, which is valid because
   ``anc(d) ⊇ anc(r_A) ∪ {r_A}`` for every ``d`` below ``r_A``;
3. ``L`` (it reads only the store): new nodes are placed just after
   their highest-positioned children (children-first processing makes
   this safe), then the new connecting edges ``(u, r_A)`` are repaired
   with ``swap`` exactly as in the paper (lines 12–13).  ``swap`` finds
   ``L[u:r_A] ∩ desc(r_A)`` by walking the store's edges down from
   ``r_A``, and the walk stops at every node placed before ``u``: ``L``
   already orders every edge below ``r_A``, so nothing below such a
   node can be in the segment.

A sharing insert (no new node) is one call, and it returns at once when
the targets already reach ``r_A``; otherwise it walks the store's edges
below ``r_A``, and only below the rows it writes.  All ``M`` writes go
through the bulk operations of :class:`~repro.index.ReachabilityIndex`
(``add_closure_below``, ``retain_below``), which the bitset index does
whole rows per machine word.

**Δ(M,L)delete** (after ``delete p``, with ``ΔV`` already applied):

walks ``LR`` ancestors-first, recomputing each node's ancestor row from
its surviving parents; nodes left with no parents are condemned
(``keep := false``), their outgoing edges become the garbage-collection
feed ``Δ'V``, and they are dropped from ``L`` and the gen tables.  The
walk is one bulk call,
:meth:`~repro.index.ReachabilityIndex.retain_below`, which reads the
parent rows and writes at most one row per node of ``LR``.  A condemned
node's row is emptied by the walk, and no surviving row holds its bit,
because a condemned parent is left out before any of its descendants is
recomputed.  The condemned nodes leave the store in one pass
(:meth:`~repro.views.store.ViewStore.collect`, which unlinks their
out-edges and returns them as ``Δ'V``) and ``L`` in one
:meth:`~repro.core.topo.TopoOrder.remove_many`, which tombstones their
slots and rewrites no surviving position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atg.publisher import SubtreeResult
from repro.core.topo import TopoOrder
from repro.index import ReachabilityIndex, build_index
from repro.views.store import ViewDelta, ViewStore


def load_structures(store: ViewStore) -> tuple[TopoOrder, ReachabilityIndex]:
    """Build ``(L, M)`` for ``store`` from scratch."""
    topo = TopoOrder.from_store(store)
    return topo, build_index(store, topo)


@dataclass
class DeleteMaintenance:
    """Report of a Δ(M,L)delete run."""

    gc_delta: ViewDelta = field(default_factory=ViewDelta)
    removed_nodes: list[int] = field(default_factory=list)
    removed_info: dict[int, tuple[str, str | None]] = field(
        default_factory=dict
    )
    """(type, PCDATA value) per garbage-collected node, captured before
    removal — subscription events need child values the store no longer
    holds."""


def place_new_nodes(
    store: ViewStore, topo: TopoOrder, subtree: SubtreeResult
) -> None:
    """The ``L`` placement step of Δ(M,L)insert: slot the new nodes in.

    The subtree may be a DAG with diamonds, so creation order is not
    reliably children-first; compute a children-first order over the
    new nodes (Kahn on the new-node subgraph) and place each node
    immediately after its highest-positioned child.
    """
    new_set = set(subtree.new_nodes)
    pending = {
        node: sum(1 for c in store.children_of(node) if c in new_set)
        for node in subtree.new_nodes
    }
    ready = sorted(
        (node for node, count in pending.items() if count == 0), reverse=True
    )
    placed_order: list[int] = []
    while ready:
        node = ready.pop()
        placed_order.append(node)
        for parent in sorted(store.parents_of(node)):
            if parent in new_set:
                pending[parent] -= 1
                if pending[parent] == 0:
                    ready.append(parent)
    if len(placed_order) != len(new_set):  # pragma: no cover - defensive
        raise RuntimeError("cycle among newly inserted view nodes")
    for node in placed_order:
        placed = [c for c in store.children_of(node) if c in topo]
        if placed:
            pos = max(topo.position(c) for c in placed)
            topo.insert_at(node, pos + 1)
        else:
            topo.insert_front(node)


def repair_topo_after_insert(
    store: ViewStore,
    topo: TopoOrder,
    subtree: SubtreeResult,
    targets: list[int],
) -> None:
    """The ``L`` half of Δ(M,L)insert; ``M`` is not read.

    Places the new nodes (:func:`place_new_nodes`), then repairs each
    connecting edge ``(u, r_A)`` with ``u`` before ``r_A`` by ``swap``,
    whose walk below ``r_A`` reads the store's edges.
    """
    place_new_nodes(store, topo, subtree)
    root = subtree.root
    for target in targets:
        if topo.position(target) < topo.position(root):
            topo.swap(target, root, store.children_of)


def repair(
    store: ViewStore,
    topo: TopoOrder,
    reach: ReachabilityIndex,
    inserts: list[tuple[SubtreeResult, list[int]]],
    delete_targets: list[int] | None,
) -> DeleteMaintenance | None:
    """The one Δ(M,L) repair of ``M``, for an update, a batch or a base
    update.  Call *after* ``store.apply(ΔV)`` and, for every insert,
    :func:`repair_topo_after_insert`.

    The delete pass runs first, then the insertions' ``ΔM``, so every
    row they read is a subset of the final closure (module docstring).
    Returns the delete pass's report (commit events need its GC ΔV), or
    ``None`` without delete targets.
    """
    gc = None
    if delete_targets:
        gc = maintain_delete(store, topo, reach, delete_targets)
    if inserts:
        maintain_insert(store, topo, reach, inserts)
    return gc


def maintain_insert(
    store: ViewStore,
    topo: TopoOrder,
    reach: ReachabilityIndex,
    inserts: list[tuple[SubtreeResult, list[int]]],
) -> None:
    """The ``ΔM`` half of Δ(M,L)insert, after :func:`repair`'s delete
    pass: each insert's new nodes' out-edges, ancestors first, then its
    connecting edges ``(u, r_A)``.  A node the pass condemned has left
    the store, and a target whose edge to ``r_A`` a later op removed is
    not ``r_A``'s parent: all are skipped."""
    live = store.has_node
    for subtree, targets in inserts:
        new = [node for node in subtree.new_nodes if live(node)]
        for node in reversed(topo.sort_nodes(new)):
            for child in store.children_of(node):
                reach.add_closure_below(store, (node,), child)
        parents = store.parents_of(subtree.root)  # none once condemned
        attached = [t for t in targets if t in parents]
        if attached:
            reach.add_closure_below(store, attached, subtree.root)


def maintain_delete(
    store: ViewStore,
    topo: TopoOrder,
    reach: ReachabilityIndex,
    targets: list[int],
) -> DeleteMaintenance:
    """Algorithm Δ(M,L)delete over the deleted child nodes ``targets``
    (``r[[p]]``).  Call *after* ``store.apply(ΔV)``.  Returns the
    garbage-collection feed ``Δ'V`` (already applied to the store) and
    the removed nodes.

    The ancestor-recomputation walk over ``LR = desc-or-self(r[[p]])``
    is one :meth:`~repro.index.ReachabilityIndex.retain_below` call,
    ancestors first: each node's ancestor row is recomputed from its
    surviving parents, and a node left with no surviving parent is
    condemned (``keep := false``).  The store is only mutated after the
    walk, by one :meth:`~repro.views.store.ViewStore.collect`.
    """
    report = DeleteMaintenance()
    affected = set(targets) | store.descendants_of(targets)
    condemned = reach.retain_below(store, reversed(topo.sort_nodes(affected)))
    if condemned:  # ancestors first
        info = report.removed_info
        for node in condemned:
            info[node] = (store.type_of(node), store.value_of(node))
        report.gc_delta = store.collect(condemned)
        report.removed_nodes = condemned
        topo.remove_many(condemned)
    return report
