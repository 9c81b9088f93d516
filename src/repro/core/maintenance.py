"""Incremental maintenance of ``M`` and ``L`` (paper, Figs. 7 and 8).

Both algorithms run "in the background" in the paper's framework: they do
not gate the user-visible update, but the structures must be consistent
before the next update is processed.  The updater invokes them right
after applying ``ΔV`` and times them separately (the benchmarks report
this phase on its own, as the paper's plots do).  Batched update
sessions (:meth:`repro.core.updater.XMLViewUpdater.batch`) split the
insert side: the ``L`` steps eagerly per update, the ``ΔM`` steps
(``placed=True``) in one deferred repair for the whole batch.

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
   ({r_A} ∪ desc(r_A))``, the lower set read from the root's row of
   ``M`` (all of ``ST`` after part 1) and only the bits missing from
   ``anc(r_A)`` written — none missing, nothing to do, which is valid
   because ``anc(d) ⊇ anc(r_A) ∪ {r_A}`` for every ``d`` below ``r_A``;
3. ``L``: new nodes are placed just after their highest-positioned
   children (children-first processing makes this safe), then the new
   connecting edges ``(u, r_A)`` are repaired with ``swap`` exactly as in
   the paper (lines 12–13).

A sharing insert (no new node) is one call, and it returns at once when
the targets already reach ``r_A``.  All ``M`` writes go through the bulk
operations of :class:`~repro.index.ReachabilityIndex`
(``add_closure_below``, ``retain_ancestors``), which the bitset index
does whole rows per machine word.

**Δ(M,L)delete** (after ``delete p``, with ``ΔV`` already applied):

walks ``LR = desc-or-self(r[[p]])`` ancestors-first, recomputing each
node's ancestor set from its surviving parents; nodes left with no
parents are condemned (``keep := false``), their outgoing edges become
the garbage-collection feed ``Δ'V``, and they are dropped from ``L``,
``M`` and the gen tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atg.publisher import SubtreeResult
from repro.core.dag_eval import EvalResult
from repro.core.topo import TopoOrder
from repro.index import ReachabilityIndex
from repro.views.store import ViewDelta, ViewStore


@dataclass
class InsertMaintenance:
    """Report of a Δ(M,L)insert run."""

    added_pairs: int = 0
    moved_nodes: int = 0
    placed_nodes: int = 0


@dataclass
class DeleteMaintenance:
    """Report of a Δ(M,L)delete run."""

    removed_pairs: int = 0
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
) -> int:
    """The ``L`` placement step of Δ(M,L)insert: slot the new nodes in.

    The subtree may be a DAG with diamonds, so creation order is not
    reliably children-first; compute a children-first order over the
    new nodes (Kahn on the new-node subgraph) and place each node
    immediately after its highest-positioned child.  Returns the number
    of nodes placed.
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
    return len(placed_order)


def repair_topo_after_insert(
    topo: TopoOrder,
    subtree: SubtreeResult,
    targets: list[int],
    desc_root,
) -> int:
    """Repair ``L`` for the connecting edges ``(u, r_A)`` via ``swap``.

    ``desc_root`` is any membership container over the *proper*
    descendants of the subtree root (an ``M`` row view after the pair
    update, or a store walk when ``M`` repair is deferred).  Returns the
    number of nodes moved.
    """
    moved = 0
    for target in targets:
        if topo.position(target) < topo.position(subtree.root):
            moved += topo.swap(target, subtree.root, desc_root)
    return moved


def maintain_insert(
    store: ViewStore,
    topo: TopoOrder,
    reach: ReachabilityIndex,
    subtree: SubtreeResult,
    targets: list[int],
    placed: bool = False,
) -> InsertMaintenance:
    """Algorithm Δ(M,L)insert.  Call *after* ``store.apply(ΔV)``.

    ``placed`` says the ``L`` steps already ran (a batch session does
    them when it defers the repair: :func:`place_new_nodes`, then
    :func:`repair_topo_after_insert` against a store walk), which
    leaves the ``ΔM`` steps.
    """
    report = InsertMaintenance()
    if not placed:
        report.placed_nodes = place_new_nodes(store, topo, subtree)
    # ΔM part 1: the edges leaving the new nodes, ancestors first.
    for node in reversed(topo.sort_nodes(subtree.new_nodes)):
        for child in store.children_of(node):
            report.added_pairs += reach.add_closure_below((node,), child)
    # ΔM part 2: the connecting edges (u, r_A), below the root's row.
    report.added_pairs += reach.add_closure_below(targets, subtree.root)
    if not placed:
        report.moved_nodes = repair_topo_after_insert(
            topo, subtree, targets, reach.desc_view(subtree.root)
        )
    return report


def maintain_delete(
    store: ViewStore,
    topo: TopoOrder,
    reach: ReachabilityIndex,
    result: "EvalResult | list[int]",
) -> DeleteMaintenance:
    """Algorithm Δ(M,L)delete.  Call *after* ``store.apply(ΔV)``.

    ``result`` is either the evaluation result or a bare list of the
    deleted child nodes (``r[[p]]``) — the algorithm only needs the
    targets.  Returns the garbage-collection feed ``Δ'V`` (already
    applied to the store) together with the removed reachability pairs
    and nodes.

    The ancestor-recomputation walk over ``LR = desc-or-self(r[[p]])``
    goes ancestors-first: each node's ancestor row is recomputed from
    its surviving parents, and a node left with no surviving parent is
    condemned (``keep := false``).  The store is only mutated after the
    walk.
    """
    report = DeleteMaintenance()
    targets = result if isinstance(result, list) else result.targets
    affected = set(targets) | reach.desc_of_set(targets)
    removed = 0
    condemned: list[int] = []  # ancestors first
    doomed: set[int] = set()
    for node in reversed(topo.sort_nodes(affected)):
        parents = store.parents_of(node)
        surviving = (
            [p for p in parents if p not in doomed] if doomed else parents
        )
        removed += reach.retain_ancestors(node, surviving)
        if not surviving and node != store.root_id:
            doomed.add(node)
            condemned.append(node)
    report.removed_pairs = removed
    for node in condemned:  # ancestors first
        report.removed_info[node] = (
            store.type_of(node), store.value_of(node)
        )
        for child in list(store.children_of(node)):
            report.gc_delta.delete(
                store.type_of(node), store.type_of(child), node, child
            )

    # Apply Δ'V and drop the condemned nodes from every structure.
    store.apply(report.gc_delta)
    if condemned:
        report.removed_nodes = condemned
        topo.remove_many(condemned)
        for node in condemned:
            reach.drop_node(node)
            store.remove_node(node)
    return report
