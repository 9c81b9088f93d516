"""Incremental propagation of *base* updates into the published view.

The reverse direction of the paper's pipeline: the paper translates XML
updates down to ``ΔR``; this module keeps the DAG view synchronized when
the base database is updated directly (the paper builds on exactly this
machinery — its reference [8], "Incremental evaluation of schema-directed
XML publishing" — and notes that commercial systems of the time only
propagated base updates into *non-recursive* views).

Given a group base update ``ΔR``:

1. **diff the edge views** — for every edge view and every touched base
   tuple, the view rows referencing it before (losses) and after (gains)
   the update are computed with indexed point queries; set semantics
   dedupes overlaps;
2. **apply losses** — for every existing parent node whose parameter
   projection matches a lost row, the corresponding child edge is
   removed;
3. **apply gains to a fixpoint** — a gained edge materializes only under
   parent nodes that exist in the view; attaching a child may publish a
   new subtree whose nodes are parents for further pending gains, so
   gains are processed with a worklist until no progress (rows whose
   parents never materialize are unreachable and correctly ignored);
4. **maintain** ``M`` and ``L`` with the paper's incremental algorithms:
   ``L`` per attachment as it is made, then one
   :func:`~repro.core.maintenance.repair` of ``M`` — the Δ(M,L)delete
   pass for all removals first (it also garbage-collects unreachable
   remains), then every attachment's ``ΔM``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atg.model import ATG
from repro.atg.publisher import publish_subtree
from repro.core.maintenance import repair, repair_topo_after_insert
from repro.core.topo import TopoOrder
from repro.index import ReachabilityIndex
from repro.relational.database import Database, RelationalDelta
from repro.views.events import (
    EdgeRecord,
    NodeRecord,
    edge_records_from_delta,
    node_records_for,
)
from repro.views.registry import EdgeView, EdgeViewRegistry
from repro.views.store import ViewStore


@dataclass
class PropagationReport:
    """What a propagation pass changed in the view."""

    edges_added: list[tuple[int, int]] = field(default_factory=list)
    edges_removed: list[tuple[int, int]] = field(default_factory=list)
    nodes_created: int = 0
    nodes_collected: int = 0
    unreachable_gains: int = 0
    """Gained view rows whose parents never materialized (not published)."""

    edge_records: list[EdgeRecord] = field(default_factory=list)
    """Every edge change, typed and valued
    (:class:`~repro.views.events.EdgeRecord`): the loss removals, the
    gain attachments, and the closing GC pass.  A complete description
    of the store mutation — base updates can therefore emit fine-grained
    events, extending the subscription engine's skip/suffix pruning to
    the reverse pipeline instead of forcing full re-evaluations.  Only
    populated when the propagation ran with ``want_records=True`` (the
    updater passes it iff its sink consumes events, so a service with
    no subscription and no changefeed pays nothing)."""

    node_records: list[NodeRecord] = field(default_factory=list)
    """Interning records for the insert-edge endpoints (the replication
    side channel, :class:`~repro.views.events.NodeRecord`), captured
    *before* the closing GC pass so endpoints collected in the same
    propagation are still described.  Populated only with
    ``want_records=True``, like :attr:`edge_records`."""


def propagate_base_update(
    atg: ATG,
    registry: EdgeViewRegistry,
    db: Database,
    store: ViewStore,
    topo: TopoOrder,
    reach: ReachabilityIndex,
    delta_r: RelationalDelta,
    want_records: bool = False,
) -> PropagationReport:
    """Apply ``ΔR`` to ``db`` and synchronize the view incrementally.

    ``want_records=True`` additionally captures typed
    :attr:`PropagationReport.edge_records` for event consumers; off by
    default so updaters nobody consumes pay no per-edge construction cost.
    """
    report = PropagationReport()
    if not delta_r:
        return report

    # -- 1. view-row losses (pre-image) and gains (post-image) ---------------
    lost: dict[str, set[tuple]] = {}
    touched = _touched_keys(db, delta_r)
    for view in registry.views():
        lost[view.name] = _referencing_rows(view, db, touched)
    db.apply(delta_r)
    gained: dict[str, set[tuple]] = {}
    for view in registry.views():
        gained[view.name] = _referencing_rows(view, db, touched)
    for view in registry.views():
        both = lost[view.name] & gained[view.name]
        lost[view.name] -= both
        gained[view.name] -= both

    # -- 2. losses: remove edges under existing parents -----------------------
    removed_children: list[int] = []
    for view in registry.views():
        for row in sorted(lost[view.name]):
            params, child_sem = view.visible(row)
            child = store.lookup(view.child_type, child_sem)
            if child is None:
                continue
            # The edge survives if another derivation still exists.
            if view.matching_rows(db, params, child_sem):
                continue
            for parent in _matching_parents(store, view, params):
                if store.remove_edge(parent, child):
                    report.edges_removed.append((parent, child))
                    removed_children.append(child)
                    if want_records:
                        # The child stays interned until the closing GC
                        # pass, so its type/value are still resolvable.
                        report.edge_records.append(EdgeRecord(
                            kind="delete",
                            parent_type=store.type_of(parent),
                            child_type=store.type_of(child),
                            parent=parent,
                            child=child,
                            child_value=store.value_of(child),
                        ))

    # -- 3. gains: attach under existing parents, to a fixpoint ----------------
    pending: list[tuple[EdgeView, tuple, tuple]] = []
    attachments = []
    for view in registry.views():
        for row in sorted(gained[view.name]):
            params, child_sem = view.visible(row)
            pending.append((view, params, child_sem))
    progress = True
    while pending and progress:
        progress = False
        remaining: list[tuple[EdgeView, tuple, tuple]] = []
        for view, params, child_sem in pending:
            parents = _matching_parents(store, view, params)
            if not parents:
                remaining.append((view, params, child_sem))
                continue
            progress = True
            subtree = publish_subtree(
                atg, db, store, view.child_type, child_sem
            )
            report.nodes_created += len(subtree.new_nodes)
            for ptype, parent, ctype, child in subtree.edges:
                if store.add_edge(parent, child):
                    report.edges_added.append((parent, child))
                    if want_records:
                        report.edge_records.append(EdgeRecord(
                            kind="insert",
                            parent_type=ptype,
                            child_type=ctype,
                            parent=parent,
                            child=child,
                            child_value=store.value_of(child),
                        ))
            attach_targets = []
            root_type = store.type_of(subtree.root)
            for parent in parents:
                if store.add_edge(parent, subtree.root):
                    report.edges_added.append((parent, subtree.root))
                    attach_targets.append(parent)
                    if want_records:
                        report.edge_records.append(EdgeRecord(
                            kind="insert",
                            parent_type=store.type_of(parent),
                            child_type=root_type,
                            parent=parent,
                            child=subtree.root,
                            child_value=store.value_of(subtree.root),
                        ))
            if attach_targets or subtree.new_nodes:
                repair_topo_after_insert(store, topo, subtree, attach_targets)
                attachments.append((subtree, attach_targets))
        pending = remaining
    report.unreachable_gains = len(pending)

    # Interning records must be captured while the gain endpoints are
    # still alive: the GC pass below may collect a node that one of this
    # propagation's own insert records references.
    if want_records:
        report.node_records = node_records_for(store, report.edge_records)

    # -- 4. one repair of M: the delete pass, then the attachments' ΔM ---------
    gc = repair(
        store, topo, reach, attachments, sorted(set(removed_children))
    )
    if gc is not None:
        report.nodes_collected = len(gc.removed_nodes)
        if want_records:
            report.edge_records.extend(
                edge_records_from_delta(store, gc.gc_delta, gc.removed_info)
            )
    return report


def _touched_keys(
    db: Database, delta_r: RelationalDelta
) -> dict[str, set[tuple]]:
    """Primary keys touched per relation."""
    touched: dict[str, set[tuple]] = {}
    for op in delta_r:
        schema = db.schema(op.relation)
        touched.setdefault(op.relation, set()).add(schema.key_of(op.row))
    return touched


def _referencing_rows(
    view: EdgeView, db: Database, touched: dict[str, set[tuple]]
) -> set[tuple]:
    """View rows referencing any touched base tuple (current db state)."""
    rows: set[tuple] = set()
    for alias, (relation, _) in view.key_layout.items():
        for key in touched.get(relation, ()):
            rows.update(view.rows_referencing(db, alias, key))
    return rows


def _matching_parents(
    store: ViewStore, view: EdgeView, params: tuple
) -> list[int]:
    """Existing parent nodes whose semantic attribute matches ``params``."""
    params_of = view.params_of
    out = []
    for node, sem in store.gen.get(view.parent_type, {}).items():
        if params_of(sem) == params:
            out.append(node)
    return sorted(out)
