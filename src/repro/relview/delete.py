"""Algorithm delete (paper, Fig. 9): PTIME group deletion translation.

Input: the edge views ``V`` (key-preserving SPJ queries over the base
relations), the database ``I`` and a group deletion ``ΔV`` (view rows to
remove).  For each view row ``t`` the *deletable source* ``Sr(Q, t)`` is
the set of base tuples contributing to ``t`` — readable directly off the
projected keys thanks to key preservation.  Deleting any source removes
``t``; a source is *side-effect free* iff it is not in the deletable
source of any view row (of any view) that must remain.  The algorithm
picks one side-effect-free source per view row, or rejects.

The worst case is ``O(|ΔV| · (|V(I)| − |ΔV|))``; the implementation
indexes "view rows referencing a base tuple" per candidate source so a
run touches only the relevant rows (the constant claimed in Section 5's
evaluation: deletion time dominated by XPath, not translation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UpdateRejectedError
from repro.relational.database import Database, RelationalDelta
from repro.views.registry import EdgeView, EdgeViewRegistry
from repro.views.store import ViewDelta, ViewStore


@dataclass
class DeletionPlan:
    """Result of translating a view group deletion."""

    delta_r: RelationalDelta = field(default_factory=RelationalDelta)
    view_rows: list[tuple[str, tuple]] = field(default_factory=list)
    """(view name, full view row) pairs deleted, for reporting."""
    chosen_sources: list[tuple[str, tuple]] = field(default_factory=list)
    """(relation, key) actually deleted."""


def expand_view_deletions(
    registry: EdgeViewRegistry,
    store: ViewStore,
    db: Database,
    delta_v: ViewDelta,
) -> list[tuple[EdgeView, tuple]]:
    """Resolve ``ΔV`` edge deletions to full view rows (with key columns).

    One deleted edge may correspond to several view rows differing only
    in hidden key columns (multiple derivations); removing the edge
    requires removing them all.
    """
    out: list[tuple[EdgeView, tuple]] = []
    for op in delta_v.deletions():
        view = registry.view(op.parent_type, op.child_type)
        parent_params = view.params_of(store.sem_of(op.parent))
        child_sem = store.sem_of(op.child)
        rows = view.matching_rows(db, parent_params, child_sem)
        if not rows:
            raise UpdateRejectedError(
                f"edge ({op.parent},{op.child}) of {view.name} has no "
                "derivation in the base data; store out of sync"
            )
        for row in rows:
            out.append((view, row))
    return out


def translate_deletions(
    registry: EdgeViewRegistry,
    db: Database,
    deletions: list[tuple[EdgeView, tuple]],
) -> DeletionPlan:
    """Algorithm delete: compute ``ΔR`` for the given view-row deletions.

    Raises :class:`UpdateRejectedError` when some view row has no
    side-effect-free deletable source.
    """
    plan = DeletionPlan()
    if not deletions:
        return plan

    # ΔV membership per view, for the "remains in the view" test.
    doomed: dict[str, set[tuple]] = {}
    for view, row in deletions:
        doomed.setdefault(view.name, set()).add(row)

    chosen: dict[tuple[str, tuple], tuple] = {}  # (relation, key) -> base row
    # (relation, key) -> verdict: ΔV and I are fixed for the call, so a
    # source shared by several view rows is decided once.
    verdicts: dict[tuple[str, tuple], bool] = {}

    for view, row in deletions:
        plan.view_rows.append((view.name, row))
        sources = view.sources(row)
        selected: tuple[str, tuple] | None = None
        for relation, alias, key in sources:
            base_row = db.table(relation).get(key)
            if base_row is None:
                continue  # already deleted by an earlier choice in ΔR
            source = (relation, key)
            if source in chosen:
                selected = source
                break
            free = verdicts.get(source)
            if free is None:
                free = verdicts[source] = _is_side_effect_free(
                    registry, db, relation, key, doomed
                )
            if free:
                selected = source
                chosen[source] = base_row
                break
        if selected is None:
            raise UpdateRejectedError(
                f"view row {row!r} of {view.name} has no side-effect-free "
                "deletable source; deletion rejected"
            )

    for (relation, key), base_row in chosen.items():
        plan.delta_r.delete(relation, base_row)
        plan.chosen_sources.append((relation, key))
    return plan


def _is_side_effect_free(
    registry: EdgeViewRegistry,
    db: Database,
    relation: str,
    key: tuple,
    doomed: dict[str, set[tuple]],
) -> bool:
    """Would deleting base tuple (relation, key) kill only ΔV rows?

    Checks, for every view and every occurrence (alias) of the relation
    in it, that all referencing view rows are in ``ΔV``.
    """
    for view, alias in registry.occurrences(relation):
        kept = doomed.get(view.name, ())
        for row in view.rows_referencing(db, alias, key):
            if row not in kept:
                return False
    return True
