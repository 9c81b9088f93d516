"""Key preservation on SPJ views (paper, Section 4.1).

An SPJ query ``Q(R1, ..., Rk)`` is *key preserving* if the primary key of
every ``Ri`` is included in ``Q``'s projection (with possible renaming).
The check here is slightly more liberal, and still sound: a key column
counts as projected if the projection contains a column *provably equal*
to it under the equality closure of ``Q``'s selection conjuncts — SQL
renaming through a join condition (``select c.cno ... where p.cno2 =
c.cno``) preserves ``p.cno2`` just as well.

Key preservation is the paper's enabling condition: it makes group
deletions tractable (Theorem 1) and pins the key part of every insertion
tuple template (Section 4.3).  Every edge view built by
:func:`repro.views.registry.build_registry` is key-preserving by
construction; this module is the independent checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.conditions import Col, Eq
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relview.insert import _UnionFind


@dataclass
class KeyPreservationReport:
    """Outcome of the key-preservation check for one query."""

    query: str
    preserved: bool
    missing: list[tuple[str, str, str]]
    """(relation, alias, key attribute) triples not covered by the projection."""


def _equality_classes(query: SPJQuery) -> _UnionFind:
    classes = _UnionFind()
    for conjunct in query.where.conjuncts():
        if isinstance(conjunct, Eq):
            left, right = conjunct.left, conjunct.right
            if isinstance(left, Col) and isinstance(right, Col):
                classes.union((left.alias, left.attr), (right.alias, right.attr))
    return classes


def key_preservation_report(
    query: SPJQuery, db: Database
) -> KeyPreservationReport:
    """Check whether ``query`` preserves every base relation's key."""
    classes = _equality_classes(query)
    projected_roots = {
        classes.find((col.alias, col.attr)) for _, col in query.project
    }
    missing: list[tuple[str, str, str]] = []
    for relation, alias in query.tables:
        schema = db.schema(relation)
        for key_attr in schema.key:
            if classes.find((alias, key_attr)) not in projected_roots:
                missing.append((relation, alias, key_attr))
    return KeyPreservationReport(query.name, not missing, missing)


def is_key_preserving(query: SPJQuery, db: Database) -> bool:
    """Whether ``query`` is key preserving (Section 4.1)."""
    return key_preservation_report(query, db).preserved


def make_key_preserving(query: SPJQuery, db: Database) -> SPJQuery:
    """Extend the projection so every base key is included.

    The paper (Section 4.1) observes that any SPJ query in an ATG can be
    made key-preserving by widening its select clause — e.g. adding
    ``e.cno`` to ``Q_takenBy_student`` — without changing the ATG's
    expressive power.  Added columns are named ``__kp_<alias>_<attr>``.
    """
    report = key_preservation_report(query, db)
    if report.preserved:
        return query
    project = list(query.project)
    taken = {name for name, _ in project}
    for relation, alias, attr in report.missing:
        name = f"__kp_{alias}_{attr}"
        while name in taken:
            name += "_"
        taken.add(name)
        project.append((name, Col(alias, attr)))
    return SPJQuery(query.name, query.tables, project, query.where)
