"""The per-call code the compiled plans replaced, kept as test references.

- :func:`interpret` is ``SPJQuery.evaluate`` as an interpreter: it picks
  the alias order, resolves every column by name and dispatches every
  conjunct on each call.  The compiled plan must give the same rows in
  the same order and the same derivations.
- :func:`build_templates` is Algorithm insert's stage 1 rebuilding the
  equality closure of the view's condition for every target.  The
  skeleton-based ``_build_templates`` must give the same templates, the
  same assertions in the same order and the same target rows, and raise
  the same rejections.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from repro.errors import QueryError, UpdateRejectedError
from repro.relational.conditions import (
    And,
    Col,
    Const,
    Eq,
    Not,
    Or,
    Param,
    Predicate,
    Term,
    _Comparison,
)
from repro.relational.query import Assignment, QueryResult
from repro.relview.insert import _merge_templates
from repro.relview.keypres import _UnionFind
from repro.relview.symbolic import Atom, SymVar, Template, make_atom


def interpret(query, db, bindings=None, *, fixed=(), with_derivations=False):
    bindings = bindings or {}
    missing = query.params() - bindings.keys()
    if missing:
        raise QueryError(
            f"unbound query parameter(s) {sorted(missing)} in query {query.name!r}"
        )
    given: dict[str, list[tuple[str, Term]]] = {}
    for col, value in fixed:
        if col.alias not in query.equalities:
            raise QueryError(
                f"fixed column {col} names an unknown alias in query {query.name!r}"
            )
        given.setdefault(col.alias, []).append((col.attr, Const(value)))
    schemas = {alias: db.schema(rel) for rel, alias in query.tables}

    def value_of(term: Term, assignment: Assignment) -> object:
        if isinstance(term, Col):
            row = assignment[term.alias]
            return row[schemas[term.alias].index_of(term.attr)]
        if isinstance(term, Param):
            return bindings[term.name]
        return term.value

    def holds(pred: Predicate, assignment: Assignment) -> bool:
        if isinstance(pred, _Comparison):
            left = value_of(pred.left, assignment)
            right = value_of(pred.right, assignment)
            try:
                return pred.evaluate(left, right)
            except TypeError:
                return False
        if isinstance(pred, And):
            return all(holds(part, assignment) for part in pred.parts)
        if isinstance(pred, Or):
            return any(holds(part, assignment) for part in pred.parts)
        if isinstance(pred, Not):
            return not holds(pred.part, assignment)
        raise QueryError(f"cannot evaluate predicate {pred!r}")

    result = QueryResult()
    # Column-free conjuncts are decided before any row is read.
    if not all(holds(p, {}) for p, needs in query.conjunct_aliases if not needs):
        return result
    assignments: list[Assignment] = [{}]
    unbound = list(query.aliases)

    def probe(alias: str) -> tuple[int, str, list[tuple[str, Term]]]:
        """(rank, alias, the equalities it can be probed on now).

        A value of this call or a bound cell is a point probe: rank 0.
        The query's own constants select a category (``c6 = 1``: every
        top-level node), so an alias tied to nothing else waits: 1.
        """
        terms = given.get(alias, []) + [
            (attr, other)
            for attr, other in query.equalities[alias]
            if not (isinstance(other, Col) and other.alias in unbound)
        ]
        point = alias in given or any(not isinstance(o, Const) for _, o in terms)
        return (0 if point else 1 if terms else 2), alias, terms

    while unbound and assignments:
        _, alias, terms = min(map(probe, unbound), key=lambda ranked: ranked[0])
        table = db.table(query.relation_of(alias))
        if terms:  # one probe per partial assignment
            attrs = [attr for attr, _ in terms]
            found: Iterable[list[tuple]] = (
                table.lookup(attrs, [value_of(o, a) for _, o in terms])
                for a in assignments
            )
        else:  # no equality reaches it: a cross product
            found = repeat(list(table.rows()))
        unbound.remove(alias)
        decided = [
            pred
            for pred, needs in query.conjunct_aliases
            if alias in needs and needs.isdisjoint(unbound)
        ]
        extended = (
            {**assignment, alias: row}
            for assignment, rows in zip(assignments, found)
            for row in rows
        )
        assignments = [a for a in extended if all(holds(p, a) for p in decided)]

    for assignment in assignments:
        out = tuple(value_of(col, assignment) for _, col in query.project)
        if out not in result.derivations:
            result.rows.append(out)
            result.derivations[out] = []
        if with_derivations:
            result.derivations[out].append(assignment)
    return result



def build_templates(db, targets):
    """Build the tuple templates and the canonical assertions."""
    templates: dict[tuple[str, tuple], Template] = {}
    assertions: list[Atom] = []

    for target in targets:
        view = target.view
        query = view.query
        classes = _UnionFind()
        known: dict = {}

        def learn(item, value) -> None:
            root = classes.find(item)
            if root in known and known[root] != value:
                raise UpdateRejectedError(
                    f"target edge of {view.name} is inconsistent: "
                    f"{item} must be both {known[root]!r} and {value!r}"
                )
            known[root] = value

        for conjunct in query.where.conjuncts():
            if isinstance(conjunct, Eq):
                left, right = conjunct.left, conjunct.right
                if isinstance(left, Col) and isinstance(right, Col):
                    classes.union((left.alias, left.attr), (right.alias, right.attr))
                elif isinstance(left, Col) and isinstance(right, Const):
                    learn((left.alias, left.attr), right.value)
                elif isinstance(right, Col) and isinstance(left, Const):
                    learn((right.alias, right.attr), left.value)
            else:
                if any(isinstance(c, Col) for c in conjunct.columns()):
                    raise UpdateRejectedError(
                        f"view {view.name} has a non-equality condition; "
                        "insertion translation supports equality SPJ views"
                    )
        # Known values from the target's visible columns.
        visible = list(target.parent_params) + list(target.child_sem)
        for (name, col), value in zip(query.project, visible):
            learn((col.alias, col.attr), value)

        # One template per base occurrence.
        row_cells: dict[str, list] = {}
        for relation, alias in query.tables:
            schema = db.schema(relation)
            cells: list = []
            for attr in schema.attribute_names:
                root = classes.find((alias, attr))
                if root in known:
                    cells.append(known[root])
                else:
                    cells.append(root)  # placeholder, resolved below
            row_cells[alias] = cells

        # Determine keys; reject if a key cell is unknown.
        alias_keys: dict[str, tuple] = {}
        for relation, alias in query.tables:
            schema = db.schema(relation)
            key_values = []
            for attr in schema.key:
                value = row_cells[alias][schema.index_of(attr)]
                if isinstance(value, tuple) and len(value) == 2 and isinstance(
                    value[0], str
                ):
                    raise UpdateRejectedError(
                        f"cannot determine key attribute {relation}.{attr} "
                        f"for a target edge of {view.name}"
                    )
                key_values.append(value)
            alias_keys[alias] = tuple(key_values)

        # Replace unknown placeholders by canonical variables; merge with
        # existing rows; record the conditions as assertions.
        alias_values: dict[str, tuple] = {}
        placeholder_var: dict = {}
        for relation, alias in query.tables:
            schema = db.schema(relation)
            key = alias_keys[alias]
            existing = db.table(relation).get(key)
            values: list = []
            for index, attr in enumerate(schema.attribute_names):
                cell = row_cells[alias][index]
                if not _is_placeholder(cell):
                    values.append(cell)
                    continue
                if existing is not None:
                    # Fill from the stored row (B_i case); remember the
                    # binding so equalities to this class still apply.
                    value = existing[index]
                    values.append(value)
                    root = cell
                    if root in placeholder_var:
                        result = make_atom(placeholder_var[root], value)
                        if result is False:
                            raise UpdateRejectedError(
                                f"existing tuple {relation}{key} conflicts "
                                f"with a target edge of {view.name}"
                            )
                        if result is not True:
                            assertions.append(result)
                    else:
                        placeholder_var[root] = value
                    continue
                root = cell
                var = SymVar(
                    relation, key, attr, schema.attribute(attr).type
                )
                bound = placeholder_var.get(root)
                if bound is None:
                    placeholder_var[root] = var
                else:
                    result = make_atom(bound, var)
                    if result is False:
                        raise UpdateRejectedError(
                            f"conflicting bindings for {var} in {view.name}"
                        )
                    if result is not True:
                        assertions.append(result)
                values.append(var)
            if existing is not None:
                # Concrete cells must agree with the stored row.
                for index, cell in enumerate(values):
                    if not isinstance(cell, SymVar) and cell != existing[index]:
                        raise UpdateRejectedError(
                            f"target edge of {view.name} requires "
                            f"{relation}{key} to hold {cell!r} but it holds "
                            f"{existing[index]!r}"
                        )
                values = list(existing)
            alias_values[alias] = tuple(values)
            tpl_key = (relation, key)
            template = Template(
                relation, key, tuple(values), is_new=existing is None
            )
            prior = templates.get(tpl_key)
            if prior is None:
                templates[tpl_key] = template
            else:
                merged, extra = _merge_templates(prior, template)
                templates[tpl_key] = merged
                assertions.extend(extra)
                alias_values[alias] = merged.values

        # Symbolic full view row of the target.
        target.row = tuple(
            alias_values[col.alias][
                db.schema(query.relation_of(col.alias)).index_of(col.attr)
            ]
            for _, col in query.project
        )
    return templates, assertions


def _is_placeholder(cell) -> bool:
    """Row cells start as union-find roots ((alias, attr) tuples)."""
    return (
        isinstance(cell, tuple)
        and len(cell) == 2
        and isinstance(cell[0], str)
        and isinstance(cell[1], str)
    )


def _is_placeholder(cell) -> bool:
    """Row cells start as union-find roots ((alias, attr) tuples)."""
    return (
        isinstance(cell, tuple)
        and len(cell) == 2
        and isinstance(cell[0], str)
        and isinstance(cell[1], str)
    )
