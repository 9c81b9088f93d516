"""Select-project-join (SPJ) queries and their evaluation.

The paper's relational layer is built entirely from SPJ queries: the ATG
rules that drive publishing, and the edge-view definitions ``Q_edge_A_B``
that the view-update translation reasons over (Sections 2.3 and 4).  This
module provides:

- :class:`SPJQuery` — a named query over a list of table occurrences
  (relation, alias), a selection predicate and a projection list;
- an evaluator with greedy equi-join planning (every equality is a
  :meth:`Table.lookup` probe; residual predicate afterwards);
- *provenance-tracking* evaluation: for every output row, the base row
  each alias contributed.  The deletable sources ``Sr(Q, t)`` of
  Algorithm delete (Fig. 9) are read directly off this provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.relational.conditions import (
    And,
    Col,
    Const,
    Eq,
    Not,
    Or,
    Param,
    Predicate,
    TRUE,
    _Comparison,
)
from repro.relational.database import Database
from repro.relational.schema import RelationSchema

Assignment = dict[str, tuple]
"""A partial join result: alias → base row."""


@dataclass
class QueryResult:
    """Result of evaluating an :class:`SPJQuery`.

    Attributes
    ----------
    rows:
        Distinct output rows, in first-derivation order (set semantics).
    derivations:
        For each output row, every combination of base rows producing it:
        a list of alias → base-row mappings.
    """

    rows: list[tuple] = field(default_factory=list)
    derivations: dict[tuple, list[Assignment]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self.derivations


class SPJQuery:
    """A named SPJ query.

    Parameters
    ----------
    name:
        Query name (used in diagnostics and SQL generation).
    tables:
        Table occurrences as ``(relation_name, alias)`` pairs.  The same
        relation may occur several times under different aliases
        (renaming).
    project:
        Output columns as ``(output_name, Col)`` pairs.
    where:
        Selection predicate; defaults to ``TRUE``.
    """

    def __init__(
        self,
        name: str,
        tables: Sequence[tuple[str, str]],
        project: Sequence[tuple[str, Col]],
        where: Predicate = TRUE,
    ):
        if not tables:
            raise QueryError(f"query {name!r} must reference at least one table")
        aliases = [alias for _, alias in tables]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases in query {name!r}")
        if not project:
            raise QueryError(f"query {name!r} must project at least one column")
        out_names = [n for n, _ in project]
        if len(set(out_names)) != len(out_names):
            raise QueryError(f"duplicate output column names in query {name!r}")

        self.name = name
        self.tables: tuple[tuple[str, str], ...] = tuple(tables)
        self.project: tuple[tuple[str, Col], ...] = tuple(project)
        self.where = where
        self._alias_to_relation = {alias: rel for rel, alias in tables}
        for _, col in self.project:
            if col.alias not in self._alias_to_relation:
                raise QueryError(
                    f"projection references unknown alias {col.alias!r} "
                    f"in query {name!r}"
                )

    # -- introspection ---------------------------------------------------------

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(alias for _, alias in self.tables)

    def relation_of(self, alias: str) -> str:
        try:
            return self._alias_to_relation[alias]
        except KeyError:
            raise QueryError(f"unknown alias {alias!r} in query {self.name!r}") from None

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.project)

    def output_index(self, name: str) -> int:
        for i, (out_name, _) in enumerate(self.project):
            if out_name == name:
                return i
        raise QueryError(f"query {self.name!r} has no output column {name!r}")

    def params(self) -> set[str]:
        """Names of all :class:`Param` terms in the selection predicate."""
        names: set[str] = set()

        def walk(pred: Predicate) -> None:
            if isinstance(pred, _Comparison):
                for term in (pred.left, pred.right):
                    if isinstance(term, Param):
                        names.add(term.name)
            elif isinstance(pred, (And, Or)):
                for part in pred.parts:
                    walk(part)
            elif isinstance(pred, Not):
                walk(pred.part)

        walk(self.where)
        return names

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        db: Database,
        bindings: Mapping[str, object] | None = None,
        *,
        with_derivations: bool = False,
    ) -> QueryResult:
        """Evaluate the query against ``db``.

        ``bindings`` supplies values for :class:`Param` terms.  When
        ``with_derivations`` is set the result carries, for every output
        row, each base-row combination that derives it.
        """
        where = self.where.bind(bindings or {}) if self.params() else self.where
        alias_filters, join_edges, residual, always_false = _classify(
            where, self.aliases
        )
        if always_false:
            return QueryResult()

        # An alias without filters of its own ranges over its whole
        # table: ``None``, so the join probes it instead of listing it.
        candidates = {
            alias: self._candidate_rows(db, alias, alias_filters[alias])
            if alias in alias_filters
            else None
            for alias in self.aliases
        }

        assignments = _join(self, db, candidates, join_edges)

        result = QueryResult()
        for assignment in assignments:
            if residual and not all(
                _eval_pred(pred, assignment, self, db) for pred in residual
            ):
                continue
            out = tuple(
                _column_value(col, assignment, self, db) for _, col in self.project
            )
            if out not in result.derivations:
                result.rows.append(out)
                result.derivations[out] = []
            if with_derivations:
                result.derivations[out].append(dict(assignment))
        return result

    def _candidate_rows(
        self, db: Database, alias: str, filters: list[_Comparison]
    ) -> list[tuple]:
        table = db.table(self.relation_of(alias))
        eq_attrs: list[str] = []
        eq_values: list[object] = []
        rest: list[_Comparison] = []
        for pred in filters:
            col, const = _as_col_const(pred)
            if isinstance(pred, Eq) and col is not None:
                eq_attrs.append(col.attr)
                eq_values.append(const.value)
            else:
                rest.append(pred)
        if eq_attrs:
            rows = table.lookup(eq_attrs, eq_values)
        else:  # non-equality filters only: nothing to probe
            rows = list(table.rows())
        if rest:
            rows = [row for row in rows if _row_satisfies(rest, row, table.schema)]
        return rows


# ---------------------------------------------------------------------------
# Predicate classification and join planning
# ---------------------------------------------------------------------------


def _as_col_const(pred: _Comparison) -> tuple[Col | None, Const | None]:
    """Normalize a comparison to (Col, Const) when it has that shape."""
    if isinstance(pred.left, Col) and isinstance(pred.right, Const):
        return pred.left, pred.right
    if isinstance(pred.left, Const) and isinstance(pred.right, Col):
        if isinstance(pred, Eq):
            return pred.right, pred.left
    return None, None


def _classify(
    where: Predicate, aliases: Sequence[str]
) -> tuple[
    dict[str, list[_Comparison]],
    list[tuple[Col, Col]],
    list[Predicate],
    bool,
]:
    """Split a predicate into per-alias filters, equi-join edges, residual.

    The fourth component is True when a constant conjunct is false (the
    whole query is empty).
    """
    alias_filters: dict[str, list[_Comparison]] = {}
    join_edges: list[tuple[Col, Col]] = []
    residual: list[Predicate] = []
    always_false = False
    for conjunct in where.conjuncts():
        if isinstance(conjunct, _Comparison):
            left, right = conjunct.left, conjunct.right
            if isinstance(left, Param) or isinstance(right, Param):
                raise QueryError("unbound parameter at evaluation time")
            if isinstance(left, Col) and isinstance(right, Col):
                if left.alias == right.alias:
                    alias_filters.setdefault(left.alias, []).append(conjunct)
                elif isinstance(conjunct, Eq):
                    join_edges.append((left, right))
                else:
                    residual.append(conjunct)
                continue
            col, _ = _as_col_const(conjunct)
            if col is None and isinstance(left, Col):
                col = left
            if col is None and isinstance(right, Col):
                col = right
            if col is not None:
                alias_filters.setdefault(col.alias, []).append(conjunct)
            elif isinstance(left, Const) and isinstance(right, Const):
                if not conjunct.evaluate(left.value, right.value):
                    always_false = True
            continue
        residual.append(conjunct)
    return alias_filters, join_edges, residual, always_false


def _row_satisfies(
    preds: Sequence[_Comparison], row: tuple, schema: RelationSchema
) -> bool:
    for pred in preds:
        left = _term_on_row(pred.left, row, schema)
        right = _term_on_row(pred.right, row, schema)
        try:
            if not pred.evaluate(left, right):
                return False
        except TypeError:
            return False
    return True


def _term_on_row(term, row: tuple, schema: RelationSchema):
    if isinstance(term, Col):
        if term.attr not in schema:
            return _NEVER
        return row[schema.index_of(term.attr)]
    return term.value


_NEVER = object()


def _join(
    query: SPJQuery,
    db: Database,
    candidates: dict[str, list[tuple] | None],
    join_edges: list[tuple[Col, Col]],
) -> list[Assignment]:
    """Greedy equi-join over the join edges.

    Starts from the smallest candidate set and repeatedly joins in the
    alias with the most join edges into the bound set.  ``None``
    candidates mean the alias's whole table: it is never listed, each
    assignment probes it through :meth:`Table.lookup` on the join
    columns; an alias already filtered down to a candidate list is
    hashed on them instead.  Both hand rows back in ``rows()`` order.
    Only a disconnected alias (a cross product) is iterated whole.
    """
    aliases = list(query.aliases)
    if not aliases:
        return []

    def table_of(alias: str):
        return db.table(query.relation_of(alias))

    def size(alias: str) -> int:
        rows = candidates[alias]
        return len(table_of(alias)) if rows is None else len(rows)

    def rows_of(alias: str) -> Iterable[tuple]:
        rows = candidates[alias]
        return table_of(alias).rows() if rows is None else rows

    remaining = set(aliases)
    start = min(remaining, key=lambda a: (size(a), aliases.index(a)))
    remaining.discard(start)
    assignments: list[Assignment] = [{start: row} for row in rows_of(start)]
    bound = {start}

    while remaining:
        # Pick the alias with the most edges into the bound set.
        def edge_count(alias: str) -> int:
            return sum(
                1
                for l, r in join_edges
                if (l.alias == alias and r.alias in bound)
                or (r.alias == alias and l.alias in bound)
            )

        next_alias = max(remaining, key=lambda a: (edge_count(a), -size(a)))
        edges = [
            (l, r) if r.alias == next_alias else (r, l)
            for l, r in join_edges
            if (l.alias == next_alias and r.alias in bound)
            or (r.alias == next_alias and l.alias in bound)
        ]
        # edges: list of (bound_col, new_col)
        if edges:
            table = table_of(next_alias)
            attrs = [col.attr for _, col in edges]
            if candidates[next_alias] is None:
                matches = partial(table.lookup, attrs)
            else:
                new_idx = [table.schema.index_of(attr) for attr in attrs]
                hashed: dict[tuple, list[tuple]] = {}
                for row in candidates[next_alias]:
                    hashed.setdefault(
                        tuple(row[i] for i in new_idx), []
                    ).append(row)
                matches = hashed.get
            out: list[Assignment] = []
            for assignment in assignments:
                probe = tuple(
                    _column_value(col, assignment, query, db) for col, _ in edges
                )
                for row in matches(probe) or ():
                    extended = dict(assignment)
                    extended[next_alias] = row
                    out.append(extended)
            assignments = out
        else:
            new_rows = list(rows_of(next_alias))
            assignments = [
                {**assignment, next_alias: row}
                for assignment in assignments
                for row in new_rows
            ]
        bound.add(next_alias)
        remaining.discard(next_alias)
        if not assignments:
            return []
    return assignments


def _column_value(
    col: Col, assignment: Assignment, query: SPJQuery, db: Database
) -> object:
    row = assignment[col.alias]
    schema = db.schema(query.relation_of(col.alias))
    return row[schema.index_of(col.attr)]


def _eval_pred(
    pred: Predicate, assignment: Assignment, query: SPJQuery, db: Database
) -> bool:
    if isinstance(pred, _Comparison):
        left = _term_value(pred.left, assignment, query, db)
        right = _term_value(pred.right, assignment, query, db)
        try:
            return pred.evaluate(left, right)
        except TypeError:
            return False
    if isinstance(pred, And):
        return all(_eval_pred(p, assignment, query, db) for p in pred.parts)
    if isinstance(pred, Or):
        return any(_eval_pred(p, assignment, query, db) for p in pred.parts)
    if isinstance(pred, Not):
        return not _eval_pred(pred.part, assignment, query, db)
    raise QueryError(f"cannot evaluate predicate {pred!r}")


def _term_value(term, assignment: Assignment, query: SPJQuery, db: Database):
    if isinstance(term, Col):
        return _column_value(term, assignment, query, db)
    if isinstance(term, Const):
        return term.value
    raise QueryError(f"unbound term {term!r} at evaluation time")
