"""Select-project-join (SPJ) queries and their evaluation.

The paper's relational layer is built entirely from SPJ queries: the ATG
rules that drive publishing, and the edge-view definitions ``Q_edge_A_B``
that the view-update translation reasons over (Sections 2.3 and 4).  This
module provides:

- :class:`SPJQuery` — a named query over a list of table occurrences
  (relation, alias), a selection predicate and a projection list; its
  condition is analysed once, at construction (``equalities``,
  ``conjunct_aliases``);
- one join: bind next the first unbound alias that an equality ties to
  a value of the call (a :class:`Param`, a ``fixed`` column) or to a cell
  of a bound alias, else the first tied to a constant — one
  :meth:`Table.lookup` probe per partial assignment — and check each
  conjunct the moment its aliases are bound.  A table is iterated whole
  only when no equality reaches any unbound alias, i.e. for a genuine
  cross product: under this rule every other alias has a probe;
- *provenance-tracking* evaluation: for every output row, the base row
  each alias contributed.  The deletable sources ``Sr(Q, t)`` of
  Algorithm delete (Fig. 9) are read directly off this provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
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
    Term,
    _Comparison,
)
from repro.relational.database import Database

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

    Attributes
    ----------
    equalities:
        Read-only.  Per alias, the ``(attr, other term)`` of every
        top-level equality on one of its columns, in conjunct order:
        what the alias can be probed on once ``other`` is known.
    conjunct_aliases:
        Read-only.  Every top-level conjunct of ``where``, in order, with
        the set of aliases that must be bound before it can be decided
        (empty for a column-free conjunct).
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
        self.aliases: tuple[str, ...] = tuple(aliases)
        self.project: tuple[tuple[str, Col], ...] = tuple(project)
        self.where = where
        self._alias_to_relation = {alias: rel for rel, alias in tables}
        for _, col in self.project:
            if col.alias not in self._alias_to_relation:
                raise QueryError(
                    f"projection references unknown alias {col.alias!r} "
                    f"in query {name!r}"
                )

        # The condition is immutable, so is what the join reads off it.
        self._params = frozenset(_param_names(where))
        self.conjunct_aliases: tuple[tuple[Predicate, frozenset[str]], ...] = tuple(
            (conjunct, frozenset(col.alias for col in conjunct.columns()))
            for conjunct in where.conjuncts()
        )
        self.equalities: dict[str, list[tuple[str, Term]]] = {a: [] for a in aliases}
        for conjunct, needs in self.conjunct_aliases:
            if not needs <= self.equalities.keys():
                raise QueryError(
                    f"selection {conjunct} references an unknown alias "
                    f"in query {name!r}"
                )
            if isinstance(conjunct, Eq):
                left, right = conjunct.left, conjunct.right
                for this, other in ((left, right), (right, left)):
                    if isinstance(this, Col):
                        self.equalities[this.alias].append((this.attr, other))

    # -- introspection ---------------------------------------------------------

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
        return set(self._params)

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        db: Database,
        bindings: Mapping[str, object] | None = None,
        *,
        fixed: Iterable[tuple[Col, object]] = (),
        with_derivations: bool = False,
    ) -> QueryResult:
        """Evaluate the query against ``db``.

        ``bindings`` supplies values for :class:`Param` terms.  ``fixed``
        narrows the result to the rows whose ``(Col, value)`` columns
        hold those values — ``where AND col = value ...`` without
        building that query; like a parameter's, each value is one more
        probe on its alias.  When ``with_derivations`` is set the result
        carries, for every output row, each base-row combination that
        derives it.
        """
        bindings = bindings or {}
        missing = self._params - bindings.keys()
        if missing:
            raise QueryError(
                f"unbound query parameter(s) {sorted(missing)} in query {self.name!r}"
            )
        given: dict[str, list[tuple[str, Term]]] = {}
        for col, value in fixed:
            if col.alias not in self.equalities:
                raise QueryError(
                    f"fixed column {col} names an unknown alias in query {self.name!r}"
                )
            given.setdefault(col.alias, []).append((col.attr, Const(value)))
        schemas = {alias: db.schema(rel) for rel, alias in self.tables}

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
        if not all(holds(p, {}) for p, needs in self.conjunct_aliases if not needs):
            return result
        assignments: list[Assignment] = [{}]
        unbound = list(self.aliases)

        def probe(alias: str) -> tuple[int, str, list[tuple[str, Term]]]:
            """(rank, alias, the equalities it can be probed on now).

            A value of this call or a bound cell is a point probe: rank 0.
            The query's own constants select a category (``c6 = 1``: every
            top-level node), so an alias tied to nothing else waits: 1.
            """
            terms = given.get(alias, []) + [
                (attr, other)
                for attr, other in self.equalities[alias]
                if not (isinstance(other, Col) and other.alias in unbound)
            ]
            point = alias in given or any(not isinstance(o, Const) for _, o in terms)
            return (0 if point else 1 if terms else 2), alias, terms

        while unbound and assignments:
            _, alias, terms = min(map(probe, unbound), key=lambda ranked: ranked[0])
            table = db.table(self.relation_of(alias))
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
                for pred, needs in self.conjunct_aliases
                if alias in needs and needs.isdisjoint(unbound)
            ]
            extended = (
                {**assignment, alias: row}
                for assignment, rows in zip(assignments, found)
                for row in rows
            )
            assignments = [a for a in extended if all(holds(p, a) for p in decided)]

        for assignment in assignments:
            out = tuple(value_of(col, assignment) for _, col in self.project)
            if out not in result.derivations:
                result.rows.append(out)
                result.derivations[out] = []
            if with_derivations:
                result.derivations[out].append(assignment)
        return result


def _param_names(pred: Predicate) -> Iterator[str]:
    if isinstance(pred, _Comparison):
        for term in (pred.left, pred.right):
            if isinstance(term, Param):
                yield term.name
    elif isinstance(pred, (And, Or)):
        for part in pred.parts:
            yield from _param_names(part)
    elif isinstance(pred, Not):
        yield from _param_names(pred.part)
