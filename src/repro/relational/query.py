"""Select-project-join (SPJ) queries and their evaluation.

The paper's relational layer is built entirely from SPJ queries: the ATG
rules that drive publishing, and the edge-view definitions ``Q_edge_A_B``
that the view-update translation reasons over (Sections 2.3 and 4).  This
module provides:

- :class:`SPJQuery` — a named query over a list of table occurrences
  (relation, alias), a selection predicate and a projection list; its
  condition is analysed once, at construction (``equalities``,
  ``conjunct_aliases``);
- one join, planned once per *shape* of ``fixed`` (its columns, not
  its values) and per schemas of the tables: bind next the first
  unbound alias that an equality ties to a value of the call (a
  :class:`Param`, a ``fixed`` column) or to a cell of a bound alias,
  else the first tied to a constant — one :meth:`Table.lookup` probe per
  partial assignment (one :meth:`Table.get` when the probe binds the
  whole primary key) — and check each conjunct the moment its aliases
  are bound.  A table is iterated whole only when no equality reaches
  any unbound alias, i.e. for a genuine cross product.  The plan
  resolves every column to a position and compiles every conjunct to a
  closure, so a call only binds values (a prepared statement);
- *provenance-tracking* evaluation: for every output row, the base row
  each alias contributed.  The deletable sources ``Sr(Q, t)`` of
  Algorithm delete (Fig. 9) are read directly off this provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
        self._relations = tuple(rel for rel, _ in tables)
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
        # The same, with the index of the conjunct each comes from.
        self._probes: dict[str, list[tuple[str, Term, int]]] = {a: [] for a in aliases}
        for index, (conjunct, needs) in enumerate(self.conjunct_aliases):
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
                        self._probes[this.alias].append((this.attr, other, index))
        # (fixed shape, schemas) -> plan; see evaluate.
        self._plans: dict[tuple, _Plan] = {}

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

        The join is planned once per *shape* of ``fixed`` (its columns,
        not its values) and per schemas of the tables; a call binds the
        values and runs the plan.
        """
        bindings = bindings or {}
        if self._params:
            missing = self._params - bindings.keys()
            if missing:
                raise QueryError(
                    f"unbound query parameter(s) {sorted(missing)} "
                    f"in query {self.name!r}"
                )
        pairs = list(fixed)
        shape = tuple([(col.alias, col.attr) for col, _ in pairs])
        tables = [db.table(relation) for relation in self._relations]
        key = (shape, tuple([table.schema for table in tables]))
        plan = self._plans.get(key)
        if plan is None:  # published whole, with one assignment
            plan = self._plans[key] = self._compile(*key)
        slots = [value for _, value in pairs]
        slots += [bindings[name] for name in plan.params]
        return plan.run(tables, slots, with_derivations)

    def _compile(
        self, shape: tuple[tuple[str, str], ...], schemas: tuple[RelationSchema, ...]
    ) -> _Plan:
        """Plan the join for one ``fixed`` shape over ``schemas``.

        The alias order is the module docstring's: a point probe (a value
        of the call or a bound cell) first, then a probe on the query's
        own constants only (``c6 = 1`` selects a category, so it waits),
        then a cross product.  Every name is resolved here, so a
        misspelt column raises before any row is read.
        """
        position = {
            alias: schema.index_of for (_, alias), schema in zip(self.tables, schemas)
        }
        given: dict[str, list[tuple[str, object, None]]] = {}
        for slot, (alias, attr) in enumerate(shape):
            if alias not in position:
                raise QueryError(
                    f"fixed column {alias}.{attr} names an unknown alias "
                    f"in query {self.name!r}"
                )
            given.setdefault(alias, []).append((attr, slot, None))
        params = tuple(sorted(self._params))
        consts: list = []

        def slot_of(term: Param | Const) -> int:
            if isinstance(term, Param):
                return len(shape) + params.index(term.name)
            consts.append(term.value)
            return len(shape) + len(params) + len(consts) - 1

        step_of: dict[str, int] = {}

        def getter(term: Term) -> Callable[[tuple, list], object]:
            if isinstance(term, Col):
                step, at = step_of[term.alias], position[term.alias](term.attr)
                return lambda bound, slots: bound[step][at]
            if isinstance(term, Param):
                slot = slot_of(term)
                return lambda bound, slots: slots[slot]
            value = term.value
            return lambda bound, slots: value

        unbound = list(self.aliases)

        def probe(alias: str) -> tuple[int, str, list]:
            terms = given.get(alias, []) + [
                (attr, other, index)
                for attr, other, index in self._probes[alias]
                if not (isinstance(other, Col) and other.alias in unbound)
            ]
            point = alias in given or any(not isinstance(o, Const) for _, o, _ in terms)
            return (0 if point else 1 if terms else 2), alias, terms

        passes = [
            _compile_predicate(pred, getter)
            for pred, needs in self.conjunct_aliases
            if not needs
        ]
        steps: list[_Step] = []
        while unbound:
            _, alias, terms = min(map(probe, unbound), key=lambda ranked: ranked[0])
            sources = []
            for attr, other, _ in terms:
                position[alias](attr)  # validates
                if isinstance(other, int):  # a fixed slot
                    sources.append((-1, other))
                elif isinstance(other, Col):
                    sources.append((step_of[other.alias], position[other.alias](other.attr)))
                else:
                    sources.append((-1, slot_of(other)))
            attrs = tuple(attr for attr, _, _ in terms)
            # A probe that binds the whole primary key reads one row.
            by_key = None
            schema = schemas[self.aliases.index(alias)]
            if set(schema.key) <= set(attrs):
                first = [attrs.index(attr) for attr in schema.key]
                by_key = (
                    tuple(sources[i] for i in first),
                    tuple(
                        (schema.index_of(attr), source)
                        for i, (attr, source) in enumerate(zip(attrs, sources))
                        if i not in first
                    ),
                )
            unbound.remove(alias)
            step_of[alias] = len(steps)
            # An equality a probe enforces needs no second test.
            probed = {index for _, _, index in terms}
            checks = [
                _compile_predicate(pred, getter)
                for index, (pred, needs) in enumerate(self.conjunct_aliases)
                if alias in needs and needs.isdisjoint(unbound) and index not in probed
            ]
            steps.append(
                _Step(
                    self.aliases.index(alias),
                    attrs or None,
                    tuple(sources),
                    by_key,
                    checks[0] if len(checks) == 1 else _all_of(checks) if checks else None,
                )
            )
        project = tuple(
            (step_of[col.alias], position[col.alias](col.attr)) for _, col in self.project
        )
        return _Plan(params, consts, passes, steps, project, tuple(step_of))


class _Step(NamedTuple):
    """One alias of a plan: how to find its rows, then what to test."""

    table: int
    """Index of the alias's table in the query's ``tables``."""
    attrs: tuple[str, ...] | None
    """Probe attributes; ``None`` for a cross product."""
    sources: tuple[tuple[int, int], ...]
    """Per probe attribute, ``(step, position)`` of a bound row's cell, or
    ``(-1, slot)`` of a value the call binds."""
    by_key: tuple[tuple, tuple] | None
    """When the probe binds the whole primary key: the key's sources, and
    ``(position, source)`` of every other probe attribute."""
    check: Callable[[tuple, list], bool] | None
    """The conjuncts this step completes that no probe enforces."""


class _Plan:
    """A compiled join: run over tuples of rows, one per step so far."""

    def __init__(self, params, consts, passes, steps, project, order):
        self.params: tuple[str, ...] = params
        self.consts = consts
        self.passes = passes
        self.steps: tuple[_Step, ...] = tuple(steps)
        self.project: tuple[tuple[int, int], ...] = project
        self.order: tuple[str, ...] = order

    def run(self, tables: list, slots: list, with_derivations: bool) -> QueryResult:
        """``slots``: the fixed values, then the parameters' values."""
        result = QueryResult()
        slots += self.consts
        # Column-free conjuncts are decided before any row is read.
        if not all(check((), slots) for check in self.passes):
            return result
        partials: list[tuple] = [()]
        for step in self.steps:
            table = tables[step.table]
            if step.attrs is None:  # no equality reaches it: a cross product
                rows = list(table.rows())
                partials = [bound + (row,) for bound in partials for row in rows]
            elif step.by_key is not None:  # at most one row per partial result
                key, rest = step.by_key
                extended = []
                for bound in partials:
                    row = table.get(
                        tuple([slots[at] if i < 0 else bound[i][at] for i, at in key])
                    )
                    if row is not None and all(
                        row[position] == (slots[at] if i < 0 else bound[i][at])
                        for position, (i, at) in rest
                    ):
                        extended.append(bound + (row,))
                partials = extended
            else:  # one probe per partial result
                attrs, sources = step.attrs, step.sources
                partials = [
                    bound + (row,)
                    for bound in partials
                    for row in table.lookup(
                        attrs,
                        [slots[at] if i < 0 else bound[i][at] for i, at in sources],
                    )
                ]
            if step.check is not None:
                check = step.check
                partials = [bound for bound in partials if check(bound, slots)]
            if not partials:
                return result
        derivations = result.derivations
        for bound in partials:
            out = tuple([bound[i][at] for i, at in self.project])
            found = derivations.get(out)
            if found is None:
                result.rows.append(out)
                found = derivations[out] = []
            if with_derivations:
                found.append(dict(zip(self.order, bound)))
        return result


def _compile_predicate(
    pred: Predicate, getter: Callable[[Term], Callable[[tuple, list], object]]
) -> Callable[[tuple, list], bool]:
    """A predicate as a closure over ``(bound rows, slots)``."""
    if isinstance(pred, _Comparison):
        left, right, op = getter(pred.left), getter(pred.right), pred.op

        def compare(bound: tuple, slots: list) -> bool:
            try:
                return op(left(bound, slots), right(bound, slots))
            except TypeError:
                return False

        return compare
    if isinstance(pred, And):
        return _all_of([_compile_predicate(part, getter) for part in pred.parts])
    if isinstance(pred, Or):
        parts = [_compile_predicate(part, getter) for part in pred.parts]
        return lambda bound, slots: any(part(bound, slots) for part in parts)
    if isinstance(pred, Not):
        part = _compile_predicate(pred.part, getter)
        return lambda bound, slots: not part(bound, slots)
    raise QueryError(f"cannot evaluate predicate {pred!r}")


def _all_of(parts: list) -> Callable[[tuple, list], bool]:
    return lambda bound, slots: all(part(bound, slots) for part in parts)


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
