"""The per-call code the compiled plans replaced, kept as test references.

- :func:`interpret` is ``SPJQuery.evaluate`` as an interpreter: it picks
  the alias order, resolves every column by name and dispatches every
  conjunct on each call.  The compiled plan must give the same rows in
  the same order and the same derivations.
- :func:`translate_insertions` is Algorithm insert with every stage run
  per call, as it ran before each insertion shape became one prepared
  program: :func:`resolve_targets`, :func:`build_templates` and
  :func:`sweep_side_effects` are the resolve step and stages 1-3 (an
  SPJ run, ``matching_rows``, tells whether a target is derivable, the
  equality closure of the view's condition is rebuilt for every target,
  and the sweep picks each next alias and its probe per partial
  assignment, copying it per candidate), then the product's
  equality-domain ``_solve`` and :func:`decode_classes` (stage 5: every
  unknown's class value or a fresh value, minted in ``SymVar.order``).
  :func:`reference_insert` swaps it in for the product's
  ``translate_insertions``; the programs must give the same
  ``InsertionPlan`` (ΔR with its fresh values, templates, target rows,
  derivations) and raise the same rejections, and one target's program
  the new templates and target row :func:`build_templates` gives.
- :func:`solve` and :func:`decode_valuation` are stages 4-5 as the
  paper's finite-domain encoding: every unknown of an atom gets a
  domain (:func:`build_domains`: BOOL its two values, any other type the
  constants of its ``var = var`` component plus one :class:`FreshToken`
  per component variable), the clauses are encoded whole and DPLL (or
  WalkSAT) decides them, and only a fresh token decodes to a fresh
  value.  :func:`reference_solve` runs :func:`translate_insertions` with
  them in place of ``_solve`` and :func:`decode_classes`.  The product
  must accept and reject the same insertions and give the same ΔR.
- :func:`subtree_nodes` and :func:`subtree_nodes_from` are the
  publisher's old walk of the whole ``ST(A, t)``, shared part included,
  that the insert plan's cycle check read (``attach ∈ all_nodes``).  The
  check on ``closure(subtree.frontier)`` must accept and reject the same
  inserts.
- :func:`detect_side_effects` is the side-effect walk without its stop
  at a ``//`` level whose region is ``L``: it climbs every ancestor
  there.  The evaluator's walk must give the same ``S``.
- :func:`retain_below` is Δ(M,L)delete's sweep as one
  :func:`retain_ancestors` call per node of ``LR``, each with a list of
  the surviving parents.  ``ReachabilityIndex.retain_below`` must leave
  the same rows and condemn the same nodes, in the same order.
- :func:`swap` is ``TopoOrder.swap`` asking a set of ``desc(v)`` about
  every node of the segment ``L[u:v]``, instead of walking the store
  below ``v``.  The walk must give the same list, positions and moved
  count.
- :func:`sweep_filters` is §3.2's dynamic programming over ``L``: every
  filter sub-expression at every node, children before parents, into
  :class:`SweptValues` tables, ``//`` inside a filter included.  The
  evaluator's on-demand ``holds`` must give the same targets, ``Ep``,
  ``S`` and contexts; a subclass returns the sweep from
  ``DagXPathEvaluator._filter_values``.
- :func:`reference_triggers` and :func:`reference_meets` are a
  subscription's trigger summary as it was before its typed patterns
  were folded into keys: the patterns kept as a tuple and matched one by
  one against the event's edges of their type pair
  (:class:`ReferenceDigest`; every edge for a pattern that leaves a
  type open).  ``Triggers.meets`` must give the same answer on every
  summary and event.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
import itertools
from itertools import repeat
from typing import Iterable, Iterator
from unittest import mock

from repro.core.dag_eval import _DESCENDANT, _FILTER, _LABEL, _WILDCARD
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
from repro.relational.schema import AttrType
from repro.core import plan as plan_module
from repro.relview import insert as insert_module
from repro.relview.insert import (
    _UNBOUND,
    InsertionPlan,
    _fresh_value,
    _merge_templates,
    _TargetEdge,
    _UnionFind,
)
from repro.relview.symbolic import Derivation, Template
from repro.sat.atoms import Atom, AtomVC, SymVar, make_atom
from repro.sat.dpll import dpll_solve
from repro.sat.encode import encode_formula
from repro.sat.walksat import walksat_solve
from repro.subscribe.deps import Closure


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



def _false_conjunct(query):
    """The first column-free conjunct of ``query`` that is false, else
    ``None`` (decided as :func:`interpret` decides it)."""

    def holds(pred) -> bool:
        if isinstance(pred, _Comparison):
            try:
                return pred.evaluate(pred.left.value, pred.right.value)
            except TypeError:
                return False
        if isinstance(pred, And):
            return all(holds(part) for part in pred.parts)
        if isinstance(pred, Or):
            return any(holds(part) for part in pred.parts)
        return not holds(pred.part)  # Not

    for conjunct, needs in query.conjunct_aliases:
        if not needs and not holds(conjunct):
            return conjunct
    return None


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

        false = _false_conjunct(query)
        if false is not None:
            raise UpdateRejectedError(
                f"view {view.name} derives no edge: its condition {false} is false"
            )
        constants = []
        for conjunct in query.where.conjuncts():
            if isinstance(conjunct, Eq):
                left, right = conjunct.left, conjunct.right
                if isinstance(left, Col) and isinstance(right, Col):
                    classes.union((left.alias, left.attr), (right.alias, right.attr))
                elif isinstance(left, Col) and isinstance(right, Const):
                    constants.append(((left.alias, left.attr), right.value))
                elif isinstance(right, Col) and isinstance(left, Const):
                    constants.append(((right.alias, right.attr), left.value))
            else:
                if any(isinstance(c, Col) for c in conjunct.columns()):
                    raise UpdateRejectedError(
                        f"view {view.name} has a non-equality condition; "
                        "insertion translation supports equality SPJ views"
                    )
        # After every union: a constant fills its class's final root.
        for item, value in constants:
            learn(item, value)
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


def resolve_targets(registry, store, db, delta_v):
    """The ΔV insertions not derivable yet: one ``matching_rows`` SPJ
    run per distinct edge."""
    targets = []
    seen = set()
    for op in delta_v.insertions():
        if not registry.has_view(op.parent_type, op.child_type):
            continue  # projection edge: derived, no base backing needed
        view = registry.view(op.parent_type, op.child_type)
        parent_sem = store.sem_of(op.parent)
        signature = registry.atg.signature(op.parent_type)
        parent_params = tuple(
            parent_sem[signature.index(p)] for p in view.param_names
        )
        child_sem = store.sem_of(op.child)
        dedup = (view.name, parent_params, child_sem)
        if dedup in seen:
            continue
        seen.add(dedup)
        if view.matching_rows(db, parent_params, child_sem):
            continue  # already derivable: set semantics, nothing to insert
        targets.append(_TargetEdge(view, parent_params, child_sem))
    return targets


class _SweepLayout:
    """Where the sweep reads one view's cells, worked out per call:
    ``row`` per output column, ``checks[alias]`` each equality conjunct
    mentioning ``alias`` as ``(aliases it needs, left, right)``,
    ``probes[alias]`` each equality ``alias`` can be probed on as
    ``(attr, other)``; a term is ``(alias, position)`` or, for a
    constant, ``(None, value)``."""

    def __init__(self, view, db):
        query = view.query
        position = {
            alias: db.schema(relation).index_of for relation, alias in query.tables
        }

        def term(value):
            if isinstance(value, Col):
                return value.alias, position[value.alias](value.attr)
            if isinstance(value, Const):
                return None, value.value
            raise UpdateRejectedError(f"unsupported term {value!r} in insertion sweep")

        self.row = tuple(term(col) for _, col in query.project)
        self.checks = {alias: () for alias in query.aliases}
        for conjunct, needs in query.conjunct_aliases:
            if isinstance(conjunct, Eq):
                check = (needs, term(conjunct.left), term(conjunct.right))
                for alias in needs:
                    self.checks[alias] += (check,)
        self.probes = {
            alias: tuple(
                (attr, term(other))
                for attr, other in query.equalities[alias]
                if isinstance(other, (Col, Const))
            )
            for alias in query.aliases
        }


def sweep_side_effects(registry, db, templates):
    """Every symbolic derivation (of any view) using ≥1 new template."""
    new_by_relation = {}
    for template in templates.values():
        if template.is_new:
            new_by_relation.setdefault(template.relation, []).append(template)
    derivations = []
    for view in registry.views():
        if _false_conjunct(view.query) is not None:
            continue  # the view derives no edge
        if any(relation in new_by_relation for relation, _ in view.query.tables):
            layout = _SweepLayout(view, db)
            for seed_pos, (relation, alias) in enumerate(view.query.tables):
                for seed in new_by_relation.get(relation, ()):  # U at seed position
                    partial = {alias: seed.values}
                    atoms = _alias_atoms(layout, alias, partial)
                    if atoms is not None:
                        _extend(
                            view, db, layout, new_by_relation, seed_pos, partial,
                            atoms, derivations,
                        )
    return derivations


def _extend(view, db, layout, new_by_relation, seed_pos, partial, atoms, out):
    """Nested-loop extension of a partial symbolic assignment."""
    remaining = [
        (i, rel, alias)
        for i, (rel, alias) in enumerate(view.query.tables)
        if alias not in partial
    ]
    if not remaining:
        row = tuple([partial[alias][at] for alias, at in layout.row])
        out.append(Derivation(view.name, row, tuple(dict.fromkeys(atoms))))
        return
    # Bind next an alias some equality ties to a concrete bound cell (or
    # a constant); only a genuine cross product is left to declaration
    # order and a pass over its table.
    index, relation, alias = remaining[0]
    attrs = []
    values = []
    for entry in remaining:
        for attr, (source, at) in layout.probes[entry[2]]:
            if source is None:
                cell = at
            elif source in partial:
                cell = partial[source][at]
            else:
                continue
            if not isinstance(cell, SymVar):
                attrs.append(attr)
                values.append(cell)
        if attrs:
            index, relation, alias = entry
            break
    table = db.table(relation)
    candidates = table.lookup(attrs, values) if attrs else list(table.rows())
    if index > seed_pos:
        # Positions after the seed may also take new templates (U again).
        candidates.extend(
            template.values for template in new_by_relation.get(relation, ())
        )
    for cells in candidates:
        trial = dict(partial)
        trial[alias] = cells
        extra = _alias_atoms(layout, alias, trial)
        if extra is not None:
            _extend(
                view, db, layout, new_by_relation, seed_pos, trial,
                atoms + extra, out,
            )


def _alias_atoms(layout, alias, partial):
    """The atoms of the conditions that adding ``alias`` fully bound, in
    conjunct order; ``None`` when a concrete one fails."""
    atoms = []
    for needs, (left, at_left), (right, at_right) in layout.checks[alias]:
        if not needs <= partial.keys():
            continue
        result = make_atom(
            at_left if left is None else partial[left][at_left],
            at_right if right is None else partial[right][at_right],
        )
        if result is False:
            return None
        if result is not True:
            atoms.append(result)
    return atoms


def translate_insertions(
    registry, store, db, delta_v, fresh=None, *, solve=None, decode=None
):
    """Algorithm insert with every stage run per call: the reference the
    product's insertion programs are checked against.

    Stages 1-3 are the per-call code above; stage 4 is ``solve(units,
    side_effects, plan)`` (default: the product's equality-domain
    ``_solve``) and stage 5 ``decode(db, solved, new_templates,
    fresh)`` (default: :func:`decode_classes`).
    """
    solve = solve or insert_module._solve
    decode = decode or decode_classes
    plan = InsertionPlan()
    targets = resolve_targets(registry, store, db, delta_v)
    if not targets:
        return plan

    templates, assertions = build_templates(db, targets)
    plan.new_templates = [t for t in templates.values() if t.is_new]
    for target in targets:
        plan.target_rows.append((target.view.name, target.row))

    if not plan.new_templates:
        # Everything already present: targets must hold unconditionally.
        for atom in assertions:
            raise UpdateRejectedError(
                f"target requires condition {atom} but no new tuple can "
                "carry it"
            )
        return plan

    derivations = sweep_side_effects(registry, db, templates)
    plan.derivations_checked = len(derivations)

    target_rows = {(t.view.name, t.row) for t in targets}
    units = assertions  # and every atom of a target's derivation
    side_effects: list[Derivation] = []
    covered_targets: set[tuple[str, tuple]] = set()
    for derivation in derivations:
        key = (derivation.view_name, derivation.row)
        if key in target_rows:
            covered_targets.add(key)
            units.extend(derivation.atoms)
            continue
        if not derivation.atoms:
            raise UpdateRejectedError(
                f"insertion causes an unconditional side effect on view "
                f"{derivation.view_name}: row {derivation.row!r}"
            )
        side_effects.append(derivation)
    missing = target_rows - covered_targets
    if missing:
        raise UpdateRejectedError(
            f"targets {sorted(m[0] for m in missing)} are not derivable "
            "from the base data plus the new tuples"
        )

    solved = solve(units, side_effects, plan)
    if solved is None:
        raise UpdateRejectedError(
            f"no side-effect-free instantiation found (solver: {plan.solver})"
        )

    concrete = decode(
        db, solved, plan.new_templates,
        itertools.count(1) if fresh is None else fresh,
    )
    for template in plan.new_templates:
        plan.delta_r.insert(template.relation, template.instantiate(concrete))
    return plan


def decode_classes(db, classes, new_templates, fresh):
    """A value for every unknown of the new templates.

    A bound class gives its value; every other class gets one fresh
    value outside the active domain, shared by its members so that an
    asserted ``var = var`` equality holds.  Fresh values are minted in
    the unknowns' :attr:`~SymVar.order`.
    """
    unknowns = dict.fromkeys(v for t in new_templates for v in t.variables())
    concrete: dict[SymVar, object] = {}
    minted: dict[SymVar, object] = {}
    for var in sorted(unknowns, key=lambda v: v.order):
        root = classes.find(var)
        value = classes.value.get(root, _UNBOUND)
        if value is _UNBOUND:
            value = minted.get(root, _UNBOUND)
            if value is _UNBOUND:
                value = minted[root] = _fresh_value(db, var, fresh)
        concrete[var] = value
    return concrete


@contextmanager
def _translating(translate):
    """``translate`` in place of the product's ``translate_insertions``,
    for the updater and for callers that look it up on its module."""
    with mock.patch.object(plan_module, "translate_insertions", translate), \
            mock.patch.object(insert_module, "translate_insertions", translate):
        yield


@contextmanager
def reference_insert():
    """Run Algorithm insert as :func:`translate_insertions`, every stage
    per call, instead of the product's prepared insertion programs."""
    with _translating(translate_insertions):
        yield


@dataclass(frozen=True)
class FreshToken:
    """Placeholder for "any value distinct from all constants".

    The ``index``-th fresh value of the equality component whose first
    variable (in name order) is ``var``.  It compares equal to no
    constant, and is decoded to a concrete unused value at ΔR extraction
    time.
    """

    var: SymVar
    index: int = 0


def clauses_of(units, side_effects):
    """Algorithm insert's constraint as clauses of ``(atom, positive)``."""
    return [((atom, True),) for atom in units] + [
        tuple((atom, False) for atom in derivation.atoms)
        for derivation in side_effects
    ]


def solve(units, side_effects, solver, plan):
    """Encode and solve; return a valuation of the symbolic variables."""
    clauses = clauses_of(units, side_effects)
    if not clauses:
        plan.solver = "trivial"
        return {}
    cnf, decode = encode_formula(
        clauses, build_domains([atom for clause in clauses for atom, _ in clause])
    )
    plan.num_vars = cnf.num_vars
    plan.num_clauses = len(cnf)
    if solver == "dpll":
        assignment = dpll_solve(cnf)
    else:
        assignment = walksat_solve(cnf)
    plan.solver = solver
    return None if assignment is None else decode(assignment)


@contextmanager
def reference_solve(solver: str = "dpll"):
    """Run Algorithm insert as :func:`translate_insertions` with stages
    4-5 the paper's finite-domain encoding solved by ``solver``
    (``'dpll'`` or ``'walksat'``) instead of the equality-domain solve."""
    def translate(registry, store, db, delta_v, fresh=None):
        return translate_insertions(
            registry, store, db, delta_v, fresh,
            solve=lambda units, side_effects, plan: solve(
                units, side_effects, solver, plan
            ),
            decode=decode_valuation,
        )

    with _translating(translate):
        yield


def build_domains(atoms: list[Atom]) -> dict[SymVar, tuple]:
    """Finite abstraction: per-variable domains from the atom structure.

    The ``var = var`` atoms group the variables into components.  A BOOL
    variable ranges over its type; any other ranges over the constants
    its component is compared with plus ``len(component)`` fresh tokens,
    enough for every component variable to differ from every constant
    and from each other.
    """
    classes = _UnionFind()
    constants: dict[SymVar, set] = {}
    for atom in atoms:
        if isinstance(atom, AtomVC):
            constants.setdefault(atom.var, set()).add(atom.const)
        else:
            classes.union(atom.a, atom.b)
            constants.setdefault(atom.a, set())
            constants.setdefault(atom.b, set())
    components: dict[object, list[SymVar]] = {}
    for var in sorted(constants, key=lambda v: v.order):
        components.setdefault(classes.find(var), []).append(var)
    domains: dict[SymVar, tuple] = {}
    for component in components.values():
        shared = sorted(set().union(*map(constants.get, component)), key=repr)
        fresh = [FreshToken(component[0], i) for i in range(len(component))]
        values = (*shared, *fresh)
        for var in component:
            domains[var] = (False, True) if var.attr_type is AttrType.BOOL else values
    return domains


def decode_valuation(
    db, valuation: dict, new_templates: list[Template], fresh: Iterator[int]
) -> dict[SymVar, object]:
    """Turn fresh tokens into concrete values outside the active domain.

    Fresh tokens are shared within an equality component, so two
    variables assigned the *same* token must decode to the *same*
    concrete value — otherwise an asserted ``var = var`` equality would
    be silently broken.
    """
    concrete: dict[SymVar, object] = {}
    token_values: dict[FreshToken, object] = {}
    needed_vars = {v for t in new_templates for v in t.variables()}
    for var in sorted(needed_vars, key=lambda v: v.order):
        value = valuation.get(var)
        if value is None:
            value = _fresh_value(db, var, fresh)
        elif isinstance(value, FreshToken):
            if value not in token_values:
                token_values[value] = _fresh_value(db, var, fresh)
            value = token_values[value]
        concrete[var] = value
    return concrete


def subtree_nodes(store, root: int) -> tuple[set[int], int]:
    """Nodes and edge count of the DAG under an existing node."""
    seen = {root}
    stack = [root]
    edge_count = 0
    while stack:
        node = stack.pop()
        for child in store.children_of(node):
            edge_count += 1
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen, edge_count


def subtree_nodes_from(store, result) -> tuple[set[int], int]:
    """Nodes and edge count of a new ST including shared regions below
    its new edges (``result`` a ``SubtreeResult`` not yet attached)."""
    seen: set[int] = {result.root}
    edge_count = len(result.edges)
    frontier: list[int] = []
    for _, parent, _, child in result.edges:
        seen.add(parent)
        if child not in seen:
            seen.add(child)
            frontier.append(child)
    while frontier:
        node = frontier.pop()
        for child in store.children_of(node):
            edge_count += 1
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen, edge_count


def detect_side_effects(evaluator, result, mode: str) -> set[int]:
    """``S`` for an evaluated ``result`` (``evaluator.evaluate``'s), by
    the walk that climbs every ancestor at every ``//`` level."""
    match = result._match
    if mode == "insert":
        last_level = len(match.contexts) - 1
        stack = [(v, last_level) for v in result.targets]
    else:
        stack = list(dict.fromkeys((u, lvl) for u, _, lvl in result.ep))
    parents_of = evaluator.store.parents_of
    steps = match.steps
    seen: set[tuple[int, int]] = set()
    S: set[int] = set()
    while stack:
        node, level = stack.pop()
        if (node, level) in seen:
            continue
        seen.add((node, level))
        if level <= 0:
            continue
        code = steps[level - 1][0]
        if code == _FILTER:
            stack.append((node, level - 1))
        elif code == _DESCENDANT:
            region = match.regions[level]
            in_prev = node in match.members(level - 1)
            for parent in parents_of(node):
                if parent in region:
                    stack.append((parent, level))
                elif not in_prev:
                    S.add(parent)
            if in_prev:
                stack.append((node, level - 1))
        else:
            matched = (
                match.members(level - 1)
                if node in match.members(level)
                else ()
            )
            for parent in parents_of(node):
                if parent in matched:
                    stack.append((parent, level - 1))
                else:
                    S.add(parent)
    return S


def retain_ancestors(reach, node: int, parents: Iterable[int]) -> None:
    """Drop the ancestors of ``node`` not derivable from ``parents``:
    keep ``{p} ∪ anc(p)`` over them, through the index's point
    operations."""
    parents = list(parents)
    old = reach.anc(node)
    keep = set(parents) | reach.anc_of_set(parents)
    if old - keep:
        reach.set_ancestors(node, old & keep)


def retain_below(reach, store, order: Iterable[int]) -> list[int]:
    """Δ(M,L)delete's sweep as one :func:`retain_ancestors` per node of
    ``order`` (ancestors first), each given the parents not condemned
    earlier in the sweep; returns the condemned nodes in sweep order, as
    ``ReachabilityIndex.retain_below`` does."""
    condemned: list[int] = []
    doomed: set[int] = set()
    for node in order:
        parents = store.parents_of(node)
        surviving = [p for p in parents if p not in doomed]
        retain_ancestors(reach, node, surviving)
        if not surviving and node != store.root_id:
            doomed.add(node)
            condemned.append(node)
    return condemned


def swap(topo, u: int, v: int, descendants_of_v) -> int:
    """``topo.swap(u, v, ...)`` splitting ``L[u:v]`` by membership in
    ``descendants_of_v``; returns the number of nodes moved."""
    pos_u = topo.position(u)
    pos_v = topo.position(v)
    if pos_v < pos_u:
        return 0
    moving, staying = [], []
    for n in topo._list[pos_u:pos_v]:
        (moving if n in descendants_of_v else staying).append(n)
    moving.append(v)
    topo._list[pos_u : pos_v + 1] = moving + staying
    topo._reindex(pos_u, pos_v + 1)
    return len(moving)


def inner_first(program) -> list[tuple[str, int]]:
    """Every plan of a compiled ``program`` as ``("path", j)`` /
    ``("filter", k)``, each after the plans it reads."""
    order: list[tuple[str, int]] = []
    done: set[tuple[str, int]] = set()

    def visit(unit: tuple[str, int]) -> None:
        if unit in done:
            return
        done.add(unit)
        kind, index = unit
        if kind == "path":
            reads = [("filter", op[1]) for op in program.path_plans[index][0]
                     if op[0] == _FILTER]
        else:
            code, arg = program.filter_plans[index]
            if code == 1:
                reads = [("path", arg)]
            elif code in (2, 3):
                reads = [("filter", k) for k in arg]
            elif code == 4:
                reads = [("filter", arg)]
            else:  # label test
                reads = []
        for read in reads:
            visit(read)
        order.append(unit)

    for j in range(len(program.path_plans)):
        visit(("path", j))
    for k in range(len(program.filter_plans)):
        visit(("filter", k))
    return order


class SweptValues:
    """Per-node truth tables for every compiled expression."""

    def __init__(self, program):
        self.ex_tables = [
            [dict() for _ in range(len(ops) + 1)]
            for ops, _ in program.path_plans
        ]
        self.dsc_tables = [
            [dict() for _ in range(len(ops) + 1)]
            for ops, _ in program.path_plans
        ]
        self.f_tables = [dict() for _ in program.filter_plans]

    def holds(self, index: int, node: int) -> bool:
        """Truth of filter plan ``index`` at ``node`` (unswept: False)."""
        return self.f_tables[index].get(node, False)


def sweep_filters(evaluator, program) -> SweptValues:
    """Evaluate every filter sub-expression at every node.

    A single pass over ``L`` (children before parents) fills
    per-expression truth tables from the integer-indexed plans.
    """
    values = SweptValues(program)
    units = inner_first(program)
    if not units:
        return values
    store = evaluator.store
    children_of = store.children_of
    type_of = store.type_of
    value_of = store.value_of
    ex_tables = values.ex_tables
    dsc_tables = values.dsc_tables
    f_tables = values.f_tables
    for node in evaluator.topo:
        # descendants (children) first
        children = children_of(node)
        for kind, index in units:
            if kind == "path":
                ops, value = program.path_plans[index]
                ex_rows = ex_tables[index]
                dsc_rows = dsc_tables[index]
                for i in range(len(ops), -1, -1):
                    if i == len(ops):
                        ex = True if value is None else (
                            value_of(node) == value
                        )
                    else:
                        op = ops[i]
                        code = op[0]
                        if code == _LABEL:
                            nxt = ex_rows[i + 1]
                            label = op[1]
                            ex = any(
                                type_of(c) == label and nxt[c]
                                for c in children
                            )
                        elif code == _WILDCARD:
                            nxt = ex_rows[i + 1]
                            ex = any(nxt[c] for c in children)
                        elif code == _FILTER:
                            ex = (
                                f_tables[op[1]][node]
                                and ex_rows[i + 1][node]
                            )
                        else:  # descendant-or-self
                            ex = dsc_rows[i + 1][node]
                    ex_rows[i][node] = ex
                    row = dsc_rows[i]
                    row[node] = ex or any(row[c] for c in children)
            else:
                op = program.filter_plans[index]
                code = op[0]
                if code == 0:  # label test
                    result = type_of(node) == op[1]
                elif code == 1:  # exists/value path
                    result = ex_tables[op[1]][0][node]
                elif code == 2:  # and
                    result = all(f_tables[k][node] for k in op[1])
                elif code == 3:  # or
                    result = any(f_tables[k][node] for k in op[1])
                else:  # code == 4: not
                    result = not f_tables[op[1]][node]
                f_tables[index][node] = result
    return values


# ---------------------------------------------------------------------------
# The trigger summary, pattern by pattern
# ---------------------------------------------------------------------------


class ReferenceDigest:
    """An event as the pattern-by-pattern summary reads it: the mask of
    the edges' parents, the edges by ``(parent_type, child_type)``, and
    the parents' ancestors read once on ``M``."""

    def __init__(self, edges, reach):
        self.by_type: dict = {}
        nodes = set()
        for rec in edges:
            nodes.add(rec.parent)
            self.by_type.setdefault(
                (rec.parent_type, rec.child_type), []
            ).append(rec)
        self.parents = sum(1 << node for node in nodes)
        self._nodes = nodes
        self._reach = reach
        self._upward = None

    def upward(self) -> int:
        if self._upward is None:
            self._upward = self._reach.anc_or_self_mask(self._nodes)
        return self._upward

    def matches(self, pattern) -> bool:
        if pattern.parent is not None and pattern.child is not None:
            groups = (self.by_type.get((pattern.parent, pattern.child), ()),)
        else:
            groups = self.by_type.values()
        return any(pattern.matches(rec) for group in groups for rec in group)


def reference_triggers(profile, levels) -> tuple[int, int, tuple]:
    """``(exact, closure, typed)`` of ``levels``: ``profile.stages``
    read up to the first empty level, every pattern past the cache kept
    in ``typed``."""
    exact = closure = 0
    typed: list = []
    count = len(levels)
    for stop, _, tests in profile.stages:
        if stop < count and not levels[stop]:
            break
        for scope, by_closure, patterns in tests:
            if scope >= count:
                typed.extend(patterns)
                continue
            cached = levels[scope]
            nodes = cached.nodes if isinstance(cached, Closure) else cached
            mask = sum(1 << node for node in set(nodes))
            if by_closure:
                closure |= mask
            else:
                exact |= mask
    return exact, closure, tuple(typed)


def reference_meets(triggers, digest: ReferenceDigest) -> bool:
    """Whether the event ``digest`` describes meets ``triggers`` (from
    :func:`reference_triggers`), one typed pattern at a time."""
    exact, closure, typed = triggers
    if exact & digest.parents:
        return True
    if any(map(digest.matches, typed)):
        return True
    return bool(closure and closure & digest.upward())
