"""Algorithm insert (paper, Section 4.3 and Appendix A).

Translates a group of view-row insertions ``ΔV`` into base-table
insertions ``ΔR`` via SAT, in five stages:

1. **Templates.**  For every target edge, the equality closure of the
   edge view's selection condition propagates the known values (parent
   parameters, child semantic attributes, constants) into one tuple
   template per base occurrence.  The closure depends on the view alone,
   so it is worked out once per view (:class:`_Skeleton`, cached on the
   registry): each cell's class, which classes a constant or a visible
   column fills, the key positions, and the view's static rejections.
   A target only binds its visible values.  Key preservation guarantees
   the key part is fully known; other cells become canonical variables
   (:class:`~repro.relview.symbolic.SymVar`).  Templates whose key
   already exists in the base table are filled from the stored row
   (``B_i`` in the appendix); the rest are the new tuples ``U_i``.

2. **Canonical assertions.**  The conditions the templates must satisfy
   to actually derive their target (atoms over variables) are asserted.

3. **Side-effect sweep.**  Every edge view is evaluated symbolically
   over ``I ∪ X`` restricted to derivations using at least one new
   template (seed-position enumeration avoids duplicates; each seed is
   extended along the join graph the view's ``SPJQuery`` worked out at
   construction — ``equalities`` says what to probe an alias on,
   ``conjunct_aliases`` which conditions a new binding completes — one
   ``Table.lookup`` probe per alias, and the derivations and their atoms
   are put in a canonical order).
   Because view rows project every base key and new templates carry keys
   absent from ``I``, such a derivation can never equal an existing view
   row; it is benign iff it *is* one of the targets (per-position
   symbolic identity), otherwise its condition is negated — an
   unconditional side effect rejects the update outright (case (a) in
   the paper).

4. **SAT.**  The constraint is already CNF over equality atoms: each
   assertion and each atom of a target's derivation is a unit clause,
   each side-effect derivation one clause of negated atoms.  Variables
   get finite domains: BOOL its two values, any other type the
   constants its ``var = var`` component is compared with plus one
   :class:`~repro.relview.symbolic.FreshToken` per component variable
   (the variables equal to no constant take at most that many distinct
   values, so the abstraction is sound and complete for equality
   constraints).  :func:`~repro.sat.encode.encode_formula` turns the
   clauses into CNF one for one, and DPLL decides it: complete,
   deterministic, and cheap because the encoding's size depends on
   ``|ΔV|`` and ``|Q|``, not on the database.  WalkSAT, the paper's
   solver, stays selectable (``solver='walksat'``) for comparison; it
   may give up on a satisfiable instance.

5. **ΔR.**  A model instantiates the new templates; fresh tokens decode
   to values outside the active domain, numbered by the caller's
   sequence (the updater owns one, so a result never depends on what
   another view in the process did before).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import UpdateRejectedError
from repro.relational.conditions import Col, Const, Eq
from repro.relational.database import Database, RelationalDelta
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType
from repro.relview.keypres import _UnionFind
from repro.relview.symbolic import (
    Atom,
    AtomVC,
    AtomVV,
    Derivation,
    FreshToken,
    SymVar,
    Template,
    make_atom,
)
from repro.sat.dpll import dpll_solve
from repro.sat.encode import AtomClause, encode_formula
from repro.sat.walksat import walksat_solve
from repro.views.registry import EdgeView, EdgeViewRegistry
from repro.views.store import ViewDelta, ViewStore


@dataclass
class InsertionPlan:
    """Result of translating a view group insertion."""

    delta_r: RelationalDelta = field(default_factory=RelationalDelta)
    new_templates: list[Template] = field(default_factory=list)
    target_rows: list[tuple[str, tuple]] = field(default_factory=list)
    """(view name, symbolic full row) of every target edge."""
    num_vars: int = 0
    num_clauses: int = 0
    solver: str = "none"
    derivations_checked: int = 0


class _TargetEdge:
    """One ΔV insertion resolved against its edge view."""

    def __init__(self, view: EdgeView, parent_params: tuple, child_sem: tuple):
        self.view = view
        self.parent_params = parent_params
        self.child_sem = child_sem
        self.row: tuple | None = None  # symbolic full view row


def translate_insertions(
    registry: EdgeViewRegistry,
    store: ViewStore,
    db: Database,
    delta_v: ViewDelta,
    solver: str = "dpll",
    fresh: Iterator[int] | None = None,
) -> InsertionPlan:
    """Run Algorithm insert for the insertions in ``ΔV``.

    ``solver`` is ``'dpll'`` (complete; what the updater runs) or
    ``'walksat'`` (the paper's choice, kept for comparison; may give up
    on satisfiable instances).  ``fresh`` numbers the fresh values ΔR
    mints (default: a new sequence from 1).

    Raises :class:`UpdateRejectedError` on definite side effects, on an
    unsatisfiable/unsolved encoding, or on inconsistent targets.
    """
    plan = InsertionPlan()
    targets = _resolve_targets(registry, store, db, delta_v)
    if not targets:
        return plan

    templates, assertions = _build_templates(registry, db, targets)
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

    derivations = _sweep_side_effects(registry, db, templates)
    plan.derivations_checked = len(derivations)

    target_rows = {(t.view.name, t.row) for t in targets}
    clauses: list[AtomClause] = [((atom, True),) for atom in assertions]
    covered_targets: set[tuple[str, tuple]] = set()
    for derivation in derivations:
        key = (derivation.view_name, derivation.row)
        if key in target_rows:
            covered_targets.add(key)
            clauses.extend(((atom, True),) for atom in derivation.atoms)
            continue
        if not derivation.atoms:
            raise UpdateRejectedError(
                f"insertion causes an unconditional side effect on view "
                f"{derivation.view_name}: row {derivation.row!r}"
            )
        clauses.append(tuple((atom, False) for atom in derivation.atoms))
    missing = target_rows - covered_targets
    if missing:
        raise UpdateRejectedError(
            f"targets {sorted(m[0] for m in missing)} are not derivable "
            "from the base data plus the new tuples"
        )

    valuation = _solve(clauses, solver, plan)
    if valuation is None:
        raise UpdateRejectedError(
            f"no side-effect-free instantiation found (solver: {plan.solver})"
        )

    concrete = _decode_valuation(
        db, valuation, plan.new_templates,
        itertools.count(1) if fresh is None else fresh,
    )
    for template in plan.new_templates:
        plan.delta_r.insert(template.relation, template.instantiate(concrete))
    return plan


# ---------------------------------------------------------------------------
# Stage 1-2: targets and templates
# ---------------------------------------------------------------------------


def _resolve_targets(
    registry: EdgeViewRegistry,
    store: ViewStore,
    db: Database,
    delta_v: ViewDelta,
) -> list[_TargetEdge]:
    targets: list[_TargetEdge] = []
    seen: set[tuple[str, tuple, tuple]] = set()
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


class _Skeleton:
    """What Algorithm insert's templates take from one edge view alone.

    Every visible column is bound on every call, so which equality class
    a constant or a visible value fills, and hence each cell's class and
    whether it is known, depend on the view and the schemas only.

    ``rejection`` says why every target of the view is rejected (a
    non-equality condition, conflicting constants), else ``known`` maps
    a class root to the view's constant for it, ``visible`` gives each
    visible column with its class root, ``occurrences`` each base
    occurrence's relation, alias, key positions and cells (class root,
    filled or not, attribute, type), ``key_rejection`` the first key
    cell no value fills, and ``row`` where each column of the target's
    view row comes from.
    """

    def __init__(self, view: EdgeView, schemas: tuple) -> None:
        query = view.query
        classes = _UnionFind()
        known: dict = {}
        self.rejection: str | None = None
        try:
            for conjunct in query.where.conjuncts():
                if isinstance(conjunct, Eq):
                    left, right = conjunct.left, conjunct.right
                    if isinstance(left, Col) and isinstance(right, Col):
                        classes.union((left.alias, left.attr), (right.alias, right.attr))
                        continue
                    for col, const in ((left, right), (right, left)):
                        if isinstance(col, Col) and isinstance(const, Const):
                            item = (col.alias, col.attr)
                            _learn(view, known, item, classes.find(item), const.value)
                elif any(isinstance(c, Col) for c in conjunct.columns()):
                    raise UpdateRejectedError(
                        f"view {view.name} has a non-equality condition; "
                        "insertion translation supports equality SPJ views"
                    )
        except UpdateRejectedError as rejected:
            self.rejection = rejected.args[0]
            return
        self.known = known
        self.visible: tuple[tuple[tuple[str, str], object], ...] = tuple(
            ((col.alias, col.attr), classes.find((col.alias, col.attr)))
            for _, col in query.project[: view.n_params + view.n_child]
        )
        filled = known.keys() | {root for _, root in self.visible}
        self.occurrences: list[tuple[str, str, tuple[int, ...], tuple]] = []
        self.key_rejection: str | None = None
        for (relation, alias), schema in zip(query.tables, schemas):
            cells = []
            for attr in schema.attributes:
                root = classes.find((alias, attr.name))
                cells.append((root, root in filled, attr.name, attr.type))
            for attr in schema.key:
                if not cells[schema.index_of(attr)][1] and self.key_rejection is None:
                    self.key_rejection = (
                        f"cannot determine key attribute {relation}.{attr} "
                        f"for a target edge of {view.name}"
                    )
            self.occurrences.append((relation, alias, schema.key_indexes, tuple(cells)))
        position = dict(zip(query.aliases, schemas))
        self.row: tuple[tuple[str, int], ...] = tuple(
            (col.alias, position[col.alias].index_of(col.attr)) for _, col in query.project
        )


def _learn(view: EdgeView, known: dict, item: tuple, root, value) -> None:
    """Record that ``item``'s class (``root``) holds ``value``."""
    if root in known and known[root] != value:
        raise UpdateRejectedError(
            f"target edge of {view.name} is inconsistent: "
            f"{item} must be both {known[root]!r} and {value!r}"
        )
    known[root] = value


def _build_templates(
    registry: EdgeViewRegistry, db: Database, targets: list[_TargetEdge]
) -> tuple[dict[tuple[str, tuple], Template], list[Atom]]:
    """Build the tuple templates and the canonical assertions."""
    templates: dict[tuple[str, tuple], Template] = {}
    assertions: list[Atom] = []

    for target in targets:
        view = target.view
        schemas = tuple([db.schema(relation) for relation, _ in view.query.tables])
        cached = (view.name, schemas)
        skeleton = registry.skeletons.get(cached)
        if skeleton is None:  # published whole, with one assignment
            skeleton = registry.skeletons[cached] = _Skeleton(view, schemas)
        if skeleton.rejection is not None:
            raise UpdateRejectedError(skeleton.rejection)
        known = dict(skeleton.known)
        for (item, root), value in zip(
            skeleton.visible, (*target.parent_params, *target.child_sem)
        ):
            _learn(view, known, item, root, value)
        if skeleton.key_rejection is not None:
            raise UpdateRejectedError(skeleton.key_rejection)

        # Unknown cells become canonical variables or, where the key
        # already exists, the stored row's values; the equalities among
        # them are recorded as assertions.
        alias_values: dict[str, tuple] = {}
        class_value: dict = {}
        for relation, alias, key_indexes, cells in skeleton.occurrences:
            key = tuple([known[cells[i][0]] for i in key_indexes])
            existing = db.table(relation).get(key)
            values: list = []
            for index, (root, filled, attr, attr_type) in enumerate(cells):
                if filled:
                    values.append(known[root])
                    continue
                if existing is not None:
                    # Fill from the stored row (B_i case); remember the
                    # binding so equalities to this class still apply.
                    value = existing[index]
                    values.append(value)
                    if root in class_value:
                        result = make_atom(class_value[root], value)
                        if result is False:
                            raise UpdateRejectedError(
                                f"existing tuple {relation}{key} conflicts "
                                f"with a target edge of {view.name}"
                            )
                        if result is not True:
                            assertions.append(result)
                    else:
                        class_value[root] = value
                    continue
                var = SymVar(relation, key, attr, attr_type)
                bound = class_value.get(root)
                if bound is None:
                    class_value[root] = var
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
        target.row = tuple(alias_values[alias][at] for alias, at in skeleton.row)
    return templates, assertions


def _merge_templates(a: Template, b: Template) -> tuple[Template, list[Atom]]:
    """Merge two templates for the same base tuple; emit consistency atoms."""
    atoms: list[Atom] = []
    merged: list = []
    for left, right in zip(a.values, b.values):
        result = make_atom(left, right)
        if result is False:
            raise UpdateRejectedError(
                f"conflicting requirements on base tuple "
                f"{a.relation}{a.key}: {left!r} vs {right!r}"
            )
        if result is not True and result is not None:
            if isinstance(result, (AtomVC, AtomVV)):
                atoms.append(result)
        # Prefer the concrete side.
        merged.append(right if isinstance(left, SymVar) else left)
    return Template(a.relation, a.key, tuple(merged), a.is_new), atoms


# ---------------------------------------------------------------------------
# Stage 3: side-effect sweep
# ---------------------------------------------------------------------------


def _sweep_side_effects(
    registry: EdgeViewRegistry,
    db: Database,
    templates: dict[tuple[str, tuple], Template],
) -> list[Derivation]:
    """Every symbolic derivation (of any view) using ≥1 new template."""
    new_by_relation: dict[str, list[Template]] = {}
    for template in templates.values():
        if template.is_new:
            new_by_relation.setdefault(template.relation, []).append(template)
    if not new_by_relation:
        return []
    derivations: list[Derivation] = []
    for view in registry.views():
        derivations.extend(_sweep_view(view, db, new_by_relation))
    # The set is order-free; the list (like each derivation's atoms)
    # feeds CNF clause order, hence the solver's search — its work, its
    # model and the fresh values in ΔR.  Make it canonical.
    derivations.sort(
        key=lambda d: (d.view_name, repr(d.row), list(map(repr, d.atoms)))
    )
    return derivations


def _sweep_view(
    view: EdgeView,
    db: Database,
    new_by_relation: dict[str, list[Template]],
) -> list[Derivation]:
    query = view.query
    if not any(relation in new_by_relation for relation, _ in query.tables):
        return []
    out: list[Derivation] = []
    for seed_pos, (relation, alias) in enumerate(query.tables):
        for seed in new_by_relation.get(relation, ()):  # U at seed position
            partial: dict[str, tuple] = {alias: seed.values}
            atoms = _alias_atoms(db, query, alias, partial)
            if atoms is None:
                continue
            out.extend(
                _extend(view, db, new_by_relation, seed_pos, partial, frozenset(atoms))
            )
    return out


def _extend(
    view: EdgeView,
    db: Database,
    new_by_relation: dict[str, list[Template]],
    seed_pos: int,
    partial: dict[str, tuple],
    atoms: frozenset[Atom],
) -> list[Derivation]:
    """Nested-loop extension of a partial symbolic assignment."""
    query = view.query
    remaining = [
        (i, rel, alias)
        for i, (rel, alias) in enumerate(query.tables)
        if alias not in partial
    ]
    if not remaining:
        row = tuple(_term_cell(db, query, partial, col) for _, col in query.project)
        return [Derivation(view.name, row, tuple(sorted(atoms, key=repr)))]
    # Bind next an alias some equality ties to a concrete bound cell (or
    # a constant): its candidates are one probe.  Only a genuine cross
    # product is left to declaration order and a pass over its table.
    # The join of SPJQuery.evaluate over the same ``query.equalities``,
    # except that a variable cell is no probe.
    index, relation, alias = remaining[0]
    attrs: list[str] = []
    values: list[object] = []
    for entry in remaining:
        for attr, other in query.equalities[entry[2]]:
            if isinstance(other, Const) or (
                isinstance(other, Col) and other.alias in partial
            ):
                cell = _term_cell(db, query, partial, other)
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
    out: list[Derivation] = []
    for cells in candidates:
        trial = dict(partial)
        trial[alias] = cells
        extra = _alias_atoms(db, query, alias, trial)
        if extra is None:
            continue
        out.extend(
            _extend(
                view, db, new_by_relation, seed_pos, trial, atoms | frozenset(extra)
            )
        )
    return out


def _alias_atoms(
    db: Database,
    query: SPJQuery,
    alias: str,
    partial: dict[str, tuple],
) -> list[Atom] | None:
    """Check/collect conditions that became fully bound by adding ``alias``.

    Returns ``None`` when a concrete condition fails; otherwise the atoms
    contributed by symbolic comparisons, in conjunct order.
    """
    atoms: list[Atom] = []
    for conjunct, needs in query.conjunct_aliases:
        if not isinstance(conjunct, Eq) or alias not in needs:
            continue
        if not needs <= partial.keys():
            continue
        left = _term_cell(db, query, partial, conjunct.left)
        right = _term_cell(db, query, partial, conjunct.right)
        result = make_atom(left, right)
        if result is False:
            return None
        if result is not True:
            atoms.append(result)
    return atoms


def _term_cell(db: Database, query: SPJQuery, partial: dict[str, tuple], term):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Col):
        relation = query.relation_of(term.alias)
        return partial[term.alias][db.schema(relation).index_of(term.attr)]
    raise UpdateRejectedError(f"unsupported term {term!r} in insertion sweep")


# ---------------------------------------------------------------------------
# Stage 4: SAT
# ---------------------------------------------------------------------------


def _solve(
    clauses: list[AtomClause], solver: str, plan: InsertionPlan
) -> dict[SymVar, object] | None:
    """Encode and solve; return a valuation of the symbolic variables."""
    if not clauses:
        plan.solver = "trivial"
        return {}
    cnf, decode = encode_formula(
        clauses, _build_domains([atom for clause in clauses for atom, _ in clause])
    )
    plan.num_vars = cnf.num_vars
    plan.num_clauses = len(cnf)
    if solver == "dpll":
        assignment = dpll_solve(cnf)
    elif solver == "walksat":
        assignment = walksat_solve(cnf)
    else:
        raise ValueError(f"solver must be 'dpll' or 'walksat', got {solver!r}")
    plan.solver = solver
    return None if assignment is None else decode(assignment)


def _build_domains(atoms: list[Atom]) -> dict[SymVar, tuple]:
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
    for var in sorted(constants, key=lambda v: v.name):
        components.setdefault(classes.find(var), []).append(var)
    domains: dict[SymVar, tuple] = {}
    for component in components.values():
        shared = sorted(set().union(*map(constants.get, component)), key=repr)
        fresh = [FreshToken(component[0], i) for i in range(len(component))]
        values = (*shared, *fresh)
        for var in component:
            domains[var] = (False, True) if var.attr_type is AttrType.BOOL else values
    return domains


# ---------------------------------------------------------------------------
# Stage 5: decode
# ---------------------------------------------------------------------------


def _decode_valuation(
    db: Database,
    valuation: dict[SymVar, object],
    new_templates: list[Template],
    fresh: Iterator[int],
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
    for var in sorted(needed_vars, key=lambda v: v.name):
        value = valuation.get(var)
        if value is None:
            value = _fresh_value(db, var, fresh)
        elif isinstance(value, FreshToken):
            if value not in token_values:
                token_values[value] = _fresh_value(db, var, fresh)
            value = token_values[value]
        concrete[var] = value
    return concrete


def _fresh_value(db: Database, var: SymVar, fresh: Iterator[int]):
    """A value of the right type guaranteed outside the active domain.

    An INT lies above the column's :meth:`~Table.int_ceiling`.  A FLOAT
    or STR takes the next sequence number whose value the column does
    not hold: the sequence restarts with every updater (a recovered
    service, a second view over the same database), the column does not.
    """
    if var.attr_type is AttrType.BOOL:
        return False
    table = db.table(var.relation)
    if var.attr_type is AttrType.INT:
        return table.int_ceiling(var.attr) + 1_000_000 + next(fresh)
    while True:
        seq = next(fresh)
        if var.attr_type is AttrType.FLOAT:
            value = 1e12 + seq
        else:
            value = f"zz_fresh_{seq}"
        if not table.lookup([var.attr], [value]):
            return value
