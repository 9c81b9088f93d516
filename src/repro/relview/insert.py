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
   (:class:`~repro.sat.atoms.SymVar`).  Templates whose key
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
   ``Table.lookup`` probe per alias, every cell read at a position the
   view's skeleton worked out once).  Derivations come in registry,
   seed and row order, each with its atoms in conjunct order.
   Because view rows project every base key and new templates carry keys
   absent from ``I``, such a derivation can never equal an existing view
   row; it is benign iff it *is* one of the targets (per-position
   symbolic identity), otherwise its condition is negated — an
   unconditional side effect rejects the update outright (case (a) in
   the paper).

4. **Solve, in the equality domain.**  The constraint is CNF over
   equality atoms of two kinds only: a positive unit (an assertion, or
   an atom of a target's derivation) and an all-negative clause (a
   side effect).  Over an unbounded domain that is decided by the
   equality classes of the units alone, as congruence closure decides
   equality logic (Nelson & Oppen): a union-find merges ``a = b`` and
   binds ``v = c`` (two constants on one class reject).  In the
   *minimal model* every class no unit binds takes its own fresh value,
   so a non-BOOL atom the units do not entail is false and its clause
   holds; a clause all of whose atoms the units entail rejects.  Only a
   BOOL unknown has too few values to be fresh: clauses left with
   undecided BOOL atoms — the residue, where Theorem 2's NP-hardness
   lives — go through :func:`~repro.sat.encode.encode_formula` over
   ``(False, True)`` domains to DPLL, complete and deterministic (the
   paper's WalkSAT may give up on a satisfiable instance; it stays in
   :mod:`repro.sat.walksat` for comparison).  No dataset here has a
   BOOL column, so their inserts never reach a solver.

5. **ΔR.**  Each unknown of a new template takes its class's constant,
   the residue's value, or its class's fresh value — outside the active
   domain, one per class, minted in the unknowns' name order and
   numbered by the caller's sequence (the updater owns one, so a result
   never depends on what another view in the process did before).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from repro.errors import UpdateRejectedError
from repro.relational.conditions import Col, Const, Eq
from repro.relational.database import Database, RelationalDelta
from repro.relational.schema import AttrType
from repro.relview.keypres import _UnionFind
from repro.relview.symbolic import Derivation, Template
from repro.sat.atoms import Atom, AtomVC, AtomVV, SymVar, make_atom
from repro.sat.dpll import dpll_solve
from repro.sat.encode import AtomClause, encode_formula
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
    """Variables of the CNF the BOOL residue went to (0 without one)."""
    num_clauses: int = 0
    """Clauses of that CNF (0 without one)."""
    solver: str = "none"
    """``'dpll'`` when a residue went to the solver, ``'trivial'`` when
    the equality classes decided everything, ``'none'`` when nothing
    needed deciding."""
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
    fresh: Iterator[int] | None = None,
) -> InsertionPlan:
    """Run Algorithm insert for the insertions in ``ΔV``.

    ``fresh`` numbers the fresh values ΔR mints (default: a new
    sequence from 1).

    Raises :class:`UpdateRejectedError` on definite side effects, on an
    unsatisfiable encoding, or on inconsistent targets.
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

    classes = _solve(units, side_effects, plan)
    if classes is None:
        raise UpdateRejectedError(
            f"no side-effect-free instantiation found (solver: {plan.solver})"
        )

    concrete = _decode_valuation(
        db, classes, plan.new_templates,
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
    """What Algorithm insert takes from one edge view alone.

    Every visible column is bound on every call, so which equality class
    a constant or a visible value fills, and hence each cell's class and
    whether it is known, depend on the view and the schemas only; so do
    the positions every column is read at.

    For the sweep (any view): ``row`` gives, per output column, the
    alias and position it is read at, ``checks[alias]`` each equality
    conjunct mentioning ``alias`` as ``(aliases it needs, left, right)``
    and ``probes[alias]`` each equality ``alias`` can be probed on as
    ``(attr, other)``, a term being ``(alias, position)`` or, for a
    constant, ``(None, value)``.

    For the templates (a target's view): ``rejection`` says why every
    target of the view is rejected (a non-equality condition,
    conflicting constants), else ``known`` maps a class root to the
    view's constant for it, ``visible`` gives each visible column with
    its class root, ``occurrences`` each base occurrence's relation,
    alias, key positions and cells (class root, filled or not,
    attribute, type), and ``key_rejection`` the first key cell no value
    fills.
    """

    def __init__(self, view: EdgeView, schemas: tuple) -> None:
        query = view.query
        position = {
            alias: schema.index_of for (_, alias), schema in zip(query.tables, schemas)
        }

        def term(value) -> tuple:
            if isinstance(value, Col):
                return value.alias, position[value.alias](value.attr)
            if isinstance(value, Const):
                return None, value.value
            raise UpdateRejectedError(f"unsupported term {value!r} in insertion sweep")

        self.row: tuple[tuple, ...] = tuple(term(col) for _, col in query.project)
        self.checks: dict[str, tuple] = {alias: () for alias in query.aliases}
        for conjunct, needs in query.conjunct_aliases:
            if isinstance(conjunct, Eq):
                check = (needs, term(conjunct.left), term(conjunct.right))
                for alias in needs:
                    self.checks[alias] += (check,)
        self.probes: dict[str, tuple] = {
            alias: tuple(
                (attr, term(other))
                for attr, other in query.equalities[alias]
                if isinstance(other, (Col, Const))
            )
            for alias in query.aliases
        }

        classes = _UnionFind()
        known: dict = {}
        self.rejection: str | None = None
        try:
            for conjunct, _ in query.conjunct_aliases:
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


def _skeleton(registry: EdgeViewRegistry, db: Database, view: EdgeView) -> _Skeleton:
    """``view``'s skeleton over ``db``'s schemas, built on first use."""
    schemas = tuple([db.schema(relation) for relation, _ in view.query.tables])
    cached = (view.name, schemas)
    skeleton = registry.skeletons.get(cached)
    if skeleton is None:  # published whole, with one assignment
        skeleton = registry.skeletons[cached] = _Skeleton(view, schemas)
    return skeleton


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
        skeleton = _skeleton(registry, db, view)
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
    derivations: list[Derivation] = []
    for view in registry.views():
        if any(relation in new_by_relation for relation, _ in view.query.tables):
            skeleton = _skeleton(registry, db, view)
            _sweep_view(view, db, skeleton, new_by_relation, derivations)
    return derivations


def _sweep_view(
    view: EdgeView,
    db: Database,
    skeleton: _Skeleton,
    new_by_relation: dict[str, list[Template]],
    out: list[Derivation],
) -> None:
    for seed_pos, (relation, alias) in enumerate(view.query.tables):
        for seed in new_by_relation.get(relation, ()):  # U at seed position
            partial: dict[str, tuple] = {alias: seed.values}
            atoms = _alias_atoms(skeleton, alias, partial)
            if atoms is not None:
                _extend(view, db, skeleton, new_by_relation, seed_pos, partial, atoms, out)


def _extend(
    view: EdgeView,
    db: Database,
    skeleton: _Skeleton,
    new_by_relation: dict[str, list[Template]],
    seed_pos: int,
    partial: dict[str, tuple],
    atoms: list[Atom],
    out: list[Derivation],
) -> None:
    """Nested-loop extension of a partial symbolic assignment."""
    remaining = [
        (i, rel, alias)
        for i, (rel, alias) in enumerate(view.query.tables)
        if alias not in partial
    ]
    if not remaining:
        row = tuple([partial[alias][at] for alias, at in skeleton.row])
        out.append(Derivation(view.name, row, tuple(dict.fromkeys(atoms))))
        return
    # Bind next an alias some equality ties to a concrete bound cell (or
    # a constant): its candidates are one probe.  Only a genuine cross
    # product is left to declaration order and a pass over its table.
    # The join of SPJQuery.evaluate over the same ``query.equalities``,
    # except that a variable cell is no probe.
    index, relation, alias = remaining[0]
    attrs: list[str] = []
    values: list[object] = []
    for entry in remaining:
        for attr, (source, at) in skeleton.probes[entry[2]]:
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
        extra = _alias_atoms(skeleton, alias, trial)
        if extra is not None:
            _extend(
                view, db, skeleton, new_by_relation, seed_pos, trial,
                atoms + extra, out,
            )


def _alias_atoms(
    skeleton: _Skeleton, alias: str, partial: dict[str, tuple]
) -> list[Atom] | None:
    """Check/collect conditions that became fully bound by adding ``alias``.

    Returns ``None`` when a concrete condition fails; otherwise the atoms
    contributed by symbolic comparisons, in conjunct order.
    """
    atoms: list[Atom] = []
    for needs, (left, at_left), (right, at_right) in skeleton.checks[alias]:
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


# ---------------------------------------------------------------------------
# Stage 4: solve in the equality domain
# ---------------------------------------------------------------------------

_UNBOUND = object()


class _Classes(_UnionFind):
    """The equality classes of the unit atoms, and the constant each
    bound class holds (``value``, by class root).  An equality joins
    columns of one type, so a class's type is its root's."""

    def __init__(self) -> None:
        super().__init__()
        self.value: dict[SymVar, object] = {}

    def assert_atom(self, atom: Atom) -> None:
        """Merge the classes of a unit atom, or bind one to its constant."""
        if isinstance(atom, AtomVV):
            a, b = self.find(atom.a), self.find(atom.b)
            if a == b:
                return
            self.union(a, b)
            root = self.find(a)
            value = self.value.pop(b if root == a else a, _UNBOUND)
            if value is _UNBOUND:
                return
        else:
            root, value = self.find(atom.var), atom.const
        bound = self.value.setdefault(root, value)
        if bound != value:
            raise UpdateRejectedError(
                f"the targets require one unknown to be both {bound!r} and "
                f"{value!r} (at {atom})"
            )

    def status(self, atom: Atom) -> bool | Atom:
        """``atom`` in the minimal model: its truth or, undecided, the atom
        over finite-domain class roots the residue must decide."""
        if isinstance(atom, AtomVC):
            root = self.find(atom.var)
            bound = self.value.get(root, _UNBOUND)
            if bound is not _UNBOUND:
                return bound == atom.const
            if root.attr_type.is_finite and atom.const in root.attr_type.domain():
                return AtomVC(root, atom.const)
            return False  # the class's fresh value is no constant
        a, b = self.find(atom.a), self.find(atom.b)
        if a == b:
            return True
        value_a = self.value.get(a, _UNBOUND)
        value_b = self.value.get(b, _UNBOUND)
        if value_a is not _UNBOUND and value_b is not _UNBOUND:
            return value_a == value_b
        if not a.attr_type.is_finite:
            return False  # a fresh value differs from every other value
        if value_a is _UNBOUND and value_b is _UNBOUND:
            return make_atom(a, b)
        if value_a is _UNBOUND:
            return AtomVC(a, value_b)
        return AtomVC(b, value_a)


def _solve(
    units: list[Atom],
    side_effects: list[Derivation],
    plan: InsertionPlan,
) -> _Classes | None:
    """Decide the clauses; ``None`` when the BOOL residue is unsatisfiable.

    Raises :class:`UpdateRejectedError` when two constants meet on one
    class or the units entail a side effect.
    """
    classes = _Classes()
    for atom in units:
        classes.assert_atom(atom)
    residue: list[AtomClause] = []
    for derivation in side_effects:
        undecided: list[tuple[Atom, bool]] = []
        for atom in derivation.atoms:
            holds = classes.status(atom)
            if holds is False:
                break
            if holds is not True:
                undecided.append((holds, False))
        else:
            if not undecided:
                raise UpdateRejectedError(
                    f"insertion causes a side effect on view "
                    f"{derivation.view_name}: the targets entail row "
                    f"{derivation.row!r}"
                )
            residue.append(tuple(undecided))
    if not residue:
        plan.solver = "trivial"
        return classes
    domains: dict[SymVar, tuple] = {}
    for clause in residue:
        for atom, _ in clause:
            for var in (atom.var,) if isinstance(atom, AtomVC) else (atom.a, atom.b):
                domains[var] = var.attr_type.domain()
    cnf, decode = encode_formula(residue, domains)
    plan.num_vars = cnf.num_vars
    plan.num_clauses = len(cnf)
    plan.solver = "dpll"
    assignment = dpll_solve(cnf)
    if assignment is None:
        return None
    classes.value.update(decode(assignment))
    return classes


# ---------------------------------------------------------------------------
# Stage 5: decode
# ---------------------------------------------------------------------------


def _decode_valuation(
    db: Database,
    classes: _Classes,
    new_templates: list[Template],
    fresh: Iterator[int],
) -> dict[SymVar, object]:
    """A value for every unknown of the new templates.

    A bound class gives its value; every other class gets one fresh
    value outside the active domain, shared by its members so that an
    asserted ``var = var`` equality holds.  Fresh values are minted in
    the unknowns' :attr:`~SymVar.order`.
    """
    unknowns = dict.fromkeys(v for t in new_templates for v in t.variables())
    concrete: dict[SymVar, object] = {}
    minted: dict[SymVar, object] = {}
    for var in sorted(unknowns, key=attrgetter("order")):
        root = classes.find(var)
        value = classes.value.get(root, _UNBOUND)
        if value is _UNBOUND:
            value = minted.get(root, _UNBOUND)
            if value is _UNBOUND:
                value = minted[root] = _fresh_value(db, var, fresh)
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
