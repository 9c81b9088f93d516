"""Algorithm insert (paper, Section 4.3 and Appendix A).

Translates a group of view-row insertions ``ΔV`` into base-table
insertions ``ΔR`` via SAT, in the five stages below.

Everything a call does not bind is prepared once, as ``SPJQuery`` plans
its join once per ``fixed`` shape.  A call resolves its targets (each
occurrence's row read once, by key) and so learns its *insertion
shape*: each target's view, which of its occurrences exist, and which
of them read one stored row (a shared child under several parents).  The
first call of a shape runs stages 1–4 over *traced* values
(:class:`_Traced`: each visible value and stored cell stands for its
position, and every comparison the stages make between two of them is
recorded with its outcome; templates and target rows are looked up by
their values, :func:`_untraced`) and keeps the result as the shape's
:class:`_InsertionProgram`: the new templates and target rows over
positions, which equality class each unknown is in and which position
binds it, the fresh-value order, and every sweep probe the key reads do
not answer (on a new-key insert under a ``sub``, ``H`` by ``h2 = new
key``).  Every later call of the shape whose values compare as the
traced ones did, and whose probes still find no row, only binds its
values, runs those probes, builds its unknowns and mints its fresh
values; one whose values compare otherwise is prepared again, and its
program replaces the shape's.  One whose probe finds a row is
translated by its own preparation and keeps nothing, as is a rejected
call.  Per view and per sweep state, the stages reuse what they
prepared before:

1. **Targets and templates.**  For every target edge, the equality
   closure of the edge view's selection condition propagates the known
   values (parent parameters, child semantic attributes, constants) into
   one tuple template per base occurrence.  The closure depends on the
   view alone, so it is worked out once per view (:class:`_Skeleton`,
   cached on the registry): each cell's class, which classes a constant
   or a visible column fills, the key slots, and the view's static
   rejections.  Key preservation guarantees the key part is fully known,
   so a target reads each occurrence's row once, by key
   (:meth:`_Skeleton.read`), and those rows answer two questions: is
   the edge already derivable (then nothing is inserted), and which
   occurrences exist — the target's *shape*, which picks its
   :class:`_TemplateProgram` (at most ``2^occurrences`` per view).  A
   view whose condition is not equalities over columns and constants,
   or whose key the skeleton cannot fill, asks the first question with
   an SPJ run (``matching_rows``) instead; that is a property of the
   view, fixed when its skeleton is built.  In the program, occurrences
   whose key exists are the stored rows (``B_i`` in the appendix),
   tested against the target's values; the rest are the new tuples
   ``U_i``, whose unknown cells become canonical variables
   (:class:`~repro.sat.atoms.SymVar`).

2. **Canonical assertions.**  The conditions the templates must satisfy
   to actually derive their target (atoms over variables) are asserted,
   in the order the program lists them.

3. **Side-effect sweep.**  Every edge view is evaluated symbolically
   over ``I ∪ X`` restricted to derivations using at least one new
   template (seed-position enumeration avoids duplicates).  The sweep
   is prepared per view, seed position and which of the seed's cells
   are unknowns (:class:`_Admit`, :class:`_Step`): the alias order
   along the join graph the view's ``SPJQuery`` worked out at
   construction, each probe's terms (a whole-key probe reads one row),
   and each conjunct as a test on two values or an atom over an
   unknown; a conjunct the probe enforced is not tested again.
   Derivations come in registry, seed and row order, each with its
   atoms in conjunct order.
   Because view rows project every base key and new templates carry keys
   absent from ``I``, such a derivation can never equal an existing view
   row; it is benign iff it *is* one of the targets (per-position
   symbolic identity), otherwise its condition is negated — an
   unconditional side effect rejects the update outright (case (a) in
   the paper).

4. **Solve, in the equality domain**, once per program.  The constraint is CNF over
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

5. **ΔR**, per call, in the program.  Each unknown of a new template
   takes its class's bound value, the residue's value, or its class's
   fresh value — outside the active domain, one per class, minted in the
   unknowns' :attr:`~repro.sat.atoms.SymVar.order` and numbered by the
   caller's sequence (the updater owns one, so a result never depends on
   what another view in the process did before).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import UpdateRejectedError
from repro.relational.conditions import Col, Const, Eq
from repro.relational.database import Database, RelationalDelta
from repro.relational.query import _compile_predicate
from repro.relational.schema import AttrType
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

    def __init__(
        self,
        view: EdgeView,
        parent_params: tuple,
        child_sem: tuple,
        skeleton: _Skeleton | None = None,
        rows: tuple | None = None,
    ):
        self.view = view
        self.parent_params = parent_params
        self.child_sem = child_sem
        self.skeleton = skeleton
        self.rows = rows
        """The stored row of each occurrence (``None`` where its key is
        absent), once read; see :meth:`_Skeleton.read`."""
        self.slots: tuple | None = None
        """The visible values, then the skeleton's constants, traced, as
        the templates read them (set by :func:`_prepare`)."""
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
    targets = _resolve_targets(registry, store, db, delta_v)
    if not targets:
        return InsertionPlan()
    values, layout = _values(targets)
    bound = shape = None
    if all(target.rows is not None for target in targets):
        first, *rest = targets
        shape = (layout[0], *zip([t.skeleton for t in rest], layout[1:]))
        program = first.skeleton.insertions.get(shape)
        if program is not None:
            bound = program.bind(db, values)
    if bound is None:
        program = _prepare(registry, db, targets, values)
        if shape is not None and program.cacheable:
            # Published whole, with one assignment; it replaces a program
            # whose guards this call failed.
            targets[0].skeleton.insertions[shape] = program
        bound = values + program.constants
    return program.run(db, bound, itertools.count(1) if fresh is None else fresh)


# ---------------------------------------------------------------------------
# Stage 1-2: targets and templates
# ---------------------------------------------------------------------------


def _resolve_targets(
    registry: EdgeViewRegistry,
    store: ViewStore,
    db: Database,
    delta_v: ViewDelta,
) -> list[_TargetEdge]:
    """The ΔV insertions that are not derivable yet, deduplicated.

    A keyed view (:attr:`_Skeleton.keyed`) reads each occurrence's row
    once by key: the rows say whether the edge is derivable and, when it
    is not, which template program the target runs.
    """
    targets: list[_TargetEdge] = []
    seen: set[tuple[str, tuple, tuple]] = set()
    for op in delta_v.insertions():
        if not registry.has_view(op.parent_type, op.child_type):
            continue  # projection edge: derived, no base backing needed
        view = registry.view(op.parent_type, op.child_type)
        parent_params = view.params_of(store.sem_of(op.parent))
        child_sem = store.sem_of(op.child)
        dedup = (view.name, parent_params, child_sem)
        if dedup in seen:
            continue
        seen.add(dedup)
        target = _target(registry, db, view, parent_params, child_sem)
        if target is not None:
            targets.append(target)
    return targets


def _target(
    registry: EdgeViewRegistry,
    db: Database,
    view: EdgeView,
    parent_params: tuple,
    child_sem: tuple,
) -> _TargetEdge | None:
    """The edge as a target, or ``None`` when it is derivable already."""
    skeleton = _skeleton(registry, db, view)
    rows = None
    if skeleton.keyed:
        slots = (*parent_params, *child_sem, *skeleton.constants)
        if skeleton.conflict(slots) is None:
            rows = skeleton.read(db, slots)
            if skeleton.derives(slots, rows):
                return None  # set semantics: nothing to insert
    elif view.matching_rows(db, parent_params, child_sem):
        return None
    return _TargetEdge(view, parent_params, child_sem, skeleton, rows)


def _values(targets: list[_TargetEdge]) -> tuple[list, list[tuple]]:
    """A call's values, as its program binds them, and its row layout.

    The values are each target's visible values, then the cells of each
    stored row it read that no earlier occurrence read: a base tuple read
    twice (one shared child under several parents) is one set of values.
    The layout gives, per target and occurrence, -1 where no row was
    read, 0 where a row was read first, else the number (from 1) of the
    first read of the same row.
    """
    values: list = []
    layout: list[tuple] = []
    number: dict[int, int] = {}  # by the row's identity
    for target in targets:
        values += target.parent_params
        values += target.child_sem
        codes = []
        for row in target.rows or ():
            if row is None:
                codes.append(-1)
            elif id(row) in number:
                codes.append(number[id(row)])
            else:
                number[id(row)] = len(number) + 1
                codes.append(0)
                values += row
        layout.append(tuple(codes))
    return values, layout


class _Skeleton:
    """What Algorithm insert takes from one edge view alone.

    Every visible column is bound on every call, so which equality class
    a constant or a visible value fills, and hence each cell's class and
    whether it is known, depend on the view and the schemas only; so do
    the positions every column is read at.  A call binds ``slots``: the
    visible values, then ``constants``.

    A column-free conjunct is decided here, once: a true one is dropped,
    and a false one makes the view ``empty`` (it derives no edge), so
    every target is rejected and the sweep skips the view.

    For the templates (a target's view): ``rejection`` says why every
    target of the view is rejected (an unsupported term, a false or
    non-equality condition, conflicting constants), else ``visible``
    gives each visible column with the visible column or constant its class held
    before (what :meth:`conflict` compares), ``occurrences`` each base
    occurrence's relation, key slots and cells (slot of a filled cell,
    else -1; attribute; type), and ``key_rejection`` the first key cell
    no value fills.  The view is ``keyed`` when neither rejects (its
    condition is then equalities between columns and constants): a
    target reads its rows by key (:meth:`read`) and :meth:`derives`
    answers whether it is derivable, the question an SPJ run answers
    for any other view.  ``programs`` holds a :class:`_TemplateProgram`
    per shape (which occurrences' keys exist), built on first use, and
    ``insertions`` the :class:`_InsertionProgram` of each insertion shape
    whose first target is this view's.

    For the sweep (any view but one with an ``unsupported`` term):
    ``row`` gives, per output column, the alias and position it is read
    at, ``checks[alias]`` each equality conjunct mentioning ``alias`` as
    ``(conjunct index, aliases it needs, left, right)`` and
    ``probes[alias]`` each equality ``alias`` can be probed on as
    ``(attr, other, conjunct index)``, a term being ``(alias,
    position)`` or, for the ``i``-th constant, ``(None, i)``.  ``seeds``
    holds the prepared sweep per (seed position, seed's unknown mask).
    """

    def __init__(self, view: EdgeView, schemas: tuple) -> None:
        query = view.query
        self.view_name = view.name
        self.aliases = query.aliases
        self.relations = tuple(relation for relation, _ in query.tables)
        self.keyed = False
        self.constants: tuple = ()
        self.programs: dict[tuple, _TemplateProgram] = {}
        self.seeds: dict[tuple, _Admit] = {}
        self.insertions: dict[tuple, _InsertionProgram] = {}
        position = {
            alias: schema.index_of for (_, alias), schema in zip(query.tables, schemas)
        }
        constants: list = []

        def term(value) -> tuple:
            if isinstance(value, Col):
                return value.alias, position[value.alias](value.attr)
            if isinstance(value, Const):
                constants.append(value.value)
                return None, len(constants) - 1
            raise UpdateRejectedError(f"unsupported term {value!r} in insertion sweep")

        self.row: tuple[tuple, ...] = tuple(term(col) for _, col in query.project)
        self.checks: dict[str, tuple] = {alias: () for alias in query.aliases}
        self.probes: dict[str, tuple] = {alias: () for alias in query.aliases}
        self.rejection: str | None = None
        self.unsupported: str | None = None
        self.empty = False
        try:
            for conjunct, needs in query.conjunct_aliases:
                if not needs and not _holds(conjunct):
                    self.empty = True
                    self.rejection = (
                        f"view {view.name} derives no edge: its condition "
                        f"{conjunct} is false"
                    )
                    return
            for index, (conjunct, needs) in enumerate(query.conjunct_aliases):
                if not needs or not isinstance(conjunct, Eq):
                    continue
                left, right = term(conjunct.left), term(conjunct.right)
                for alias in needs:
                    self.checks[alias] += ((index, needs, left, right),)
                for this, other in ((conjunct.left, right), (conjunct.right, left)):
                    if isinstance(this, Col):
                        self.probes[this.alias] += ((this.attr, other, index),)
        except UpdateRejectedError as rejected:
            self.rejection = self.unsupported = rejected.args[0]
            return
        self.schemas = schemas
        self.constants = tuple(constants)

        classes = _UnionFind()
        known: dict = {}
        learnt: list[tuple[tuple, object]] = []
        try:
            for conjunct, needs in query.conjunct_aliases:
                if not needs:
                    continue  # true: decided above
                if not isinstance(conjunct, Eq):
                    raise UpdateRejectedError(
                        f"view {view.name} has a non-equality condition; "
                        "insertion translation supports equality SPJ views"
                    )
                left, right = conjunct.left, conjunct.right
                if isinstance(left, Col) and isinstance(right, Col):
                    classes.union((left.alias, left.attr), (right.alias, right.attr))
                else:
                    col, const = (left, right) if isinstance(left, Col) else (right, left)
                    learnt.append(((col.alias, col.attr), const.value))
            # Constants after every union, so each fills its class's root.
            for item, value in learnt:
                _learn(view, known, item, classes.find(item), value)
        except UpdateRejectedError as rejected:
            self.rejection = rejected.args[0]
            return

        # The slot a class's value is read from: its last visible column
        # (what _learn leaves in ``known``), else its constant.
        n_visible = view.n_params + view.n_child
        slot_of: dict = {}
        for root, value in known.items():
            slot_of[root] = n_visible + len(constants)
            constants.append(value)
        self.constants = tuple(constants)
        visible = []
        for index, (_, col) in enumerate(query.project[:n_visible]):
            item = (col.alias, col.attr)
            root = classes.find(item)
            visible.append((index, item, slot_of.get(root)))
            slot_of[root] = index
        self.visible: tuple[tuple[int, tuple, int | None], ...] = tuple(
            entry for entry in visible if entry[2] is not None
        )

        occurrences = []
        roots: list[list] = []
        self.key_rejection: str | None = None
        for (relation, alias), schema in zip(query.tables, schemas):
            cells = []
            roots.append([])
            for attr in schema.attributes:
                root = classes.find((alias, attr.name))
                roots[-1].append(root)
                cells.append((slot_of.get(root, -1), attr.name, attr.type))
            for attr in schema.key:
                if cells[schema.index_of(attr)][0] < 0 and self.key_rejection is None:
                    self.key_rejection = (
                        f"cannot determine key attribute {relation}.{attr} "
                        f"for a target edge of {view.name}"
                    )
            key_slots = tuple(cells[i][0] for i in schema.key_indexes)
            occurrences.append((relation, key_slots, tuple(cells)))
        self.occurrences: tuple[tuple[str, tuple, tuple], ...] = tuple(occurrences)
        self.roots = roots
        self.keyed = self.key_rejection is None

        # Derivable, once every occurrence's row is read by its key: each
        # filled cell outside the key holds its slot, each other class
        # one value.
        filled: list[tuple[int, int, int]] = []
        same: list[tuple[int, int, int, int]] = []
        first: dict = {}
        for o, ((_, _, cells), schema) in enumerate(zip(occurrences, schemas)):
            for at, (slot, _, _) in enumerate(cells):
                if slot >= 0:
                    if at not in schema.key_indexes:
                        filled.append((o, at, slot))
                    continue
                root = roots[o][at]
                if root in first:
                    same.append((o, at, *first[root]))
                else:
                    first[root] = (o, at)
        self._filled = tuple(filled)
        self._same = tuple(same)

    def conflict(self, slots: tuple) -> str | None:
        """Why a visible value contradicts another or a constant."""
        for index, item, before in self.visible:
            if slots[before] != slots[index]:
                return (
                    f"target edge of {self.view_name} is inconsistent: "
                    f"{item} must be both {slots[before]!r} and {slots[index]!r}"
                )
        return None

    def read(self, db: Database, slots: tuple) -> tuple:
        """Each occurrence's stored row, by its key, or ``None``."""
        return tuple([
            db.table(relation).get(tuple([slots[s] for s in key_slots]))
            for relation, key_slots, _ in self.occurrences
        ])

    def derives(self, slots: tuple, rows: tuple) -> bool:
        """Whether ``rows`` (from :meth:`read`) derive the edge."""
        if None in rows:
            return False
        for o, at, slot in self._filled:
            if rows[o][at] != slots[slot]:
                return False
        for o, at, other, other_at in self._same:
            if rows[o][at] != rows[other][other_at]:
                return False
        return True

    def program(self, shape: tuple) -> _TemplateProgram:
        """The template program of ``shape``, built on first use."""
        program = self.programs.get(shape)
        if program is None:  # published whole, with one assignment
            program = self.programs[shape] = _TemplateProgram(self, shape)
        return program

    def seed(self, seed_pos: int, mask: int) -> _Admit:
        """The prepared sweep from a new template of mask ``mask`` at
        ``seed_pos``, built on first use."""
        admit = self.seeds.get((seed_pos, mask))
        if admit is None:  # published whole, with one assignment
            admit = self.seeds[seed_pos, mask] = _Admit(self, ((seed_pos, mask),))
        return admit


def _skeleton(registry: EdgeViewRegistry, db: Database, view: EdgeView) -> _Skeleton:
    """``view``'s skeleton over ``db``'s schemas, built on first use.

    A table's schema is fixed when the table is created, so the view's
    last lookup answers a call on the same database; another database
    looks its schemas up, and a different schema misses."""
    name = view.name
    last = registry.last_skeleton.get(name)
    if last is not None and last[0] is db:
        return last[1]
    schemas = tuple([db.table(relation).schema for relation, _ in view.query.tables])
    cached = (name, schemas)
    skeleton = registry.skeletons.get(cached)
    if skeleton is None:  # published whole, with one assignment
        skeleton = registry.skeletons[cached] = _Skeleton(view, schemas)
    registry.last_skeleton[name] = (db, skeleton)
    return skeleton


def _holds(conjunct) -> bool:
    """A column-free conjunct's truth value, as an SPJ run decides it."""

    def constant(term):
        if not isinstance(term, Const):
            raise UpdateRejectedError(f"unsupported term {term!r} in insertion sweep")
        return lambda bound, slots: term.value

    return _compile_predicate(conjunct, constant)((), [])


def _learn(view: EdgeView, known: dict, item: tuple, root, value) -> None:
    """Record that ``item``'s class (``root``) holds ``value``."""
    if root in known and known[root] != value:
        raise UpdateRejectedError(
            f"target edge of {view.name} is inconsistent: "
            f"{item} must be both {known[root]!r} and {value!r}"
        )
    known[root] = value


class _TemplateProgram:
    """Stages 1–2 of one target, for one view and one *shape*: which of
    its occurrences' keys already exist.

    The shape fixes, for every unfilled cell, whether the first cell of
    its class met before it (in occurrence and cell order) is a stored
    value or an unknown, so every step is decided here.  An existing
    occurrence (``B_i`` in the appendix) tests its cells against earlier
    stored cells of their classes (``tests``), asserts them equal to
    earlier unknowns (``atoms``) and checks its filled cells against
    the target's values (``agree``).  A new occurrence (``U_i``) makes a
    :class:`SymVar` for each unfilled cell (``cells``) and asserts it
    equal to its class's earlier cell, in cell order (``atoms``).  A
    template for a base tuple an earlier occurrence or target already
    made is merged with it (:func:`_merge_templates`).
    """

    def __init__(self, skeleton: _Skeleton, shape: tuple) -> None:
        first: dict = {}  # class root -> (occurrence, position) of its first cell
        steps = []
        for o, ((relation, key_slots, cells), exists) in enumerate(
            zip(skeleton.occurrences, shape)
        ):
            tests, atoms, agree = [], [], []
            for at, (slot, _, _) in enumerate(cells):
                if slot >= 0:
                    if at not in skeleton.schemas[o].key_indexes:  # read by key
                        agree.append((at, slot))
                    continue
                root = skeleton.roots[o][at]
                earlier = first.setdefault(root, (o, at))
                if earlier == (o, at):
                    continue
                earlier_unknown = not shape[earlier[0]]
                if not exists:
                    atoms.append((*earlier, at, earlier_unknown))
                elif earlier_unknown:
                    atoms.append((*earlier, at))
                else:
                    tests.append((*earlier, at))
            if exists:
                steps.append((relation, key_slots, True, None, tuple(tests), tuple(atoms), tuple(agree)))
            else:
                steps.append((relation, key_slots, False, cells, (), tuple(atoms), ()))
        self.steps: tuple = tuple(steps)
        occurrence = {alias: o for o, alias in enumerate(skeleton.aliases)}
        self.row = tuple((occurrence[alias], at) for alias, at in skeleton.row)

    def run(
        self,
        view_name: str,
        slots: tuple,
        rows: tuple,
        templates: dict[tuple[str, tuple], Template],
        assertions: list[Atom],
    ) -> tuple:
        """Add this target's templates and assertions; its symbolic row."""
        local: list[tuple] = []  # each occurrence's cells
        merged: list[tuple] = []  # the same after merging with templates
        for o, (relation, key_slots, exists, cells, tests, atoms, agree) in enumerate(
            self.steps
        ):
            key = tuple([slots[s] for s in key_slots])
            if exists:
                values = rows[o]
                local.append(values)
                for other, other_at, at in tests:
                    if local[other][other_at] != values[at]:
                        raise UpdateRejectedError(
                            f"existing tuple {relation}{key} conflicts "
                            f"with a target edge of {view_name}"
                        )
                for other, other_at, at in atoms:
                    assertions.append(AtomVC(local[other][other_at], values[at]))
                for at, slot in agree:
                    if slots[slot] != values[at]:
                        raise UpdateRejectedError(
                            f"target edge of {view_name} requires "
                            f"{relation}{key} to hold {slots[slot]!r} but it "
                            f"holds {values[at]!r}"
                        )
            else:
                values = tuple([
                    slots[slot] if slot >= 0 else SymVar(relation, key, attr, attr_type)
                    for slot, attr, attr_type in cells
                ])
                local.append(values)
                for other, other_at, at, earlier_unknown in atoms:
                    if earlier_unknown:
                        atom = make_atom(local[other][other_at], values[at])
                        if atom is not True:
                            assertions.append(atom)
                    else:
                        assertions.append(AtomVC(values[at], local[other][other_at]))
            template = Template(relation, key, values, is_new=not exists)
            name = (relation, _untraced(key))
            prior = templates.get(name)
            if prior is None:
                templates[name] = template
            else:
                template, extra = _merge_templates(prior, template)
                templates[name] = template
                assertions.extend(extra)
            merged.append(template.values)
        return tuple([merged[o][at] for o, at in self.row])


def _build_templates(
    targets: list[_TargetEdge],
) -> tuple[dict[tuple[str, tuple], Template], list[Atom]]:
    """Build the tuple templates and the canonical assertions of traced
    targets (see :func:`_prepare`)."""
    templates: dict[tuple[str, tuple], Template] = {}
    assertions: list[Atom] = []
    for target in targets:
        skeleton, slots, rows = target.skeleton, target.slots, target.rows
        if rows is None:  # _target read no row: the view or the values reject
            raise UpdateRejectedError(
                skeleton.rejection or skeleton.conflict(slots) or skeleton.key_rejection
            )
        program = skeleton.program(tuple([row is not None for row in rows]))
        target.row = program.run(skeleton.view_name, slots, rows, templates, assertions)
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
    sweep: _Sweep,
) -> list[Derivation]:
    """Every symbolic derivation (of any view) using ≥1 new template."""
    new_by_relation = sweep.new_by_relation
    for template in templates.values():
        if template.is_new:
            mask = sum([
                1 << at for at, cell in enumerate(template.values)
                if isinstance(cell, SymVar)
            ])
            new_by_relation.setdefault(template.relation, []).append(
                (template.values, mask)
            )
    for view in registry.views():
        if any(relation in new_by_relation for relation, _ in view.query.tables):
            skeleton = _skeleton(registry, db, view)
            if skeleton.empty:
                continue
            if skeleton.unsupported is not None:
                raise UpdateRejectedError(skeleton.unsupported)
            sweep.view_name = skeleton.view_name
            constants = tuple([sweep.tape.constant(value) for value in skeleton.constants])
            for seed_pos, relation in enumerate(skeleton.relations):
                for values, mask in new_by_relation.get(relation, ()):
                    skeleton.seed(seed_pos, mask).run((constants, values), [], sweep)
    return sweep.out


class _Sweep:
    """What a sweep reads and writes: the database, the preparation's
    tape, the rows the call's key reads found (``known``, by relation and
    the identities of the key's traced values; ``None`` for a new
    template's key), the new templates per relation as ``(values, unknown
    mask)``, the view being swept and the derivations found so far."""

    __slots__ = ("db", "tape", "known", "new_by_relation", "view_name", "out")

    def __init__(self, db: Database, tape: _Tape, known: dict) -> None:
        self.db = db
        self.tape = tape
        self.known = known
        self.new_by_relation: dict[str, list[tuple[tuple, int]]] = {}
        self.view_name = ""
        self.out: list[Derivation] = []

    def candidates(self, step: _Step, bound: tuple):
        """The stored rows ``step``'s probe finds for ``bound``.

        A whole-key probe on a key the call read (the same traced values)
        answers from that read.  Every other probe is put on the tape and
        run; a probe on a value no call binds (a cell of a row a probe
        found) or one that finds a row makes the tape hold for this call
        only.  The rows found enter as traced constants, so every value
        the stages meet is traced and compares and hashes as the others.
        """
        if step.key is not None:
            key = (step.relation, *[id(bound[a][at]) for a, at in step.key])
            if key in self.known:
                row = self.known[key]
                if row is None:
                    return ()
                for position, (a, at) in step.rest:
                    if row[position] != bound[a][at]:
                        return ()
                return (row,)
        probe = [bound[a][at] for a, at in step.sources]
        if all(isinstance(value, _Traced) for value in probe):
            self.tape.probes.append(
                (step.relation, step.attrs, tuple([value.index for value in probe]))
            )
        else:
            self.tape.static = False
        table = self.db.table(step.relation)
        if step.attrs is None:
            rows = list(table.rows())
        else:
            rows = table.lookup(step.attrs, [getattr(v, "value", v) for v in probe])
        if rows:
            self.tape.static = False
            constant = self.tape.constant
            rows = [tuple([constant(value) for value in row]) for row in rows]
        return rows


class _Admit:
    """Admits a candidate row for the alias a sweep binds last.

    Prepared per *state*: which aliases are bound, in order, and which
    cells of each are unknowns (a bit mask; 0 for a stored row).  The
    state decides every equality conjunct the new alias completes — a
    test when both sides are values, an atom when one is an unknown —
    except those the probe that found the candidate already enforced
    (``enforced``, conjunct indexes), and what comes next: the next
    alias's :class:`_Step` or, once every alias is bound, where each
    output column is read (``row``).  ``bound`` holds the constants,
    then each bound alias's cells; a term is ``(index into bound,
    position)``.
    """

    __slots__ = ("tests", "atoms", "row", "step")

    def __init__(
        self, skeleton: _Skeleton, state: tuple, enforced: frozenset = frozenset()
    ) -> None:
        aliases = skeleton.aliases
        at_of = {aliases[a]: i + 1 for i, (a, _) in enumerate(state)}
        mask_of = {aliases[a]: mask for a, mask in state}

        def source(term: tuple) -> tuple[tuple[int, int], bool]:
            alias, at = term
            if alias is None:
                return (0, at), False
            return (at_of[alias], at), bool(mask_of[alias] >> at & 1)

        tests, atoms = [], []
        for index, needs, left, right in skeleton.checks[aliases[state[-1][0]]]:
            if index in enforced or not needs <= at_of.keys():
                continue
            (left, left_unknown), (right, right_unknown) = source(left), source(right)
            if left_unknown and right_unknown:
                atoms.append((left, right, True))
            elif left_unknown:
                atoms.append((left, right, False))
            elif right_unknown:
                atoms.append((right, left, False))
            else:
                tests.append((left, right))
        self.tests = tuple(tests)
        self.atoms = tuple(atoms)
        self.row = self.step = None
        remaining = [a for a, alias in enumerate(aliases) if alias not in at_of]
        if not remaining:
            self.row = tuple(source(term)[0] for term in skeleton.row)
            return
        # Bind next an alias some equality ties to a value (a stored cell
        # or a constant): its candidates are one probe.  Only a genuine
        # cross product is left to declaration order and a pass over its
        # table.  The join of SPJQuery.evaluate over the same equalities,
        # except that an unknown cell is no probe.
        for alias in remaining:
            probe = [
                (attr, source(other)[0], index)
                for attr, other, index in skeleton.probes[aliases[alias]]
                if (other[0] is None or other[0] in at_of) and not source(other)[1]
            ]
            if probe:
                break
        else:
            alias = remaining[0]
        self.step = _Step(skeleton, state, alias, probe)

    def run(self, bound: tuple, atoms: list, sweep: _Sweep) -> None:
        """Extend ``bound`` (its last row the candidate) if it passes."""
        for (a, at), (b, bt) in self.tests:
            if bound[a][at] != bound[b][bt]:
                return
        if self.atoms:
            atoms = atoms.copy()
            for (a, at), (b, bt), both_unknown in self.atoms:
                if both_unknown:
                    atom = make_atom(bound[a][at], bound[b][bt])
                    if atom is not True:
                        atoms.append(atom)
                else:
                    atoms.append(AtomVC(bound[a][at], bound[b][bt]))
        if self.step is None:
            sweep.out.append(Derivation(
                sweep.view_name,
                tuple([bound[a][at] for a, at in self.row]),
                tuple(dict.fromkeys(atoms)),
            ))
        else:
            self.step.extend(bound, atoms, sweep)


class _Step:
    """The next alias of a prepared sweep and how its candidates are found.

    ``probe`` lists ``(attr, term, conjunct index)``; empty for a cross
    product.  A probe that binds the whole primary key reads one row
    (``key``: the key's terms; ``rest``: ``(position, term)`` of every
    other probed attribute).  Stored candidates are admitted by
    ``probed``, which skips the conjuncts the probe enforced; at a
    position after the seed the new templates are candidates too, each
    admitted by ``admits[its unknown mask]``.
    """

    __slots__ = ("skeleton", "state", "alias", "relation", "attrs", "sources",
                 "key", "rest", "enforced", "after_seed", "probed", "admits")

    def __init__(self, skeleton: _Skeleton, state: tuple, alias: int, probe: list):
        self.skeleton = skeleton
        self.state = state
        self.alias = alias
        self.relation = skeleton.relations[alias]
        self.attrs = tuple(attr for attr, _, _ in probe) or None
        self.sources = tuple(source for _, source, _ in probe)
        self.enforced = frozenset(index for _, _, index in probe)
        self.key = self.rest = None
        schema = skeleton.schemas[alias]
        if self.attrs is not None and set(schema.key) <= set(self.attrs):
            first = [self.attrs.index(attr) for attr in schema.key]
            self.key = tuple(self.sources[i] for i in first)
            self.rest = tuple(
                (schema.index_of(attr), source)
                for i, (attr, source) in enumerate(zip(self.attrs, self.sources))
                if i not in first
            )
        self.after_seed = alias > state[0][0]
        self.probed: _Admit | None = None
        self.admits: dict[int, _Admit] = {}

    def extend(self, bound: tuple, atoms: list, sweep: _Sweep) -> None:
        candidates = sweep.candidates(self, bound)
        if candidates:
            admit = self.probed
            if admit is None:  # published whole, with one assignment
                admit = self.probed = _Admit(
                    self.skeleton, (*self.state, (self.alias, 0)), self.enforced
                )
            for cells in candidates:
                admit.run((*bound, cells), atoms, sweep)
        if self.after_seed:
            # Positions after the seed may also take new templates (U again).
            for values, mask in sweep.new_by_relation.get(self.relation, ()):
                admit = self.admits.get(mask)
                if admit is None:  # published whole, with one assignment
                    admit = self.admits[mask] = _Admit(
                        self.skeleton, (*self.state, (self.alias, mask))
                    )
                admit.run((*bound, values), atoms, sweep)


# ---------------------------------------------------------------------------
# Stage 4: solve in the equality domain
# ---------------------------------------------------------------------------

_UNBOUND = object()


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


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
# The insertion program: stages 1-4 once per shape, stage 5 per call
# ---------------------------------------------------------------------------


class _Tape:
    """What a preparation learnt about the values it ran on.

    ``values`` are the call's values (see :func:`_values`), ``constants``
    the views' constants the stages compared and the cells of any row a
    sweep probe found; a :class:`_Traced` value's ``index`` points into the
    two, in that order.  ``guards`` holds every comparison between two
    values not both constants, with its outcome, ``keyed`` the index of
    every value a template or a target row was looked up by (see
    :func:`_untraced`), and ``probes`` every probe of the sweep that the
    call's key reads do not answer, as ``(relation, attrs or None for a
    pass over the table, value indexes)``.  ``static`` is false once a
    probe found a row or a value no call binds was compared: then what
    the stages did holds for this call only.
    """

    def __init__(self, values: list) -> None:
        self.values = values
        self.constants: list = []
        self._interned: dict[tuple, _Traced] = {}
        self.guards: dict[tuple[int, int], bool] = {}
        self.keyed: set[int] = set()
        self.probes: list[tuple] = []
        self.static = True

    def traced(self, index: int) -> _Traced:
        return _Traced(self.values[index], index, self)

    def constant(self, value) -> _Traced:
        """``value`` as a traced constant, one object per value."""
        traced = self._interned.get((type(value), value))
        if traced is None:
            index = len(self.values) + len(self.constants)
            traced = self._interned[type(value), value] = _Traced(value, index, self)
            self.constants.append(value)
        return traced

    def compared(self, a: int, b: int, outcome: bool) -> None:
        n = len(self.values)
        if a != b and (a < n or b < n):
            self.guards[a, b] = outcome


class _Traced:
    """A value of the call a preparation runs on, in place of the value.

    It compares, prints and formats as its value does, and records each
    comparison on its :class:`_Tape`.  Its hash is constant, so a
    dictionary or set of them compares every pair it could confuse: no
    outcome is decided by a hash the next call's values would change.
    The lookups whose count grows with the targets' (the templates by
    key, the target rows) go by the values instead (:func:`_untraced`).
    """

    __slots__ = ("value", "index", "tape")

    def __init__(self, value, index: int, tape: _Tape) -> None:
        self.value = value
        self.index = index
        self.tape = tape

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, _Traced):
            outcome = self.value == other.value
            self.tape.compared(self.index, other.index, outcome)
            return outcome
        if isinstance(other, SymVar):
            return False
        self.tape.static = False  # a value of a domain the residue reads
        return self.value == other

    def __hash__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return repr(self.value)

    def __str__(self) -> str:
        return str(self.value)


def _untraced(cells: tuple) -> tuple:
    """``cells`` with each traced value's own value, to look up by.

    A dictionary of them decides by the equalities among those values
    alone, one hash each, where traced ones would be compared pairwise;
    each value's position goes on its tape (``keyed``), and a program
    checks the equalities among them whole (:func:`_partition`).
    """
    out = []
    for cell in cells:
        if isinstance(cell, _Traced):
            cell.tape.keyed.add(cell.index)
            cell = cell.value
        out.append(cell)
    return tuple(out)


def _prepare(
    registry: EdgeViewRegistry,
    db: Database,
    targets: list[_TargetEdge],
    values: list,
) -> _InsertionProgram:
    """Stages 1–4 over this call's values, traced: its program.

    Every value of the call (visible values, stored cells) and every
    constant enters the stages as a :class:`_Traced`, so the templates,
    assertions, sweep and solve are worked out once over positions, and
    the tape records each comparison they depended on and each value
    they looked up by.  A stored row
    carries its key's traced values at its key cells: a probe by those
    values is the read that found it.  Rejections raise here, with the
    messages the values give.
    """
    tape = _Tape(values)
    traced: list[_TargetEdge] = []
    known: dict[tuple, tuple | None] = {}
    read: dict[int, tuple] = {}  # each row's traced cells, by its identity
    index = 0
    for target in targets:
        skeleton = target.skeleton
        n_visible = len(target.parent_params) + len(target.child_sem)
        visible = [tape.traced(index + i) for i in range(n_visible)]
        index += n_visible
        slots = (*visible, *[tape.constant(value) for value in skeleton.constants])
        rows = None
        if target.rows is not None:
            rows = []
            for (relation, key_slots, _), schema, row in zip(
                skeleton.occurrences, skeleton.schemas, target.rows
            ):
                key = tuple([slots[s] for s in key_slots])
                if row is not None:
                    cells = read.get(id(row))
                    if cells is None:  # a first read, as _values lays it out
                        cells = [tape.traced(index + at) for at in range(len(row))]
                        index += len(row)
                        for at, value in zip(schema.key_indexes, key):
                            cells[at] = value
                        cells = read[id(row)] = tuple(cells)
                    row = cells
                rows.append(row)
                known[relation, *map(id, key)] = row
        copy = _TargetEdge(
            target.view, tuple(visible[: len(target.parent_params)]),
            tuple(visible[len(target.parent_params):]), skeleton, rows,
        )
        copy.slots = slots
        traced.append(copy)

    plan = InsertionPlan()
    templates, assertions = _build_templates(traced)
    plan.new_templates = [t for t in templates.values() if t.is_new]
    for target in traced:
        plan.target_rows.append((target.view.name, target.row))
    target_rows = {(name, _untraced(row)) for name, row in plan.target_rows}
    classes = _Classes()
    if not plan.new_templates:
        # Everything already present: targets must hold unconditionally.
        for atom in assertions:
            raise UpdateRejectedError(
                f"target requires condition {atom} but no new tuple can "
                "carry it"
            )
    else:
        derivations = _sweep_side_effects(registry, db, templates, _Sweep(db, tape, known))
        plan.derivations_checked = len(derivations)
        units = assertions  # and every atom of a target's derivation
        side_effects: list[Derivation] = []
        covered: set[tuple[str, tuple]] = set()
        for derivation in derivations:
            key = (derivation.view_name, _untraced(derivation.row))
            if key in target_rows:
                covered.add(key)
                units.extend(derivation.atoms)
                continue
            if not derivation.atoms:
                raise UpdateRejectedError(
                    f"insertion causes an unconditional side effect on view "
                    f"{derivation.view_name}: row {derivation.row!r}"
                )
            side_effects.append(derivation)
        missing = target_rows - covered
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
    return _InsertionProgram(tape, plan, classes)


class _InsertionProgram:
    """Algorithm insert for one insertion shape, as a call runs it.

    A shape is each target's view, which of its occurrences exist and
    which of them read one stored row (:func:`_values`), in target order;
    :func:`_prepare` works out the rest once, over positions.  A call's
    values are one list (see :class:`_Tape`), and :meth:`bind` checks
    that they compare as the prepared ones did (``guards``: pairs, at
    least one of them never looked up by; ``partition``: which of those,
    ``keyed``, are equal) and that every probe the sweep could not answer
    from the key reads (``probes``) still finds no row.  Then :meth:`run` only
    builds: the unknowns (``unknowns``: relation, key, attribute, type),
    the new templates (``templates``: relation, key, cells) and target
    rows over positions (``rows``; a key is the positions of one of
    ``keys``), and ΔR, where each unknown takes its class's bound value
    or the fresh value minted for its class (``classes``: bound position
    or ``None``, class), minting in ``order`` — the unknowns'
    :attr:`~SymVar.order`, fixed by the shape while no two new templates
    share a relation, else sorted per call.
    """

    def __init__(self, tape: _Tape, plan: InsertionPlan, classes: _Classes) -> None:
        # Taken first: the comparisons below only re-read what they decided.
        keyed = tape.keyed.copy()
        self.guards = tuple(
            (a, b, outcome) for (a, b), outcome in tape.guards.items()
            if a not in keyed or b not in keyed
        )
        self.keyed = tuple(sorted(keyed))
        self.partition = _partition(tape.values + tape.constants, self.keyed)
        # Numbered by identity: a new template's variables are distinct
        # objects, and dictionaries of variables hash each one in Python.
        unknowns: list[SymVar] = [
            cell for t in plan.new_templates for cell in t.values
            if isinstance(cell, SymVar)
        ]
        number = {id(var): u for u, var in enumerate(unknowns)}
        roots: dict[SymVar, int] = {}
        of_class = []
        for var in unknowns:
            root = classes.find(var)
            value = classes.value.get(root, _UNBOUND)
            if value is not _UNBOUND and not isinstance(value, _Traced):
                value = tape.constant(value)  # a BOOL value the residue chose
            of_class.append((
                None if value is _UNBOUND else value.index,
                roots.setdefault(root, len(roots)),
            ))
        n = len(tape.values) + len(tape.constants)

        def position(cell) -> int:
            if not isinstance(cell, SymVar):
                return cell.index
            u = number.get(id(cell))
            if u is None:  # a target row holds the variable a merge replaced
                u = unknowns.index(cell)
            return n + u

        self.constants = list(tape.constants)
        self.probes = tuple(tape.probes)
        self.cacheable = tape.static and plan.solver != "dpll"
        self.scalars = {
            "num_vars": plan.num_vars,
            "num_clauses": plan.num_clauses,
            "solver": plan.solver,
            "derivations_checked": plan.derivations_checked,
        }
        keys: dict[tuple, int] = {}
        key_of: dict[int, int] = {}  # by the key tuple's identity

        def key(cells: tuple) -> int:
            k = key_of.get(id(cells))
            if k is None:
                positions = tuple([cell.index for cell in cells])
                k = key_of[id(cells)] = keys.setdefault(positions, len(keys))
            return k

        self.unknowns = tuple(
            (var.relation, key(var.key), var.attr, var.attr_type) for var in unknowns
        )
        self.templates = tuple(
            (t.relation, key(t.key), tuple([position(cell) for cell in t.values]))
            for t in plan.new_templates
        )
        self.keys = tuple(keys)
        self.classes = tuple(of_class)
        self.rows = tuple(
            (name, tuple([position(cell) for cell in row]))
            for name, row in plan.target_rows
        )
        # Names are "relation.key.attr": with one new template per
        # relation and no "." in a relation's name, "relation." decides
        # between relations and the attribute within one, whatever the key.
        relations = [t.relation for t in plan.new_templates]
        self.order: tuple[int, ...] | None = None
        if len(set(relations)) == len(relations) and not any("." in r for r in relations):
            self.order = tuple(sorted(
                range(len(unknowns)),
                key=lambda u: (unknowns[u].relation + ".", unknowns[u].attr),
            ))

    def bind(self, db: Database, values: list) -> list | None:
        """``values`` and the constants, if this program is the call's."""
        bound = values + self.constants
        for a, b, outcome in self.guards:
            if (bound[a] == bound[b]) is not outcome:
                return None
        if _partition(bound, self.keyed) != self.partition:
            return None
        for relation, attrs, sources in self.probes:
            table = db.table(relation)
            if attrs is None:
                if len(table):
                    return None
            elif table.lookup(attrs, [bound[i] for i in sources]):
                return None
        return bound

    def run(self, db: Database, bound: list, fresh: Iterator[int]) -> InsertionPlan:
        """The call's plan: its unknowns, templates and target rows, and ΔR."""
        plan = InsertionPlan(**self.scalars)
        n = len(bound)
        keys = [tuple([bound[i] for i in key]) for key in self.keys]
        unknowns = [
            SymVar(relation, keys[key], attr, attr_type)
            for relation, key, attr, attr_type in self.unknowns
        ]
        cells = bound + unknowns
        plan.new_templates = [
            Template(relation, keys[key], tuple([cells[i] for i in values]), True)
            for relation, key, values in self.templates
        ]
        plan.target_rows = [
            (name, tuple([cells[i] for i in row])) for name, row in self.rows
        ]
        if unknowns:
            order = self.order
            if order is None:
                order = sorted(range(len(unknowns)), key=lambda u: unknowns[u].order)
            minted: dict[int, object] = {}
            for u in order:
                source, root = self.classes[u]
                if source is not None:
                    cells[n + u] = bound[source]
                    continue
                value = minted.get(root, _UNBOUND)
                if value is _UNBOUND:
                    value = minted[root] = _fresh_value(db, unknowns[u], fresh)
                cells[n + u] = value
        for relation, _, values in self.templates:
            plan.delta_r.insert(relation, tuple([cells[i] for i in values]))
        return plan


def _partition(values: list, positions: tuple) -> tuple:
    """Which of ``positions`` hold equal values: each one's first equal."""
    first: dict = {}
    return tuple([first.setdefault(values[i], i) for i in positions])


def _fresh_value(db: Database, var: SymVar, fresh: Iterator[int]):
    """A value of the right type guaranteed outside the active domain.

    An INT lies above the column's :meth:`~Table.int_ceiling`.  A FLOAT
    or STR takes the next sequence number whose value the column does
    not hold: the sequence restarts with every updater (a recovered
    service, a second view over the same database), the column does not.
    """
    attr_type = var.attr_type
    if attr_type is _INT:
        return db.table(var.relation).int_ceiling(var.attr) + 1_000_000 + next(fresh)
    if attr_type is _BOOL:
        return False
    table = db.table(var.relation)
    while True:
        seq = next(fresh)
        if attr_type is _FLOAT:
            value = 1e12 + seq
        else:
            value = f"zz_fresh_{seq}"
        if not table.lookup([var.attr], [value]):
            return value


# An enum member read off its class costs a lookup each time.
_INT, _BOOL, _FLOAT = AttrType.INT, AttrType.BOOL, AttrType.FLOAT
