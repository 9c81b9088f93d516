"""The compiled SPJ join and Algorithm insert's prepared programs.

``SPJQuery.evaluate`` plans its join once per ``fixed`` shape and per
schemas; Algorithm insert derives what it needs from an edge view once
per view (``_Skeleton``), its templates once per insertion shape and its
sweep once per seed shape; a call only binds values.  Both are checked
here against the per-call code they replaced (``uncompiled.py``), and
their caches are counted through the seams that fill them.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atg.model import ATG, QueryRule
from repro.core import plan as plan_module
from repro.core.updater import PlanState, XMLViewUpdater
from repro.errors import QueryError, SchemaError, UpdateRejectedError
from repro.ops import InsertOp
from repro.service import open_view
from repro.relational.conditions import And, Col, Const, Eq, Ne, Param
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.relview import insert as insert_module
from repro.relview.insert import _TargetEdge
from repro.relview.symbolic import Template
from repro.sat.atoms import SymVar
from repro.views.registry import EdgeView, EdgeViewRegistry, build_registry
from repro.workloads import named_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

import uncompiled
from test_property_relview import build_instance, registrar_instances
from test_sqlite_backend import _SCHEMAS, _VALUES, _cases, _databases

_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _assert_same(query, database, bindings, fixed):
    for with_derivations in (False, True):
        compiled = query.evaluate(
            database, bindings, fixed=fixed, with_derivations=with_derivations
        )
        expected = uncompiled.interpret(
            query, database, bindings, fixed=fixed, with_derivations=with_derivations
        )
        assert compiled.rows == expected.rows
        assert compiled.derivations == expected.derivations


# ---------------------------------------------------------------------------
# The compiled join against the interpreter
# ---------------------------------------------------------------------------


@_SETTINGS
@given(database=_databases(), case=_cases())
def test_compiled_join_agrees_with_the_interpreter(database, case):
    """1–3 aliases, self-joins, Params, Or/Not/Ne/Lt, cross products and
    ``fixed``: the same rows in the same order, the same derivations."""
    query, bindings, fixed = case
    _assert_same(query, database, bindings, fixed)


_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(sorted(_SCHEMAS)),
        st.booleans(),  # insert (else delete)
        st.integers(0, 5),
        _VALUES[AttrType.INT],
        _VALUES[AttrType.STR],
    ),
    min_size=1,
    max_size=8,
)


@_SETTINGS
@given(database=_databases(), case=_cases(), mutations=_MUTATIONS, data=st.data())
def test_one_plan_serves_every_value_and_every_state(database, case, mutations, data):
    """One shape evaluated again and again, with other values and with
    rows inserted and deleted between the calls: a plan that captured a
    value or a row would drift from the interpreter."""
    query, bindings, fixed = case
    for relation, insert, key, number, text in mutations:
        table = database.table(relation)
        if insert and not table.has_key((key,)):
            table.insert((key, number, text))
        elif not insert and table.has_key((key,)):
            table.delete_by_key((key,))
        values = [
            data.draw(_VALUES[database.schema(query.relation_of(col.alias))
                      .attribute(col.attr).type])
            for col, _ in fixed
        ]
        _assert_same(
            query, database, bindings, [(col, v) for (col, _), v in zip(fixed, values)]
        )


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------


@pytest.fixture
def compiles(monkeypatch):
    """Every plan ``SPJQuery`` compiles, as ``(query name, fixed shape)``."""
    seen = []
    original = SPJQuery._compile

    def counted(self, shape, schemas):
        seen.append((self.name, shape))
        return original(self, shape, schemas)

    monkeypatch.setattr(SPJQuery, "_compile", counted)
    return seen


def _two_tables(r_order=("a", "b")):
    types = {"a": AttrType.INT, "b": AttrType.STR}
    database = Database()
    database.create_table(
        RelationSchema("r", [(name, types[name]) for name in r_order], ["a"])
    )
    database.create_table(
        RelationSchema("s", [("c", AttrType.INT), ("d", AttrType.STR)], ["c"])
    )
    for a, b in [(1, "x"), (2, "y"), (3, "x")]:
        row = {"a": a, "b": b}
        database.insert("r", tuple(row[name] for name in r_order))
    database.insert_all("s", [(1, "u"), (2, "v"), (3, "u")])
    return database


_JOIN = SPJQuery(
    "join",
    [("r", "r"), ("s", "s")],
    [("a", Col("r", "a")), ("b", Col("r", "b")), ("d", Col("s", "d"))],
    Eq(Col("r", "a"), Col("s", "c")),
)


class TestPlanCache:
    def test_one_plan_per_shape(self, compiles):
        query = SPJQuery(
            "q", _JOIN.tables, _JOIN.project, _JOIN.where
        )
        database = _two_tables()
        for value in (1, 2, 3, 4, 1, 2):
            query.evaluate(database, fixed=[(Col("s", "c"), value)])
        assert compiles == [("q", (("s", "c"),))]
        query.evaluate(database, fixed=[(Col("r", "b"), "x")])
        query.evaluate(database, fixed=[(Col("r", "b"), "y")])
        query.evaluate(database)
        query.evaluate(database)
        assert compiles == [("q", (("s", "c"),)), ("q", (("r", "b"),)), ("q", ())]

    def test_params_are_bound_not_compiled(self, compiles):
        query = SPJQuery(
            "p", _JOIN.tables, _JOIN.project,
            And(_JOIN.where, Eq(Col("s", "d"), Param("d"))),
        )
        database = _two_tables()
        assert [query.evaluate(database, {"d": d}).rows for d in ("u", "v", "w")] == [
            [(1, "x", "u"), (3, "x", "u")], [(2, "y", "v")], []
        ]
        assert len(compiles) == 1

    def test_other_attribute_order_gets_its_own_plan(self, compiles):
        query = SPJQuery("q", _JOIN.tables, _JOIN.project, _JOIN.where)
        ab, ba = _two_tables(("a", "b")), _two_tables(("b", "a"))
        fixed = [(Col("r", "b"), "x")]
        assert query.evaluate(ab, fixed=fixed).rows == [(1, "x", "u"), (3, "x", "u")]
        assert query.evaluate(ba, fixed=fixed).rows == [(1, "x", "u"), (3, "x", "u")]
        assert query.evaluate(ab, fixed=fixed).rows == [(1, "x", "u"), (3, "x", "u")]
        assert len(compiles) == 2
        # An equal schema (same names, order and key) shares the plan.
        assert query.evaluate(_two_tables(("a", "b")), fixed=fixed).rows
        assert len(compiles) == 2

    def test_a_failed_compile_caches_nothing(self, compiles):
        query = SPJQuery("q", _JOIN.tables, _JOIN.project, _JOIN.where)
        database = _two_tables()
        with pytest.raises(SchemaError):
            query.evaluate(database, fixed=[(Col("r", "nosuch"), 1)])
        with pytest.raises(QueryError, match="names an unknown alias"):
            query.evaluate(database, fixed=[(Col("nosuch", "a"), 1)])
        assert query._plans == {}
        assert query.evaluate(database, fixed=[(Col("r", "a"), 2)]).rows == [
            (2, "y", "v")
        ]
        assert len(query._plans) == 1


# ---------------------------------------------------------------------------
# Algorithm insert's template skeleton
# ---------------------------------------------------------------------------


def _checked_prepare(registry, db, view, parent_params, child_sem):
    """The product's program for one target edge and the per-call
    reference on it: the same new templates and target row, or the same
    rejection.  Returns the program's plan (its unknowns not minted)."""
    copy = _TargetEdge(view, parent_params, child_sem)
    try:
        templates, _ = uncompiled.build_templates(db, [copy])
    except UpdateRejectedError as rejected:
        with pytest.raises(UpdateRejectedError) as raised:
            _prepared(registry, db, view, parent_params, child_sem)
        assert str(raised.value) == str(rejected)
        raise
    plan = _prepared(registry, db, view, parent_params, child_sem)
    assert plan.new_templates == [t for t in templates.values() if t.is_new]
    assert plan.target_rows == [(view.name, copy.row)]
    return plan


def _prepared(registry, db, view, parent_params, child_sem):
    target = insert_module._target(registry, db, view, parent_params, child_sem)
    values, _ = insert_module._values([target])
    program = insert_module._prepare(registry, db, [target], values)
    return program.run(db, values + program.constants, itertools.count(1))


def _sweep(registry, db, templates):
    """The product's sweep of ``templates``, as a preparation runs it:
    every value traced (here as a constant of the tape)."""
    tape = insert_module._Tape([])
    traced = {
        name: Template(template.relation, template.key, tuple(
            cell if isinstance(cell, SymVar) else tape.constant(cell)
            for cell in template.values
        ), template.is_new)
        for name, template in templates.items()
    }
    sweep = insert_module._Sweep(db, tape, {})
    return insert_module._sweep_side_effects(registry, db, traced, sweep)


def _summary(plan):
    return (
        [(op.kind, op.relation, op.row) for op in plan.delta_r],
        plan.target_rows,
        plan.new_templates,
        plan.derivations_checked,
        plan.solver,
        plan.num_vars,
        plan.num_clauses,
    )


def _checked_translate(registry, store, db, delta_v, fresh=None):
    """``translate_insertions`` against the per-call reference stages
    (``uncompiled.reference_insert``) on the same state and the same
    fresh-value sequence: the same ``InsertionPlan`` or the same
    rejection."""
    fresh, reference_fresh = itertools.tee(itertools.count(1) if fresh is None else fresh)
    translate = insert_module.translate_insertions
    try:
        expected = uncompiled.translate_insertions(
            registry, store, db, delta_v, reference_fresh
        )
    except UpdateRejectedError as rejected:
        with pytest.raises(UpdateRejectedError) as raised:
            translate(registry, store, db, delta_v, fresh)
        assert str(raised.value) == str(rejected)
        raise
    plan = translate(registry, store, db, delta_v, fresh)
    assert _summary(plan) == _summary(expected)
    return plan


def _plan_all(updater, ops):
    """Plan and commit ``ops`` with every translation checked; return
    how many translations were checked and how many of them rejected."""
    calls = []

    def checked(*args, **kwargs):
        calls.append("rejected")
        plan = _checked_translate(*args, **kwargs)
        calls[-1] = "planned"
        return plan

    with mock.patch.object(plan_module, "translate_insertions", checked):
        for op in ops:
            plan = updater.plan(op)
            if plan.state is PlanState.PLANNED:
                plan.commit()
    return len(calls), calls.count("rejected")


@given(
    registrar_instances(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from(
                ["new", "existing", "retitled", "new student", "student", "renamed"]
            ),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_skeleton_templates_agree_on_registrar_insertions(spec, inserts):
    """Whole translations against the per-call reference: new, shared
    and conflicting courses and students, under one parent or, with
    ``//prereq``, under every course at once (one target per parent, the
    child's templates merged)."""
    atg, db = build_instance(spec)
    n_courses = spec[0]
    ops = []
    for index, (parent, kind, child) in enumerate(inserts):
        course = f"//course[cno=C{parent % n_courses:02d}]"
        cno = f"C{child % n_courses:02d}"
        if kind in ("new", "existing", "retitled"):
            path = "//prereq" if parent == 7 else f"{course}/prereq"
            sem = {
                "new": (f"N{index:02d}", "new"),
                "existing": (cno, f"t{child % n_courses}"),
                "retitled": (cno, "another title"),  # conflicts with the stored row
            }[kind]
            ops.append(InsertOp(path, "course", sem))
        else:
            path = "//takenBy" if parent == 7 else f"{course}/takenBy"
            ssn = f"S{child % 4:02d}"
            sem = {
                "new student": (f"T{index:02d}", "new"),
                "student": (ssn, f"n{child % 4}"),
                "renamed": (ssn, "another name"),
            }[kind]
            ops.append(InsertOp(path, "student", sem))
    _plan_all(XMLViewUpdater(atg, db, strict=False), ops)


@given(
    st.integers(min_value=30, max_value=60),
    st.integers(min_value=0, max_value=50),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_skeleton_templates_agree_on_synthetic_insertions(n_c, seed, parents):
    """Whole translations against the per-call reference: new-key and
    existing-key inserts under ``//cnode[key=k]/sub``."""
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    store = updater.store
    keys = sorted(
        store.sem_of(node)[0] for node in store.nodes()
        if store.type_of(node) == "cnode"
    )
    ops = []
    for i, parent in enumerate(parents):
        path = f"//cnode[key={keys[parent % len(keys)]}]/sub"
        if i == 0 or parent % 2:
            ops.append(InsertOp(path, "cnode", (n_c + 1 + i, "new")))
        else:
            child = keys[(parent // 2) % len(keys)]
            node = next(
                n for n in store.nodes()
                if store.type_of(n) == "cnode" and store.sem_of(n)[0] == child
            )
            ops.append(InsertOp(path, "cnode", store.sem_of(node)))
    checked, _ = _plan_all(updater, ops)
    assert checked > 0


@st.composite
def _sweep_cases(draw):
    """A registry of equality views over ``r(a, b, s)`` / ``t(c, d, u)``
    (1–3 aliases, self-joins, column and constant terms, now and then a
    non-equality the sweep ignores or a column-free conjunct it decides)
    and new templates of both relations
    whose non-key cells may be unknowns."""
    views = {}
    for index in range(draw(st.integers(1, 2))):
        relations = draw(st.lists(st.sampled_from(["r", "t"]), min_size=1, max_size=3))
        tables = [(relation, f"x{i}") for i, relation in enumerate(relations)]
        columns = {
            attr_type: [
                Col(alias, attr.name)
                for relation, alias in tables
                for attr in _SCHEMAS[relation].attributes
                if attr.type is attr_type
            ]
            for attr_type in _VALUES
        }
        conjuncts = []
        for attr_type in draw(st.lists(st.sampled_from(list(_VALUES)), max_size=4)):
            left = draw(st.sampled_from(columns[attr_type]))
            right = draw(st.one_of(
                st.sampled_from(columns[attr_type]),
                st.sampled_from(columns[attr_type]),  # twice: joins are the point
                _VALUES[attr_type].map(Const),
            ))
            conjuncts.append(draw(st.sampled_from([Eq, Eq, Eq, Ne]))(left, right))
        if draw(st.integers(0, 5)) == 0:  # a column-free conjunct
            conjuncts.append(Eq(Const(1), Const(draw(st.integers(1, 2)))))
        outputs = draw(st.lists(
            st.sampled_from(columns[AttrType.INT] + columns[AttrType.STR]),
            min_size=1, max_size=3,
        ))
        query = SPJQuery(
            f"v{index}", tables, [(f"o{i}", col) for i, col in enumerate(outputs)],
            And(*conjuncts),
        )
        views["p", f"v{index}"] = EdgeView("p", f"v{index}", query, (), (), {})
    templates = {}
    for relation in draw(st.lists(st.sampled_from(["r", "t"]), min_size=1, max_size=3)):
        schema = _SCHEMAS[relation]
        key = (draw(st.integers(6, 7)),)
        values = key + tuple(
            SymVar(relation, key, attr.name, attr.type)
            if draw(st.integers(0, 2)) else draw(_VALUES[attr.type])
            for attr in schema.attributes[1:]
        )
        templates.setdefault((relation, key), Template(relation, key, values, True))
    return EdgeViewRegistry(None, views), templates


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(database=_databases(), case=_sweep_cases())
def test_the_prepared_sweep_agrees_with_the_per_call_sweep(database, case):
    """The same derivations, in the same order, with the same atoms in
    the same order — joins between two unknowns, stored rows against an
    unknown cell, probes a conjunct does not reach."""
    registry, templates = case
    expected = uncompiled.sweep_side_effects(registry, database, templates)
    assert _sweep(registry, database, templates) == expected
    # Again, from the prepared programs.
    assert _sweep(registry, database, templates) == expected


def _view(name, tables, project, where, n_params=1):
    """An edge view over ``r(a, b)`` / ``s(c, d)``: ``n_params`` parameter
    columns, then the child's, then every key."""
    query = SPJQuery(name, tables, project, where)
    n_child = len(project) - n_params - len(tables)
    return EdgeView(
        parent_type="p",
        child_type=name,
        query=query,
        param_names=tuple(out for out, _ in project[:n_params]),
        child_columns=tuple(out for out, _ in project[n_params : n_params + n_child]),
        key_layout={},
    )


_NEW_PREREQ = InsertOp(
    "course[cno=CS650]/prereq", "course", ("CS240", "Data Structures")
)
_R_ONLY = [("r", "r")]
_R_S = [("r", "r"), ("s", "s")]
_R_KEYED = [("pa", Col("r", "a")), ("b", Col("r", "b")), ("k_r_a", Col("r", "a"))]


@pytest.mark.parametrize(
    "view, parent_params, child_sem, message",
    [
        pytest.param(
            _view("inconsistent", _R_ONLY, _R_KEYED, Eq(Col("r", "b"), Const("x"))),
            (7,), ("y",),
            "target edge of edge_p_inconsistent is inconsistent: "
            "('r', 'b') must be both 'x' and 'y'",
            id="inconsistent-target",
        ),
        pytest.param(
            _view(
                "constants", _R_ONLY, _R_KEYED,
                And(Eq(Col("r", "b"), Const("x")), Eq(Const("y"), Col("r", "b"))),
            ),
            (7,), ("x",),
            "target edge of edge_p_constants is inconsistent: "
            "('r', 'b') must be both 'x' and 'y'",
            id="conflicting-constants",
        ),
        pytest.param(
            _view(
                "undeterminable", _R_S,
                _R_KEYED + [("k_s_c", Col("s", "c"))],
                Eq(Col("r", "b"), Col("s", "d")),
            ),
            (7,), ("x",),
            "cannot determine key attribute s.c for a target edge of "
            "edge_p_undeterminable",
            id="undeterminable-key",
        ),
        pytest.param(
            _view("nonequality", _R_ONLY, _R_KEYED, Ne(Col("r", "b"), Const("x"))),
            (7,), ("y",),
            "view edge_p_nonequality has a non-equality condition; "
            "insertion translation supports equality SPJ views",
            id="non-equality-view",
        ),
        pytest.param(
            _view("stored", _R_ONLY, _R_KEYED, And()),
            (1,), ("y",),
            "target edge of edge_p_stored requires r(1,) to hold 'y' but it "
            "holds 'x'",
            id="conflict-with-a-stored-row",
        ),
        pytest.param(
            _view(
                "joined", _R_S,
                [("pa", Col("r", "a")), ("c", Col("s", "c")),
                 ("k_r_a", Col("r", "a")), ("k_s_c", Col("s", "c"))],
                Eq(Col("r", "b"), Col("s", "d")),
            ),
            (1,), (2,),
            "existing tuple s(2,) conflicts with a target edge of edge_p_joined",
            id="stored-rows-conflict-on-a-class",
        ),
    ],
)
def test_each_rejection_keeps_its_message(view, parent_params, child_sem, message):
    database = _two_tables()
    registry = EdgeViewRegistry(None, {("p", view.child_type): view})
    with pytest.raises(UpdateRejectedError) as raised:
        _checked_prepare(registry, database, view, parent_params, child_sem)
    assert str(raised.value) == message
    # Again, from the cached skeleton.
    with pytest.raises(UpdateRejectedError) as raised:
        _prepared(registry, database, view, parent_params, child_sem)
    assert str(raised.value) == message


def _registrar_with_prereq_conjunct(conjunct):
    """The registrar view with ``conjunct`` added to its prereq rule."""
    atg, db = build_registrar()
    query = atg.rules["prereq", "course"].query
    rules = dict(atg.rules)
    rules["prereq", "course"] = QueryRule("prereq", "course", SPJQuery(
        query.name, query.tables, query.project,
        And(*query.where.conjuncts(), conjunct),
    ))
    signatures = {element: atg.signature(element) for element in atg.dtd.types}
    return ATG(atg.dtd, signatures, list(rules.values())), db


def test_a_false_constant_conjunct_rejects_every_target():
    """``1 = 2`` names no column: the view derives no edge, so no insert
    under ``prereq`` can be translated."""
    service = open_view(*_registrar_with_prereq_conjunct(Eq(Const(1), Const(2))))
    assert not service.xpath("course[cno=CS650]/prereq/course").targets
    with pytest.raises(UpdateRejectedError, match="derives no edge"):
        with uncompiled.reference_insert():
            service.apply(_NEW_PREREQ)
    with pytest.raises(UpdateRejectedError, match="derives no edge"):
        service.apply(_NEW_PREREQ)
    assert service.check_consistency() == []


def test_a_true_constant_conjunct_is_dropped():
    service = open_view(*_registrar_with_prereq_conjunct(Eq(Const(1), Const(1))))
    registry = service.updater.registry
    view = registry.view("prereq", "course")
    assert insert_module._skeleton(registry, service.db, view).keyed
    outcome = service.apply(_NEW_PREREQ)
    assert [(op.relation, op.row) for op in outcome.delta_r] == [
        ("prereq", ("CS650", "CS240"))
    ]
    assert service.check_consistency() == []


def test_the_sweep_skips_a_view_that_derives_nothing():
    database = _two_tables()
    view = _view("never", _R_ONLY, _R_KEYED, Eq(Const(1), Const(2)))
    registry = EdgeViewRegistry(None, {("p", "never"): view})
    key = (7,)
    templates = {
        ("r", key): Template("r", key, (7, SymVar("r", key, "b", AttrType.STR)), True)
    }
    assert uncompiled.sweep_side_effects(registry, database, templates) == []
    assert _sweep(registry, database, templates) == []


@pytest.mark.parametrize("where", [
    pytest.param(
        And(Eq(Col("r", "a"), Const(9)), Eq(Col("r", "a"), Col("s", "c"))),
        id="constant-first",
    ),
    pytest.param(
        And(Eq(Col("r", "a"), Col("s", "c")), Eq(Col("r", "a"), Const(9))),
        id="union-first",
    ),
])
def test_a_constant_fills_its_class_in_either_conjunct_order(where):
    """The constant reaches both key cells whichever conjunct comes
    first: a union after it moves its class's root."""
    view = _view("ordered", _R_S, [
        ("pb", Col("r", "b")), ("d", Col("s", "d")),
        ("k_r_a", Col("r", "a")), ("k_s_c", Col("s", "c")),
    ], where)
    database = _two_tables()
    registry = EdgeViewRegistry(None, {("p", "ordered"): view})
    plan = _checked_prepare(registry, database, view, ("x",), ("w",))
    assert [template.values for template in plan.new_templates] == [
        (9, "x"), (9, "w")
    ]
    assert insert_module._skeleton(registry, database, view).keyed


@pytest.mark.parametrize("workload", ["registrar", "bom", "synthetic:120"])
def test_a_key_read_answers_what_matching_rows_answers(workload):
    """Whether an edge is derivable, read off each occurrence's row by
    key, against the SPJ run it replaced: every pairing of a view's
    parent parameters with its children, and each child once more with
    its last semantic value changed."""
    atg, db = named_workload(workload)
    registry = build_registry(atg, db)
    asked = derivable = 0
    for view in registry.views():
        skeleton = insert_module._skeleton(registry, db, view)
        assert skeleton.keyed
        visible = [view.visible(row) for row in view.evaluate(db).rows]
        params = sorted({p for p, _ in visible})[:12]
        children = sorted({c for _, c in visible})[:12]
        children += [(*c[:-1], "another") for c in children if len(c) > 1]
        for p, c in itertools.product(params, children):
            slots = (*p, *c, *skeleton.constants)
            expected = bool(view.matching_rows(db, p, c))
            read = skeleton.conflict(slots) is None and skeleton.derives(
                slots, skeleton.read(db, slots)
            )
            assert read == expected, (view.name, p, c)
            asked += 1
            derivable += expected
    assert 0 < derivable < asked


def test_one_skeleton_per_view(monkeypatch):
    built = []

    class Counted(insert_module._Skeleton):
        def __init__(self, view, schemas):
            built.append(view.name)
            super().__init__(view, schemas)

    monkeypatch.setattr(insert_module, "_Skeleton", Counted)
    atg, db = build_registrar()
    updater = XMLViewUpdater(atg, db, strict=False)
    for index in range(6):
        plan = updater.plan(
            InsertOp("course[cno='CS650']/prereq", "course", (f"CS9{index:02d}", "t"))
        )
        plan.commit()
    plan = updater.plan(
        InsertOp("course[cno='CS650']/takenBy", "student", ("S99", "new student"))
    )
    assert plan.state is PlanState.PLANNED
    # A target's view first (stage 1), then every view the sweep reads.
    assert built == ["edge_prereq_course", "edge_db_course", "edge_takenBy_student"]


def test_a_skeleton_lookup_reads_no_schema_and_a_schema_change_misses():
    """A view's skeleton is found again without rebuilding its schemas
    tuple; another database with equal schemas shares it, and one whose
    schema differs gets its own."""
    atg, db = build_registrar()
    registry = build_registry(atg, db)
    view = registry.view("prereq", "course")
    first = insert_module._skeleton(registry, db, view)
    asked = []
    table = db.table
    db.table = lambda name: asked.append(name) or table(name)
    assert insert_module._skeleton(registry, db, view) is first
    assert asked == []
    del db.table
    assert insert_module._skeleton(registry, db.copy(), view) is first
    reordered = Database("reordered")
    for name in db.table_names():
        schema = db.schema(name)
        attributes = schema.attributes
        if name == "course":
            attributes = tuple(reversed(attributes))
        reordered.create_table(RelationSchema(name, attributes, schema.key))
    second = insert_module._skeleton(registry, reordered, view)
    assert second is not first
    assert insert_module._skeleton(registry, reordered, view) is second
    assert insert_module._skeleton(registry, db, view) is first
