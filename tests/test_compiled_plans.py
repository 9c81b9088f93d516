"""The compiled SPJ join and Algorithm insert's template skeleton.

``SPJQuery.evaluate`` plans its join once per ``fixed`` shape and per
schemas, and ``_build_templates`` derives what it needs from an edge view
once per view; a call only binds values.  Both are checked here against
the per-call code they replaced (``uncompiled.py``), and their caches
are counted through the seams that fill them.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.updater import PlanState, XMLViewUpdater
from repro.errors import QueryError, SchemaError, UpdateRejectedError
from repro.ops import InsertOp
from repro.relational.conditions import And, Col, Const, Eq, Ne, Param
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.relview import insert as insert_module
from repro.relview.insert import _build_templates, _TargetEdge
from repro.views.registry import EdgeView, EdgeViewRegistry
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


def _checked_build_templates(registry, db, targets):
    """``_build_templates`` and the per-call reference on copies of the
    same targets: the same templates, assertions (in order), target rows
    and rejections."""
    copies = [_TargetEdge(t.view, t.parent_params, t.child_sem) for t in targets]
    try:
        expected = uncompiled.build_templates(db, copies)
    except UpdateRejectedError as rejected:
        with pytest.raises(UpdateRejectedError) as raised:
            _build_templates(registry, db, targets)
        assert str(raised.value) == str(rejected)
        raise
    templates, assertions = _build_templates(registry, db, targets)
    assert list(templates.items()) == list(expected[0].items())
    assert assertions == expected[1]
    assert [t.row for t in targets] == [t.row for t in copies]
    return templates, assertions


def _plan_all(updater, ops):
    """Plan and commit ``ops`` with every ``_build_templates`` checked;
    return how many calls were checked."""
    calls = []

    def checked(*args):
        calls.append(1)
        return _checked_build_templates(*args)

    with mock.patch.object(insert_module, "_build_templates", checked):
        for op in ops:
            plan = updater.plan(op)
            if plan.state is PlanState.PLANNED:
                plan.commit()
    return len(calls)


@given(
    registrar_instances(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.sampled_from(["new", "existing", "retitled"]),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_skeleton_templates_agree_on_registrar_insertions(spec, inserts):
    atg, db = build_instance(spec)
    n_courses = spec[0]
    ops = []
    for index, (parent, kind, child) in enumerate(inserts):
        path = f"//course[cno=C{parent % n_courses:02d}]/prereq"
        cno = f"C{child % n_courses:02d}"
        sem = {
            "new": (f"N{index:02d}", "new"),
            "existing": (cno, f"t{child % n_courses}"),
            "retitled": (cno, "another title"),  # conflicts with the stored row
        }[kind]
        ops.append(InsertOp(path, "course", sem))
    _plan_all(XMLViewUpdater(atg, db, strict=False), ops)


@given(
    st.integers(min_value=30, max_value=60),
    st.integers(min_value=0, max_value=50),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_skeleton_templates_agree_on_synthetic_insertions(n_c, seed, parents):
    """New-key and existing-key inserts under ``//cnode[key=k]/sub``."""
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
    assert _plan_all(updater, ops) > 0


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
    target = _TargetEdge(view, parent_params, child_sem)
    with pytest.raises(UpdateRejectedError) as raised:
        _checked_build_templates(registry, database, [target])
    assert str(raised.value) == message
    # Again, from the cached skeleton.
    with pytest.raises(UpdateRejectedError) as raised:
        _build_templates(registry, database, [target])
    assert str(raised.value) == message


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
    assert built == ["edge_prereq_course", "edge_takenBy_student"]
