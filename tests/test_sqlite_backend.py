"""Tests for SQL generation and the SQLite bridge — and, through it, the
differential oracle of the in-memory SPJ evaluator."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.relational.conditions import (
    And,
    Col,
    Const,
    Eq,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Param,
)
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.relational.sqlgen import (
    create_table_sql,
    insert_sql,
    predicate_sql,
    select_sql,
)
from repro.relational.sqlite_backend import (
    dump_to_sqlite,
    load_from_sqlite,
    run_query_sqlite,
)
from repro.views.registry import build_registry
from repro.workloads.registrar import build_registrar, registrar_schemas


class TestSqlGen:
    def test_create_table(self):
        schema = RelationSchema(
            "t",
            [("a", AttrType.INT), ("b", AttrType.STR), ("c", AttrType.BOOL)],
            ["a"],
        )
        sql = create_table_sql(schema)
        assert "CREATE TABLE t" in sql
        assert "a INTEGER NOT NULL" in sql
        assert "b TEXT NOT NULL" in sql
        assert "PRIMARY KEY (a)" in sql

    def test_insert_statement(self):
        schema = RelationSchema("t", [("a", AttrType.INT)], ["a"])
        assert insert_sql(schema) == "INSERT INTO t (a) VALUES (?)"

    def test_predicate_rendering(self):
        pred = And(
            Eq(Col("c", "dept"), Const("CS")),
            Eq(Col("c", "cno"), Col("p", "cno1")),
        )
        sql = predicate_sql(pred)
        assert "c.dept = 'CS'" in sql
        assert "c.cno = p.cno1" in sql

    def test_string_escaping(self):
        sql = predicate_sql(Eq(Col("c", "x"), Const("O'Brien")))
        assert "'O''Brien'" in sql

    def test_param_binding(self):
        pred = Eq(Col("p", "cno1"), Param("cno"))
        sql = predicate_sql(pred, {"cno": "CS650"})
        assert "'CS650'" in sql

    def test_select_distinct(self):
        query = SPJQuery(
            "q",
            [("course", "c")],
            [("cno", Col("c", "cno"))],
            Eq(Col("c", "dept"), Const("CS")),
        )
        sql = select_sql(query)
        assert sql.startswith("SELECT DISTINCT c.cno AS cno")
        assert "FROM course AS c" in sql


class TestSqliteRoundtrip:
    def test_dump_and_load(self):
        _, db = build_registrar()
        conn = dump_to_sqlite(db)
        back = load_from_sqlite(conn, registrar_schemas())
        for name in db.table_names():
            assert sorted(db.rows(name)) == sorted(back.rows(name))

    def test_queries_match_in_memory_engine(self):
        atg, db = build_registrar()
        registry = build_registry(atg, db)
        conn = dump_to_sqlite(db)
        schemas = {s.name: s for s in registrar_schemas()}
        for view in registry.views():
            mine = set(view.query.evaluate(db).rows)
            theirs = run_query_sqlite(conn, view.query, schemas=schemas)
            assert mine == theirs, view.name

    def test_parameterized_query_on_sqlite(self):
        atg, db = build_registrar()
        rule = [r for r in atg.query_rules() if r.parent == "prereq"][0]
        conn = dump_to_sqlite(db)
        rows = run_query_sqlite(conn, rule.query, bindings={"cno": "CS650"})
        assert rows == {("CS320", "Databases")}

    def test_view_store_persists_to_sqlite(self):
        """The DAG coding itself (gen/edge tables) round-trips to disk."""
        from repro.atg.publisher import publish_store

        atg, db = build_registrar()
        store = publish_store(atg, db)
        view_db = store.to_database()
        conn = dump_to_sqlite(view_db)
        cursor = conn.execute("SELECT COUNT(*) FROM edge_prereq_course")
        assert cursor.fetchone()[0] == len(store.edges[("prereq", "course")])

    def test_bool_columns_roundtrip(self):
        from repro.relational.database import Database

        db = Database()
        schema = RelationSchema(
            "flags", [("id", AttrType.INT), ("flag", AttrType.BOOL)], ["id"]
        )
        db.create_table(schema)
        db.insert_all("flags", [(1, True), (2, False)])
        conn = dump_to_sqlite(db)
        back = load_from_sqlite(conn, [schema])
        assert back.rows("flags") == [(1, True), (2, False)]


# ---------------------------------------------------------------------------
# Differential: SPJQuery.evaluate against SQLite on generated queries
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "r": RelationSchema(
        "r", [("a", AttrType.INT), ("b", AttrType.INT), ("s", AttrType.STR)], ["a"]
    ),
    "t": RelationSchema(
        "t", [("c", AttrType.INT), ("d", AttrType.INT), ("u", AttrType.STR)], ["c"]
    ),
}
_VALUES = {AttrType.INT: st.integers(0, 3), AttrType.STR: st.sampled_from("xyz")}
_PARAMS = {AttrType.INT: ("i", "j"), AttrType.STR: ("v", "w")}


@st.composite
def _databases(draw):
    database = Database()
    for schema in _SCHEMAS.values():
        database.create_table(schema)
        keys = draw(st.lists(st.integers(0, 5), unique=True, max_size=5))
        for key in keys:
            row = (key, draw(_VALUES[AttrType.INT]), draw(_VALUES[AttrType.STR]))
            database.insert(schema.name, row)
    return database


@st.composite
def _cases(draw):
    """(query, bindings, fixed): 1–3 aliases (the same relation twice is
    a self-join, no conjunct a cross product), type-consistent
    comparisons under And/Or/Not over Col/Const/Param terms."""
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
    attr_types = st.sampled_from(list(_VALUES))

    def term(attr_type):
        column = st.sampled_from(columns[attr_type])
        return st.one_of(
            column,
            column,  # twice: joins and column filters are the common case
            _VALUES[attr_type].map(Const),
            st.sampled_from(_PARAMS[attr_type]).map(Param),
        )

    comparison = attr_types.flatmap(
        lambda attr_type: st.builds(
            lambda op, left, right: op(left, right),
            st.sampled_from([Eq, Eq, Eq, Ne, Lt, Le, Gt, Ge]),
            term(attr_type),
            term(attr_type),
        )
    )
    predicate = st.recursive(
        comparison,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda parts: And(*parts)),
            st.lists(inner, min_size=1, max_size=3).map(lambda parts: Or(*parts)),
            inner.map(Not),
        ),
        max_leaves=6,
    )
    where = And(*draw(st.lists(predicate, max_size=4)))
    every_column = columns[AttrType.INT] + columns[AttrType.STR]
    outputs = draw(st.lists(st.sampled_from(every_column), min_size=1, max_size=3))
    project = [(f"o{i}", col) for i, col in enumerate(outputs)]
    bindings = {
        name: draw(_VALUES[attr_type])
        for attr_type, names in _PARAMS.items()
        for name in names
    }
    fixed = []
    for attr_type in draw(st.lists(attr_types, max_size=2)):
        col = draw(st.sampled_from(columns[attr_type]))
        fixed.append((col, draw(_VALUES[attr_type])))
    return SPJQuery("generated", tables, project, where), bindings, fixed


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(database=_databases(), case=_cases())
def test_evaluator_agrees_with_sqlite(database, case):
    """The join, the predicate evaluator and ``fixed=`` against a real SQL
    engine.  ``narrowed`` — the query one used to construct per call —
    is the oracle's spelling of ``fixed``."""
    query, bindings, fixed = case
    narrowed = SPJQuery(
        "narrowed",
        query.tables,
        query.project,
        And(query.where, *[Eq(col, Const(value)) for col, value in fixed]),
    )
    conn = dump_to_sqlite(database)
    try:
        expected = run_query_sqlite(conn, narrowed, bindings=bindings)
    finally:
        conn.close()
    rows = query.evaluate(database, bindings, fixed=fixed).rows
    assert len(rows) == len(set(rows))
    assert set(rows) == expected
    assert set(narrowed.evaluate(database, bindings).rows) == expected
