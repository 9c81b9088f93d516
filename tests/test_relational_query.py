"""Unit tests for SPJ query evaluation: filters, joins, params, provenance."""

import pytest

from repro.errors import QueryError, SchemaError
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
    TRUE,
)
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        RelationSchema(
            "r", [("a", AttrType.INT), ("b", AttrType.STR)], ["a"]
        )
    )
    database.create_table(
        RelationSchema(
            "s", [("c", AttrType.INT), ("d", AttrType.STR)], ["c"]
        )
    )
    database.insert_all("r", [(1, "x"), (2, "y"), (3, "x")])
    database.insert_all("s", [(1, "u"), (2, "v"), (4, "w")])
    return database


def q(tables, project, where=TRUE, name="q"):
    return SPJQuery(name, tables, project, where)


class TestConstruction:
    def test_requires_tables(self):
        with pytest.raises(QueryError):
            q([], [("a", Col("r", "a"))])

    def test_duplicate_alias_rejected(self):
        with pytest.raises(QueryError):
            q([("r", "x"), ("s", "x")], [("a", Col("x", "a"))])

    def test_requires_projection(self):
        with pytest.raises(QueryError):
            q([("r", "r")], [])

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(QueryError):
            q([("r", "r")], [("a", Col("r", "a")), ("a", Col("r", "b"))])

    def test_unknown_projection_alias_rejected(self):
        with pytest.raises(QueryError):
            q([("r", "r")], [("a", Col("zz", "a"))])

    def test_params_detection(self):
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "b"), Param("p")),
        )
        assert query.params() == {"p"}

    def test_output_index(self):
        query = q([("r", "r")], [("a", Col("r", "a")), ("b", Col("r", "b"))])
        assert query.output_index("b") == 1
        with pytest.raises(QueryError):
            query.output_index("zzz")


class TestSelection:
    def test_full_scan(self, db):
        query = q([("r", "r")], [("a", Col("r", "a"))])
        assert sorted(query.evaluate(db).rows) == [(1,), (2,), (3,)]

    def test_eq_const(self, db):
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "b"), Const("x")),
        )
        assert sorted(query.evaluate(db).rows) == [(1,), (3,)]

    def test_eq_const_reversed(self, db):
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Const("x"), Col("r", "b")),
        )
        assert sorted(query.evaluate(db).rows) == [(1,), (3,)]

    def test_comparisons(self, db):
        cases = [
            (Lt(Col("r", "a"), Const(2)), [(1,)]),
            (Le(Col("r", "a"), Const(2)), [(1,), (2,)]),
            (Gt(Col("r", "a"), Const(2)), [(3,)]),
            (Ge(Col("r", "a"), Const(2)), [(2,), (3,)]),
            (Ne(Col("r", "a"), Const(2)), [(1,), (3,)]),
        ]
        for where, expected in cases:
            query = q([("r", "r")], [("a", Col("r", "a"))], where)
            assert sorted(query.evaluate(db).rows) == expected

    def test_or_filter(self, db):
        where = Or(Eq(Col("r", "a"), Const(1)), Eq(Col("r", "a"), Const(3)))
        query = q([("r", "r")], [("a", Col("r", "a"))], where)
        assert sorted(query.evaluate(db).rows) == [(1,), (3,)]

    def test_not_filter(self, db):
        where = Not(Eq(Col("r", "b"), Const("x")))
        query = q([("r", "r")], [("a", Col("r", "a"))], where)
        assert sorted(query.evaluate(db).rows) == [(2,)]

    def test_constant_false(self, db):
        where = Eq(Const(1), Const(2))
        query = q([("r", "r")], [("a", Col("r", "a"))], where)
        assert query.evaluate(db).rows == []

    def test_set_semantics_dedupe(self, db):
        query = q([("r", "r")], [("b", Col("r", "b"))])
        assert sorted(query.evaluate(db).rows) == [("x",), ("y",)]


class TestJoin:
    def test_equi_join(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a")), ("d", Col("s", "d"))],
            Eq(Col("r", "a"), Col("s", "c")),
        )
        assert sorted(query.evaluate(db).rows) == [(1, "u"), (2, "v")]

    def test_cartesian_product(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a")), ("c", Col("s", "c"))],
        )
        assert len(query.evaluate(db).rows) == 9

    def test_self_join_with_renaming(self, db):
        query = q(
            [("r", "r1"), ("r", "r2")],
            [("a1", Col("r1", "a")), ("a2", Col("r2", "a"))],
            And(
                Eq(Col("r1", "b"), Col("r2", "b")),
                Lt(Col("r1", "a"), Col("r2", "a")),
            ),
        )
        assert query.evaluate(db).rows == [(1, 3)]

    def test_join_plus_filter(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a"))],
            And(
                Eq(Col("r", "a"), Col("s", "c")),
                Eq(Col("s", "d"), Const("v")),
            ),
        )
        assert query.evaluate(db).rows == [(2,)]

    def test_three_way_join(self, db):
        query = q(
            [("r", "r"), ("s", "s"), ("r", "r2")],
            [("a", Col("r", "a")), ("a2", Col("r2", "a"))],
            And(
                Eq(Col("r", "a"), Col("s", "c")),
                Eq(Col("s", "c"), Col("r2", "a")),
            ),
        )
        assert sorted(query.evaluate(db).rows) == [(1, 1), (2, 2)]

    def test_empty_join(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a"))],
            And(
                Eq(Col("r", "a"), Col("s", "c")),
                Eq(Col("s", "d"), Const("nope")),
            ),
        )
        assert query.evaluate(db).rows == []


class TestParams:
    def test_bound_param(self, db):
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "b"), Param("p")),
        )
        assert query.evaluate(db, {"p": "y"}).rows == [(2,)]

    def test_unbound_param_raises(self, db):
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "b"), Param("p")),
        )
        with pytest.raises(QueryError):
            query.evaluate(db)

    def test_rebinding(self, db):
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "b"), Param("p")),
        )
        assert sorted(query.evaluate(db, {"p": "x"}).rows) == [(1,), (3,)]
        assert query.evaluate(db, {"p": "zzz"}).rows == []


class TestFixedColumns:
    """``fixed=`` is ``where AND col = value`` without building a query."""

    def test_fixed_narrows_like_a_constant_equality(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a")), ("d", Col("s", "d"))],
            Eq(Col("r", "a"), Col("s", "c")),
        )
        assert query.evaluate(db, fixed=[(Col("s", "d"), "v")]).rows == [(2, "v")]
        assert query.evaluate(db, fixed=[(Col("r", "b"), "nope")]).rows == []
        # A cross product with one side fixed lists only the other side.
        cross = q(
            [("r", "r"), ("s", "s")], [("a", Col("r", "a")), ("c", Col("s", "c"))]
        )
        rows = cross.evaluate(db, fixed=[(Col("s", "c"), 4)]).rows
        assert rows == [(1, 4), (2, 4), (3, 4)]

    def test_fixed_on_an_unknown_alias_raises(self, db):
        query = q([("r", "r")], [("a", Col("r", "a"))])
        with pytest.raises(QueryError, match="unknown alias"):
            query.evaluate(db, fixed=[(Col("zz", "a"), 1)])

    def test_unbound_param_raises_before_any_row_is_read(self, db, monkeypatch):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a"))],
            And(
                Lt(Col("r", "a"), Col("s", "c")),
                Or(Eq(Col("s", "d"), Param("p")), Eq(Col("s", "d"), Param("q"))),
            ),
        )
        for name in ("r", "s"):
            table = db.table(name)
            monkeypatch.setattr(table, "rows", lambda: pytest.fail("row read"))
            monkeypatch.setattr(table, "lookup", lambda *a: pytest.fail("row read"))
        with pytest.raises(QueryError, match=r"unbound query parameter\(s\) \['q'\]"):
            query.evaluate(db, {"p": "u"})


class TestOnePredicateEvaluator:
    """A misspelt column raises whatever predicate it sits in (an
    alias-local non-equality filter used to swallow it: ``Ne`` selected
    every row, ``Lt`` none)."""

    @pytest.mark.parametrize(
        "where",
        [
            Eq(Col("x", "nosuch"), Const(5)),
            Ne(Col("x", "nosuch"), Const(5)),
            Lt(Col("x", "nosuch"), Const(5)),
            Or(Ne(Col("x", "nosuch"), Const(5)), Eq(Col("x", "cno"), Const("CS650"))),
        ],
        ids=["Eq", "Ne", "Lt", "Or"],
    )
    def test_misspelt_column_raises_in_every_predicate_kind(self, where):
        from repro.workloads.registrar import build_registrar

        _, registrar = build_registrar()
        query = q([("course", "x")], [("cno", Col("x", "cno"))], where)
        with pytest.raises(
            SchemaError, match="relation 'course' has no attribute 'nosuch'"
        ):
            query.evaluate(registrar)


class TestProvenance:
    def test_derivations_track_base_rows(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "a"), Col("s", "c")),
        )
        result = query.evaluate(db, with_derivations=True)
        assert (1,) in result
        derivation = result.derivations[(1,)][0]
        assert derivation == {"r": (1, "x"), "s": (1, "u")}

    def test_multiple_derivations_of_one_row(self, db):
        query = q(
            [("r", "r"), ("s", "s")],
            [("b", Col("r", "b"))],
            Eq(Col("r", "a"), Col("s", "c")),
        )
        result = query.evaluate(db, with_derivations=True)
        # ('x',) derives only from r=(1,'x') here (3 has no s partner).
        assert len(result.derivations[("x",)]) == 1

    def test_result_container(self, db):
        query = q([("r", "r")], [("a", Col("r", "a"))])
        result = query.evaluate(db)
        assert len(result) == 3
        assert (1,) in result
        assert list(result)[0] == (1,)


class TestIndexUsage:
    def test_index_point_lookup(self, db):
        db.table("r").create_index(("b",))
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            Eq(Col("r", "b"), Const("x")),
        )
        assert sorted(query.evaluate(db).rows) == [(1,), (3,)]

    def test_partial_index_fallback(self, db):
        # Two eq-const conjuncts but only one single-attr index.
        db.table("r").create_index(("b",))
        query = q(
            [("r", "r")],
            [("a", Col("r", "a"))],
            And(Eq(Col("r", "b"), Const("x")), Eq(Col("r", "a"), Const(3))),
        )
        assert query.evaluate(db).rows == [(3,)]


def _brute_lookup(table, attrs, values):
    """What ``Table.lookup`` must return: ``rows()`` filtered, in order."""
    return [
        row
        for row in table.rows()
        if table.schema.project(row, tuple(attrs)) == tuple(values)
    ]


_HASHSEED_SCRIPT = """
import json, random
from repro.relational.database import Database
from repro.relational.schema import AttrType, RelationSchema

rng = random.Random(5)
db = Database()
table = db.create_table(RelationSchema(
    "t", [("k", AttrType.STR), ("g", AttrType.STR), ("h", AttrType.STR)], ["k"]
))
groups = ["alpha", "beta", "gamma"]
table.create_index(["g"])   # kept through the history; "h" is built after it
for i in rng.sample(range(40), 40):
    table.insert((f"key{i}", rng.choice(groups), rng.choice(groups)))
for key in rng.sample(list(table.keys()), 15):
    row = table.delete_by_key(key)
    if rng.random() < 0.7:
        table.insert(row)
restored = Database()
restored.create_table(table.schema)
restored.load_state(db.export_state())
out = []
for t in (table, db.copy().table("t"), restored.table("t")):
    for attrs, values in [(["g"], [g]) for g in groups] + [
        (["g", "h"], [g, h]) for g in groups for h in groups
    ]:
        found = t.lookup(attrs, values)
        brute = [r for r in t.rows() if t.schema.project(r, tuple(attrs)) == tuple(values)]
        assert found == brute, (attrs, values, found, brute)
        out.append(found)
print(json.dumps(out))
"""


class TestIndexProbeJoin:
    """``Table.lookup`` is the one equality probe: whatever the table's
    history, it returns what filtering ``rows()`` returns, in that order
    — which publishing and ΔR depend on."""

    @staticmethod
    def _database(seed):
        import random

        rng = random.Random(seed)
        database = Database()
        database.create_table(
            RelationSchema(
                "big",
                [("k", AttrType.INT), ("g", AttrType.INT), ("h", AttrType.INT)],
                ["k"],
            )
        )
        database.create_table(
            RelationSchema(
                "link", [("p", AttrType.INT), ("k", AttrType.INT)], ["p", "k"]
            )
        )
        big, link = database.table("big"), database.table("link")
        big.create_index(("g", "k"))
        link.create_index(("k",))
        keys = list(range(60))
        rng.shuffle(keys)
        for k in keys:
            big.insert((k, rng.randrange(5), rng.randrange(3)))
        for _ in range(150):
            row = (rng.randrange(8), rng.randrange(60))
            if not link.has_key(row):
                link.insert(row)
        # Deletes and re-inserts move rows to the end of rows() order.
        for k in rng.sample(keys, 15):
            row = big.delete_by_key((k,))
            if rng.random() < 0.7:
                big.insert(row)
        for key in rng.sample(list(link.keys()), 20):
            link.delete_by_key(key)
            if rng.random() < 0.5:
                link.insert(key)
        return database

    @pytest.mark.parametrize("seed", range(6))
    def test_same_rows_same_order_as_hash_join(self, seed, monkeypatch):
        from repro.relational.database import Table

        database = self._database(seed)
        queries = [
            # few big rows (g and h filtered) meet all of link on k
            q(
                [("big", "b"), ("link", "l")],
                [("p", Col("l", "p")), ("k", Col("b", "k"))],
                And(Eq(Col("b", "g"), Const(2)), Eq(Col("b", "k"), Col("l", "k"))),
            ),
            # one link row meets all of big on its key
            q(
                [("link", "l"), ("big", "b")],
                [("g", Col("b", "g")), ("p", Col("l", "p"))],
                And(
                    Eq(Col("l", "p"), Const(3)),
                    Eq(Col("l", "k"), Const(7)),
                    Eq(Col("l", "k"), Col("b", "k")),
                ),
            ),
            # two join columns, one index built before the history, one after
            q(
                [("big", "x"), ("big", "y")],
                [("x", Col("x", "k")), ("y", Col("y", "k"))],
                And(
                    Eq(Col("x", "k"), Const(11)),
                    Eq(Col("x", "g"), Col("y", "g")),
                    Eq(Col("x", "h"), Col("y", "h")),
                ),
            ),
        ]
        for query in queries:
            probed = query.evaluate(database, with_derivations=True)
            with monkeypatch.context() as patch:
                patch.setattr(Table, "lookup", _brute_lookup)
                scanned = query.evaluate(database, with_derivations=True)
            assert probed.rows == scanned.rows
            assert probed.derivations == scanned.derivations

    def test_point_query_does_not_list_the_joined_table(self, monkeypatch):
        database = self._database(0)
        big = database.table("big")
        listed = []
        monkeypatch.setattr(
            big, "rows", lambda: listed.append(1) or iter(big._rows.values())
        )
        p, k = next(
            key for key in database.table("link").keys() if big.has_key(key[1:])
        )
        query = q(
            [("link", "l"), ("big", "b")],
            [("k", Col("b", "k"))],
            And(
                Eq(Col("l", "p"), Const(p)),
                Eq(Col("l", "k"), Const(k)),
                Eq(Col("l", "k"), Col("b", "k")),
            ),
        )
        assert query.evaluate(database).rows == [(k,)]
        assert not listed
        # The same point query, spelt with ``fixed=`` on the open join.
        join = q(
            [("link", "l"), ("big", "b")],
            [("k", Col("b", "k"))],
            Eq(Col("l", "k"), Col("b", "k")),
        )
        fixed = [(Col("l", "p"), p), (Col("l", "k"), k)]
        link = database.table("link")
        link.create_index(("p",))  # an index build is a pass over rows()
        monkeypatch.setattr(
            link, "rows", lambda: listed.append(1) or iter(link._rows.values())
        )
        assert join.evaluate(database, fixed=fixed).rows == [(k,)]
        assert not listed

    def test_copy_and_load_state_keep_probe_order(self):
        database = self._database(1)
        clone = database.copy()
        restored = self._database(2)
        restored.load_state(database.export_state())
        for other in (database, clone, restored):
            for name, attrs in (("big", ["g"]), ("link", ["k"]), ("link", ["p"])):
                ours, theirs = database.table(name), other.table(name)
                for value in range(60):
                    found = theirs.lookup(attrs, [value])
                    assert found == ours.lookup(attrs, [value])
                    assert found == _brute_lookup(theirs, attrs, [value])

    def test_lookup_order_does_not_depend_on_the_hash_seed(self):
        """String keys: set iteration order varies with PYTHONHASHSEED;
        ``rows()`` order must not."""
        import os
        import subprocess
        import sys

        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            done = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1
