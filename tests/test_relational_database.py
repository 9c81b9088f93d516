"""Unit tests for tables, key enforcement, indexes and group deltas."""

import pytest

from repro.errors import KeyConstraintError, SchemaError, UnknownRelationError
from repro.relational.database import Database, DeltaOp, RelationalDelta, Table
from repro.relational.schema import AttrType, RelationSchema


def emp_schema():
    return RelationSchema(
        "emp", [("id", AttrType.INT), ("dept", AttrType.STR)], ["id"]
    )


@pytest.fixture
def table():
    t = Table(emp_schema())
    t.insert((1, "cs"))
    t.insert((2, "cs"))
    t.insert((3, "math"))
    return t


class TestTable:
    def test_len_and_get(self, table):
        assert len(table) == 3
        assert table.get((2,)) == (2, "cs")
        assert table.get((9,)) is None

    def test_contains_full_row(self, table):
        assert (1, "cs") in table
        assert (1, "math") not in table

    def test_duplicate_key_rejected(self, table):
        with pytest.raises(KeyConstraintError):
            table.insert((1, "other"))

    def test_type_checked_on_insert(self, table):
        with pytest.raises(SchemaError):
            table.insert(("x", "cs"))

    def test_delete_by_key(self, table):
        row = table.delete_by_key((1,))
        assert row == (1, "cs")
        assert len(table) == 2
        with pytest.raises(KeyConstraintError):
            table.delete_by_key((1,))

    def test_delete_full_row_must_match(self, table):
        with pytest.raises(KeyConstraintError):
            table.delete((1, "WRONG"))
        table.delete((1, "cs"))
        assert table.get((1,)) is None

    def test_rows_deterministic_order(self, table):
        assert list(table.rows()) == [(1, "cs"), (2, "cs"), (3, "math")]

    def test_lookup_builds_its_index(self, table, monkeypatch):
        passes = []
        rows = table.rows
        monkeypatch.setattr(table, "rows", lambda: passes.append(1) or rows())
        for _ in range(3):
            assert table.lookup(("dept",), ("cs",)) == [(1, "cs"), (2, "cs")]
        assert len(passes) == 1  # the first probe built it; no scan after

    def test_lookup_with_index(self, table):
        table.create_index(("dept",))
        assert table.lookup(("dept",), ("cs",)) == [(1, "cs"), (2, "cs")]
        assert table.lookup(("dept",), ("nope",)) == []
        assert table.lookup(("dept", "id"), ("cs", 2)) == [(2, "cs")]
        assert table.lookup(("dept", "id"), ("math", 2)) == []
        with pytest.raises(ValueError):
            table.lookup(("dept", "id"), ("cs",))

    def test_a_key_probe_reads_the_rows_and_builds_no_index(self, table):
        assert table.lookup(("id",), (2,)) == [(2, "cs")]
        assert table.lookup(("id",), (9,)) == []
        assert table.lookup(("dept", "id"), ("cs", 2)) == [(2, "cs")]
        assert table.lookup(("id", "dept"), (2, "math")) == []
        assert table.lookup(("id", "id"), (2, 3)) == []
        with pytest.raises(ValueError):
            table.lookup(("id",), ())
        assert table._indexes == {}
        assert table.lookup(("dept",), ("cs",)) == [(1, "cs"), (2, "cs")]
        assert list(table._indexes) == ["dept"]

    def test_a_composite_key_probe_in_any_order(self):
        table = Table(
            RelationSchema(
                "h", [("a", AttrType.INT), ("b", AttrType.INT)], ["a", "b"]
            )
        )
        for row in ((1, 2), (1, 3), (2, 2)):
            table.insert(row)
        assert table.lookup(("b", "a"), (3, 1)) == [(1, 3)]
        assert table.lookup(("a", "b"), (2, 3)) == []
        assert table._indexes == {}
        assert table.lookup(("a",), (1,)) == [(1, 2), (1, 3)]
        assert list(table._indexes) == ["a"]

    def test_index_maintained_on_mutation(self, table):
        table.create_index(("dept",))
        table.insert((4, "cs"))
        table.delete_by_key((1,))
        assert sorted(table.lookup(("dept",), ("cs",))) == [(2, "cs"), (4, "cs")]

    def test_create_index_idempotent(self, table):
        table.create_index(("dept",))
        index = table._indexes["dept"]
        table.create_index(("dept",))
        assert table._indexes["dept"] is index

    def test_create_index_unknown_attr(self, table):
        with pytest.raises(SchemaError):
            table.create_index(("nope",))

    def test_copy_is_independent(self, table):
        clone = table.copy()
        clone.insert((9, "x"))
        assert len(table) == 3
        assert len(clone) == 4

    def test_int_ceiling_is_a_running_maximum(self, table):
        assert table.int_ceiling("id") == 3
        table.insert((7, "x"))
        assert table.int_ceiling("id") == 7
        table.delete_by_key((7,))  # never lowered: 8 and up stay fresh
        assert table.int_ceiling("id") == 7
        assert table.copy().int_ceiling("id") == 3
        with pytest.raises(SchemaError):
            table.int_ceiling("nope")

    def test_int_ceiling_needs_an_int_column(self, table):
        with pytest.raises(SchemaError):
            table.int_ceiling("dept")

    def test_index_buckets_share_the_primary_keys(self, table):
        bucket = table._index("dept")["cs"]
        stored = {key: key for key in table.keys()}
        assert all(key is stored[key] for key in bucket)

    def test_int_ceiling_of_an_empty_table_is_zero(self):
        assert Table(emp_schema()).int_ceiling("id") == 0

    def test_load_state_resets_the_int_ceiling(self):
        db = Database()
        db.create_table(emp_schema())
        db.insert("emp", (50, "a"))
        assert db.table("emp").int_ceiling("id") == 50
        db.load_state({"tables": {"emp": [[4, "b"]]}})
        assert db.table("emp").int_ceiling("id") == 4


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table(emp_schema())
        assert "emp" in db
        assert db.table_names() == ["emp"]
        with pytest.raises(SchemaError):
            db.create_table(emp_schema())

    def test_unknown_relation(self):
        db = Database()
        with pytest.raises(UnknownRelationError):
            db.table("nope")

    def test_insert_all_and_size(self):
        db = Database()
        db.create_table(emp_schema())
        db.insert_all("emp", [(1, "a"), (2, "b")])
        assert db.size() == 2
        assert db.rows("emp") == [(1, "a"), (2, "b")]

    def test_copy_independent(self):
        db = Database()
        db.create_table(emp_schema())
        db.insert("emp", (1, "a"))
        clone = db.copy()
        clone.insert("emp", (2, "b"))
        assert db.size() == 1 and clone.size() == 2


class TestRelationalDelta:
    def test_build_and_iterate(self):
        delta = RelationalDelta()
        delta.insert("emp", (1, "a"))
        delta.delete("emp", (2, "b"))
        assert len(delta) == 2
        kinds = [op.kind for op in delta]
        assert kinds == ["insert", "delete"]

    def test_inverted(self):
        delta = RelationalDelta()
        delta.insert("emp", (1, "a"))
        delta.delete("emp", (2, "b"))
        inv = delta.inverted()
        assert [op.kind for op in inv] == ["insert", "delete"]
        assert inv.ops[0].row == (2, "b")

    def test_apply(self):
        db = Database()
        db.create_table(emp_schema())
        db.insert("emp", (2, "b"))
        delta = RelationalDelta()
        delta.insert("emp", (1, "a"))
        delta.delete("emp", (2, "b"))
        db.apply(delta)
        assert db.rows("emp") == [(1, "a")]

    def test_apply_rolls_back_on_failure(self):
        db = Database()
        db.create_table(emp_schema())
        db.insert("emp", (1, "a"))
        delta = RelationalDelta()
        delta.insert("emp", (2, "b"))
        delta.insert("emp", (1, "duplicate"))  # fails: key exists
        with pytest.raises(KeyConstraintError):
            db.apply(delta)
        assert db.rows("emp") == [(1, "a")]  # (2, 'b') rolled back

    def test_apply_inverse_restores(self):
        db = Database()
        db.create_table(emp_schema())
        db.insert("emp", (1, "a"))
        delta = RelationalDelta()
        delta.delete("emp", (1, "a"))
        delta.insert("emp", (2, "b"))
        db.apply(delta)
        db.apply(delta.inverted())
        assert db.rows("emp") == [(1, "a")]

    def test_deltaop_inverted(self):
        op = DeltaOp("insert", "emp", (1, "a"))
        assert op.inverted().kind == "delete"
        assert op.inverted().inverted() == op

    def test_bool_and_extend(self):
        delta = RelationalDelta()
        assert not delta
        other = RelationalDelta()
        other.insert("emp", (1, "a"))
        delta.extend(other)
        assert delta and len(delta) == 1
