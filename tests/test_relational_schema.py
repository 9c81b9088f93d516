"""Unit tests for relation schemas and attribute typing."""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.schema import AttrType, Attribute, RelationSchema


def make_schema():
    return RelationSchema(
        "emp",
        [("id", AttrType.INT), ("name", AttrType.STR), ("active", AttrType.BOOL)],
        ["id"],
    )


class TestAttrType:
    def test_python_types(self):
        assert AttrType.INT.python_type is int
        assert AttrType.STR.python_type is str
        assert AttrType.BOOL.python_type is bool
        assert AttrType.FLOAT.python_type is float

    def test_bool_is_finite(self):
        assert AttrType.BOOL.is_finite
        assert AttrType.BOOL.domain() == (False, True)

    def test_infinite_types_have_no_domain(self):
        for t in (AttrType.INT, AttrType.STR, AttrType.FLOAT):
            assert not t.is_finite
            with pytest.raises(SchemaError):
                t.domain()

    def test_int_attribute_rejects_bool(self):
        attr = Attribute("x", AttrType.INT)
        assert attr.accepts(5)
        assert not attr.accepts(True)

    def test_float_accepts_int(self):
        attr = Attribute("x", AttrType.FLOAT)
        assert attr.accepts(5)
        assert attr.accepts(5.5)
        assert not attr.accepts(True)

    def test_str_attribute(self):
        attr = Attribute("x", AttrType.STR)
        assert attr.accepts("a")
        assert not attr.accepts(1)


class TestRelationSchema:
    def test_basic_construction(self):
        schema = make_schema()
        assert schema.arity == 3
        assert schema.attribute_names == ("id", "name", "active")
        assert schema.key == ("id",)
        assert schema.key_indexes == (0,)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", [("a", AttrType.INT)], ["a"])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(
                "r", [("a", AttrType.INT), ("a", AttrType.STR)], ["a"]
            )

    def test_empty_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [], ["a"])

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [("a", AttrType.INT)], [])

    def test_unknown_key_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [("a", AttrType.INT)], ["b"])

    def test_duplicate_key_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", [("a", AttrType.INT)], ["a", "a"])

    def test_index_of(self):
        schema = make_schema()
        assert schema.index_of("name") == 1
        with pytest.raises(SchemaError):
            schema.index_of("nope")

    def test_contains(self):
        schema = make_schema()
        assert "id" in schema
        assert "nope" not in schema

    def test_validate_row_arity(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.validate_row((1, "a"))

    def test_validate_row_types(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.validate_row((1, "a", "notbool"))
        assert schema.validate_row((1, "a", True)) == (1, "a", True)

    def test_key_of(self):
        schema = make_schema()
        assert schema.key_of((7, "x", False)) == (7,)

    def test_composite_key(self):
        schema = RelationSchema(
            "e", [("a", AttrType.INT), ("b", AttrType.INT)], ["a", "b"]
        )
        assert schema.key_of((1, 2)) == (1, 2)

    def test_project(self):
        schema = make_schema()
        assert schema.project((1, "a", True), ["name", "id"]) == ("a", 1)

    def test_row_from_dict(self):
        schema = make_schema()
        row = schema.row_from_dict({"id": 1, "name": "a", "active": False})
        assert row == (1, "a", False)

    def test_row_from_dict_missing(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.row_from_dict({"id": 1})

    def test_row_from_dict_extra(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.row_from_dict(
                {"id": 1, "name": "a", "active": False, "zzz": 1}
            )

    def test_as_dict_roundtrip(self):
        schema = make_schema()
        row = (1, "a", True)
        assert schema.row_from_dict(schema.as_dict(row)) == row

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())
        other = RelationSchema("emp2", [("id", AttrType.INT)], ["id"])
        assert make_schema() != other


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


def reference_validate(schema, row):
    """The per-cell check ``validate_row`` falls back to, as a reference."""
    if len(row) != schema.arity:
        raise SchemaError(
            f"row arity {len(row)} != schema arity {schema.arity} "
            f"for relation {schema.name!r}"
        )
    for attr, value in zip(schema.attributes, row):
        if not attr.accepts(value):
            raise SchemaError(
                f"value {value!r} not valid for attribute "
                f"{schema.name}.{attr.name} of type {attr.type.value}"
            )
    return row


def _outcome(check, schema, row):
    try:
        return ("accepted", check(schema, row))
    except SchemaError as exc:
        return ("rejected", str(exc))


cells = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.none(),
    st.just(_Level.LOW),
    st.text(max_size=3).map(_Name),
)


@st.composite
def schemas_and_rows(draw):
    types = draw(st.lists(st.sampled_from(list(AttrType)), min_size=1, max_size=4))
    schema = RelationSchema("r", [(f"a{i}", t) for i, t in enumerate(types)], ["a0"])
    n = len(types)
    arity = draw(st.sampled_from([n, n, n - 1, n + 1]))
    row = tuple(draw(st.lists(cells, min_size=arity, max_size=arity)))
    return schema, row


class TestValidateRowFastPath:
    @settings(max_examples=300, deadline=None)
    @given(schemas_and_rows())
    def test_matches_the_per_cell_check(self, case):
        schema, row = case
        expected = _outcome(reference_validate, schema, row)
        got = _outcome(RelationSchema.validate_row, schema, row)
        assert got == expected
        if got[0] == "accepted":
            assert got[1] is row

    def test_subclasses_and_widening_take_the_per_cell_check(self):
        schema = RelationSchema(
            "r",
            [("i", AttrType.INT), ("f", AttrType.FLOAT), ("s", AttrType.STR)],
            ["i"],
        )
        assert schema.validate_row((_Level.LOW, 3, _Name("x"))) == (1, 3, "x")
        for row in ((True, 1.0, "x"), (1, False, "x"), (1, 1.0, None)):
            with pytest.raises(SchemaError):
                schema.validate_row(row)

    def test_a_well_typed_row_asks_no_attribute(self, monkeypatch):
        calls = []
        accepts = Attribute.accepts
        monkeypatch.setattr(
            Attribute,
            "accepts",
            lambda self, value: calls.append(value) or accepts(self, value),
        )
        schema = RelationSchema(
            "r",
            [("i", AttrType.INT), ("s", AttrType.STR),
             ("b", AttrType.BOOL), ("f", AttrType.FLOAT)],
            ["i"],
        )
        db = Database()
        db.create_table(schema)
        db.insert_all("r", [(n, str(n), n % 2 == 0, n / 2) for n in range(50)])
        assert calls == []
        schema.validate_row((1, "a", True, 2))  # an int in a FLOAT column
        assert len(calls) == 4

    def test_load_state_rejects_a_bool_in_an_int_column(self):
        db = Database()
        db.create_table(make_schema())
        state = {"tables": {"emp": [[1, "a", False], [True, "b", False]]}}
        with pytest.raises(SchemaError, match="emp.id of type int"):
            db.load_state(state)
