"""Unit tests for the symbolic layer behind Algorithm insert."""

import pytest

from repro.relational.schema import AttrType
from repro.relview.symbolic import Template
from repro.sat.atoms import AtomVC, AtomVV, SymVar, make_atom


def var(attr="b", relation="r", key=(1,), attr_type=AttrType.STR):
    return SymVar(relation, key, attr, attr_type)


class TestSymVar:
    def test_canonical_name(self):
        v = SymVar("course", ("CS101",), "dept", AttrType.STR)
        assert v.name == "course.CS101.dept"
        assert str(v) == v.name

    def test_composite_key_name(self):
        v = SymVar("prereq", ("A", "B"), "cno1", AttrType.STR)
        assert v.name == "prereq.A_B.cno1"

    def test_identity_by_fields(self):
        assert var() == var()
        assert var(attr="c") != var(attr="b")
        assert var(attr_type=AttrType.INT) != var()
        assert hash(var()) == hash(var())

    def test_slotted_with_name_and_hash_taken_once(self):
        v = var()
        assert not hasattr(v, "__dict__")
        assert v.name == "r.1.b" and hash(v) == hash(var())

    def test_order_is_total_where_names_collide(self):
        """Two unknowns of ``r(k1, k2, x)`` share the name ``r.a_b_c.x``."""
        left = SymVar("r", ("a", "b_c"), "x", AttrType.STR)
        right = SymVar("r", ("a_b", "c"), "x", AttrType.STR)
        assert left.name == right.name and left != right
        assert left.order < right.order
        assert min(var(attr="z").order, var(attr="a").order)[0] == "r.1.a"


class TestMakeAtom:
    def test_var_var(self):
        a, b = var(attr="a"), var(attr="b")
        atom = make_atom(a, b)
        assert isinstance(atom, AtomVV)
        # normalized order regardless of argument order
        assert make_atom(b, a) == atom

    def test_var_var_orders_twin_names_by_key(self):
        left = SymVar("r", ("a", "b_c"), "x", AttrType.STR)
        right = SymVar("r", ("a_b", "c"), "x", AttrType.STR)
        assert make_atom(right, left) == make_atom(left, right) == AtomVV(left, right)

    def test_same_var_is_true(self):
        assert make_atom(var(), var()) is True

    def test_var_const_both_sides(self):
        atom1 = make_atom(var(), "x")
        atom2 = make_atom("x", var())
        assert atom1 == atom2 == AtomVC(var(), "x")

    def test_const_const(self):
        assert make_atom("x", "x") is True
        assert make_atom("x", "y") is False


class TestTemplate:
    def test_variables(self):
        v = var()
        t = Template("r", (1,), (1, v, "const"), is_new=True)
        assert t.variables() == [v]

    def test_instantiate(self):
        v = var()
        t = Template("r", (1,), (1, v, "const"), is_new=True)
        assert t.instantiate({v: "filled"}) == (1, "filled", "const")

    def test_instantiate_missing_var_raises(self):
        v = var()
        t = Template("r", (1,), (v,), is_new=True)
        with pytest.raises(KeyError):
            t.instantiate({})
