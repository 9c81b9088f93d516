"""Unit tests for the DTD model, parser, normalization and validation."""

import pytest

from repro.dtd.model import (
    DTD,
    Alternation,
    Empty,
    PCData,
    Production,
    Sequence,
    Star,
)
from repro.dtd.parser import parse_dtd
from repro.dtd.validate import StaticValidator, validate_update
from repro.errors import DTDError, ValidationError
from repro.workloads.registrar import REGISTRAR_DTD_TEXT
from repro.xpath.parser import parse_xpath


@pytest.fixture
def registrar_dtd():
    return parse_dtd(REGISTRAR_DTD_TEXT)


class TestModel:
    def test_child_types(self):
        assert Sequence(("a", "b")).child_types() == ("a", "b")
        assert Alternation(("a", "b")).child_types() == ("a", "b")
        assert Star("a").child_types() == ("a",)
        assert PCData().child_types() == ()
        assert Empty().child_types() == ()

    def test_root_needs_production(self):
        with pytest.raises(DTDError):
            DTD("r", [])

    def test_dangling_reference(self):
        with pytest.raises(DTDError):
            DTD("r", [Production("r", Sequence(("missing",)))])

    def test_registrar_structure(self, registrar_dtd):
        assert registrar_dtd.root == "db"
        assert registrar_dtd.is_star_child("db", "course")
        assert registrar_dtd.is_star_child("prereq", "course")
        assert not registrar_dtd.is_star_child("course", "cno")
        assert registrar_dtd.is_pcdata("cno")

    def test_recursion_detection(self, registrar_dtd):
        assert registrar_dtd.is_recursive
        recursive = registrar_dtd.recursive_types()
        assert "course" in recursive
        assert "prereq" in recursive
        assert "db" not in recursive
        assert "student" not in recursive

    def test_non_recursive_dtd(self):
        dtd = parse_dtd("<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>")
        assert not dtd.is_recursive

    def test_reachable_types(self, registrar_dtd):
        reachable = registrar_dtd.reachable_types()
        assert reachable == {
            "db", "course", "cno", "title", "prereq", "takenBy",
            "student", "ssn", "name",
        }
        assert registrar_dtd.reachable_types("student") == {
            "student", "ssn", "name",
        }

    def test_parents_of(self, registrar_dtd):
        assert registrar_dtd.parents_of("course") == {"db", "prereq"}

    def test_size(self, registrar_dtd):
        assert registrar_dtd.size() == 9 + 9  # 9 types, 9 edges

    def test_str_roundtrips_registrar(self, registrar_dtd):
        text = str(registrar_dtd)
        again = parse_dtd(text)
        assert set(again.types) == set(registrar_dtd.types)


class TestParser:
    def test_pcdata_and_empty(self):
        dtd = parse_dtd("<!ELEMENT a (b)> <!ELEMENT b EMPTY>")
        assert isinstance(dtd.content("b"), Empty)
        assert isinstance(dtd.content("a"), Sequence)

    def test_implicit_pcdata(self):
        dtd = parse_dtd("<!ELEMENT a (b, c)>")
        assert isinstance(dtd.content("b"), PCData)
        assert isinstance(dtd.content("c"), PCData)

    def test_star(self):
        dtd = parse_dtd("<!ELEMENT a (b*)>")
        assert dtd.content("a") == Star("b")

    def test_alternation(self):
        dtd = parse_dtd("<!ELEMENT a (b | c)>")
        assert dtd.content("a") == Alternation(("b", "c"))

    def test_explicit_root_override(self):
        dtd = parse_dtd(
            "<!ELEMENT a (b)> <!ELEMENT b (#PCDATA)>", root="b"
        )
        assert dtd.root == "b"

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!ELEMENT a (b)> <!ELEMENT a (c)>")

    def test_no_declarations_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("just text")

    def test_nested_group_normalized(self):
        dtd = parse_dtd("<!ELEMENT a (b, (c | d), e)>")
        content = dtd.content("a")
        assert isinstance(content, Sequence)
        synthetic = content.types[1]
        assert synthetic.startswith("_g")
        assert dtd.content(synthetic) == Alternation(("c", "d"))

    def test_starred_group_normalized(self):
        dtd = parse_dtd("<!ELEMENT a ((b, c)*)>")
        content = dtd.content("a")
        assert isinstance(content, Star)
        inner = dtd.content(content.type)
        assert inner == Sequence(("b", "c"))

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!ELEMENT a (b, (c>")

    def test_registrar_parse(self):
        dtd = parse_dtd(REGISTRAR_DTD_TEXT)
        assert len(dtd.types) == 9


class TestStaticValidation:
    def test_valid_insert_under_prereq(self, registrar_dtd):
        parents = validate_update(
            registrar_dtd,
            parse_xpath("course[cno=CS650]/prereq"),
            "insert",
            "course",
        )
        assert parents == {"prereq"}

    def test_insert_at_root(self, registrar_dtd):
        parents = validate_update(
            registrar_dtd, parse_xpath("."), "insert", "course"
        )
        assert parents == {"db"}

    def test_insert_wrong_child_type_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(
                registrar_dtd,
                parse_xpath("course[cno=CS650]/prereq"),
                "insert",
                "student",
            )

    def test_insert_under_non_star_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(
                registrar_dtd, parse_xpath("course"), "insert", "cno"
            )

    def test_insert_unknown_type_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(
                registrar_dtd, parse_xpath("."), "insert", "zzz"
            )

    def test_insert_unreachable_path_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(
                registrar_dtd,
                parse_xpath("student/prereq"),
                "insert",
                "course",
            )

    def test_insert_requires_subtree_type(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(registrar_dtd, parse_xpath("."), "insert")

    def test_valid_delete(self, registrar_dtd):
        edges = validate_update(
            registrar_dtd,
            parse_xpath("course[cno=CS650]/prereq/course"),
            "delete",
        )
        assert edges == {("prereq", "course")}

    def test_delete_descendant_path(self, registrar_dtd):
        edges = validate_update(
            registrar_dtd, parse_xpath("//student"), "delete"
        )
        assert edges == {("takenBy", "student")}

    def test_delete_sequence_child_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(registrar_dtd, parse_xpath("course/cno"), "delete")

    def test_delete_root_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(registrar_dtd, parse_xpath("."), "delete")

    def test_delete_course_everywhere(self, registrar_dtd):
        # //course can be a db child or a prereq child; both are starred.
        edges = validate_update(registrar_dtd, parse_xpath("//course"), "delete")
        assert edges == {("db", "course"), ("prereq", "course")}

    def test_label_filter_refines_types(self, registrar_dtd):
        validator = StaticValidator(registrar_dtd)
        types, _ = validator.reachable_types(
            parse_xpath("//*[label()=student]")
        )
        assert types == {"student"}

    def test_wildcard_step(self, registrar_dtd):
        validator = StaticValidator(registrar_dtd)
        types, _ = validator.reachable_types(parse_xpath("course/*"))
        assert types == {"cno", "title", "prereq", "takenBy"}

    def test_value_filters_kept_conservatively(self, registrar_dtd):
        validator = StaticValidator(registrar_dtd)
        types, _ = validator.reachable_types(
            parse_xpath("course[cno=CS650]")
        )
        assert types == {"course"}

    def test_reachable_types_computed_once_and_frozen(
        self, registrar_dtd, monkeypatch
    ):
        # The cache is shared by every later validation of the path, so
        # a caller must not be able to change what the next one reads.
        validator = StaticValidator(registrar_dtd)
        calls = []
        child_types = registrar_dtd.child_types
        monkeypatch.setattr(
            registrar_dtd, "child_types",
            lambda t: calls.append(t) or child_types(t),
        )
        path = parse_xpath("course[cno=CS650]/prereq")
        parents = validator.validate_insert(path, "course")
        computed = len(calls)
        assert computed > 0
        again = validator.validate_insert(parse_xpath("course[cno=CS650]/prereq"),
                                          "course")
        assert len(calls) == computed and again is parents
        types, edges = validator.reachable_types(path)
        with pytest.raises(AttributeError):
            types.add("student")
        with pytest.raises(AttributeError):
            edges.clear()
        assert validator.reachable_types(path) == (
            frozenset({"prereq"}), frozenset({("course", "prereq")})
        )

    def test_unknown_kind_rejected(self, registrar_dtd):
        with pytest.raises(ValidationError):
            validate_update(registrar_dtd, parse_xpath("."), "replace")
