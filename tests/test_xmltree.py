"""Unit tests for the XML tree substrate and serialization."""

from repro.xmltree.serialize import to_xml_string
from repro.xmltree.tree import (
    XMLNode,
    subtree_signature,
    tree_equal,
    tree_size,
)


def build():
    return XMLNode(
        "db",
        (),
        [
            XMLNode("a", ("1",), [XMLNode("x", ("1",), text="1")]),
            XMLNode("a", ("2",), []),
        ],
    )


class TestTree:
    def test_identity(self):
        node = XMLNode("a", ("1", "t"))
        assert node.identity == ("a", ("1", "t"))

    def test_value_only_for_text_nodes(self):
        assert XMLNode("x", ("1",), text="1").value() == "1"
        assert XMLNode("a", ("1",)).value() is None

    def test_iter_preorder(self):
        tree = build()
        assert [n.tag for n in tree.iter()] == ["db", "a", "x", "a"]

    def test_tree_size(self):
        assert tree_size(build()) == 4

    def test_child_by_tag(self):
        tree = build()
        assert tree.child_by_tag("a").sem == ("1",)
        assert tree.child_by_tag("zzz") is None

    def test_tree_equal(self):
        assert tree_equal(build(), build())
        other = build()
        other.children[0].children[0].text = "CHANGED"
        assert not tree_equal(build(), other)

    def test_tree_equal_child_order_matters(self):
        a, b = build(), build()
        b.children.reverse()
        assert not tree_equal(a, b)

    def test_signature_equality(self):
        assert subtree_signature(build()) == subtree_signature(build())

    def test_signature_hashable(self):
        assert {subtree_signature(build())}


class TestSerialize:
    def test_text_leaf(self):
        assert to_xml_string(XMLNode("x", ("1",), text="1")) == "<x>1</x>"

    def test_empty_element(self):
        assert to_xml_string(XMLNode("a", ("1",))) == "<a/>"

    def test_nesting_and_indent(self):
        text = to_xml_string(build())
        assert "<db>" in text and "</db>" in text
        assert "  <a>" in text  # indentation

    def test_escaping(self):
        node = XMLNode("x", (), text="a<b&c>d")
        assert to_xml_string(node) == "<x>a&lt;b&amp;c&gt;d</x>"
