"""XML tree nodes with semantic attributes.

Every node carries the *semantic attribute* tuple ``$A`` that governed its
generation (paper, Section 2.2).  The pair ``(tag, sem)`` identifies a
subtree uniquely — the *subtree property* of schema-directed publishing:
two nodes with the same type and semantic attribute value root identical
subtrees.  This is what makes DAG compression and the revised update
semantics well-defined.
"""

from __future__ import annotations

from typing import Callable, Iterator


class XMLNode:
    """One element node of an XML tree.

    Attributes
    ----------
    tag:
        Element type name.
    sem:
        The semantic-attribute tuple ``$A`` that generated this node.
    children:
        Ordered child elements.
    text:
        String content for ``PCDATA`` elements (``None`` otherwise).
    """

    __slots__ = ("tag", "sem", "children", "text")

    def __init__(
        self,
        tag: str,
        sem: tuple = (),
        children: list["XMLNode"] | None = None,
        text: str | None = None,
    ):
        self.tag = tag
        self.sem = tuple(sem)
        self.children: list[XMLNode] = children if children is not None else []
        self.text = text

    # -- identity ---------------------------------------------------------------

    @property
    def identity(self) -> tuple[str, tuple]:
        """The ``(type, $A)`` pair that determines this node's subtree."""
        return (self.tag, self.sem)

    def value(self) -> str | None:
        """String value used by XPath value filters (``p = "s"``).

        Only PCDATA leaves carry a value; the publisher sets ``text``
        for them.  Hand-built test trees should set ``text`` explicitly.
        """
        return self.text

    # -- traversal --------------------------------------------------------------

    def iter(self) -> Iterator["XMLNode"]:
        """Pre-order traversal of the subtree rooted here (self first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_all(self, predicate: Callable[["XMLNode"], bool]) -> list["XMLNode"]:
        return [node for node in self.iter() if predicate(node)]

    def child_by_tag(self, tag: str) -> "XMLNode | None":
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.tag} sem={self.sem} children={len(self.children)}>"


def tree_size(root: XMLNode) -> int:
    """Number of element nodes in the tree."""
    return sum(1 for _ in root.iter())


def subtree_signature(root: XMLNode) -> tuple:
    """A hashable structural signature of a subtree (tag, text, children).

    Two subtrees with equal signatures are structurally identical
    including child order.  Used to verify the subtree property and to
    compare published trees.
    """
    return (
        root.tag,
        root.text,
        tuple(subtree_signature(child) for child in root.children),
    )


def tree_equal(a: XMLNode, b: XMLNode) -> bool:
    """Structural equality of two trees (tags, texts, ordered children)."""
    if a.tag != b.tag or a.text != b.text or len(a.children) != len(b.children):
        return False
    return all(tree_equal(x, y) for x, y in zip(a.children, b.children))
