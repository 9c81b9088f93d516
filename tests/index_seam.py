"""The product's ``M`` and its reference, and the seam a test swaps them at.

The product constructs one class, ``BitsetReachabilityIndex``; there is
no knob that selects another.  ``ReachabilityIndex`` is kept as the seam
through which a test puts ``repro.baselines.SetReachabilityIndex`` — the
paper's matrix as a dict of sets — in its place, so the oracle can sit
under a whole updater and not only next to one index.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.baselines import SetReachabilityIndex
from repro.core.topo import TopoOrder
from repro.dtd.parser import parse_dtd
from repro.index import BitsetReachabilityIndex
from repro.views.store import ViewStore

#: ``@pytest.mark.parametrize("index_class", INDEX_CLASSES)``.
INDEX_CLASSES = [
    pytest.param(BitsetReachabilityIndex, id="bitset"),
    pytest.param(SetReachabilityIndex, id="sets"),
]


def reference_index(store, topo) -> SetReachabilityIndex:
    """Algorithm Reach on the reference, for the current store."""
    reference = SetReachabilityIndex()
    reference.recompute(store, topo)
    return reference


def assert_same_reads(store, product, reference):
    """Every read of ``M`` the product answers, against the reference:
    the pairs, |M|, and per text leaf (a node with a PCDATA value) its
    row, its pair bits, its ancestors-or-self mask and its membership in
    regions, with the element nodes' membership too."""
    assert set(product.pairs()) == set(reference.pairs())
    assert len(product) == len(reference)
    assert product.equals(reference) and reference.equals(product)
    nodes = sorted(store.nodes())
    leaves = [node for node in nodes if store.value_of(node) is not None]
    elements = [node for node in nodes if store.value_of(node) is None]
    for leaf in leaves:
        ancestors = reference.anc(leaf)
        assert product.anc(leaf) == ancestors
        for node in elements[:: max(1, len(elements) // 12)]:
            assert product.is_ancestor(node, leaf) == (node in ancestors)
        assert product.anc_or_self_mask([leaf]) == reference.anc_or_self_mask(
            [leaf]
        )
    assert product.anc_of_set(leaves) == reference.anc_of_set(leaves)
    starts = [store.root_id, *elements[:: max(1, len(elements) // 6)]]
    for start in starts:
        mine = product.region(store, [start])
        theirs = reference.region(store, [start])
        assert [node in mine for node in nodes] == [
            node in theirs for node in nodes
        ]


def store_ancestors(store, node: int) -> set[int]:
    """``node``'s proper ancestors in the store's current edges."""
    seen: set[int] = set()
    stack = [node]
    while stack:
        for parent in store.parents.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


class StaleReadCheckingIndex(SetReachabilityIndex):
    """The reference, asserting that Δ(M,L)insert reads no stale row:
    before each ``add_closure_below`` every parent's row must be a
    subset of that parent's ancestors in the store's current closure."""

    __slots__ = ()

    def add_closure_below(self, store, parents, node):
        parents = list(parents)
        for parent in parents:
            stale = self.anc(parent) - store_ancestors(store, parent)
            assert not stale, f"row {parent} holds non-ancestors {stale}"
        return super().add_closure_below(store, parents, node)


def substitute_index(updater, index_class):
    """Make ``updater`` keep ``M`` in an ``index_class`` from here on.

    Every consumer reads ``updater.reach`` through the interface at the
    time it needs it, so swapping the attribute right after construction
    swaps the implementation for the updater's whole life (nothing
    builds a new index after construction).
    """
    if not isinstance(updater.reach, index_class):
        updater.reach = index_class()
        updater.reach.recompute(updater.store, updater.topo)
    return updater


_DAG_DTD = parse_dtd("<!ELEMENT n (n*)>")


def dag_store(size: int, edges) -> tuple[ViewStore, TopoOrder]:
    """Nodes ``0..size-1`` (ids are the interning order, ``0`` the
    root) joined by ``edges``, as a ViewStore plus its ``L``."""
    store = ViewStore(SimpleNamespace(dtd=_DAG_DTD))
    for i in range(size):
        store.intern("n", (i,))
    store.root_id = 0
    for parent, child in edges:
        store.add_edge(parent, child)
    return store, TopoOrder.from_store(store)


class Edges:
    """A store stand-in for the operations of ``M`` that walk edges
    (``add_closure_below``, ``retain_below``, ``region``): a child map,
    walked by the store's own ``descendants_of``, with no root."""

    root_id = None

    def __init__(self, children: dict[int, list[int]]):
        self.children = children

    @classmethod
    def of_pairs(cls, index) -> "Edges":
        """Every pair of ``index`` as an edge: the store of a lockstep
        stream, where ``M`` is not the closure of any store."""
        children: dict[int, list[int]] = {}
        for a, d in sorted(index.pairs()):
            children.setdefault(a, []).append(d)
        return cls(children)

    def children_of(self, node: int) -> list[int]:
        return self.children.get(node, [])

    @property
    def parents(self) -> dict[int, set[int]]:
        parents: dict[int, set[int]] = {}
        for parent, children in self.children.items():
            for child in children:
                parents.setdefault(child, set()).add(parent)
        return parents

    def descendants_of(self, roots) -> set[int]:
        return ViewStore.descendants_of(self, roots)
