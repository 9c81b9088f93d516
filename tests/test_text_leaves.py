"""Shared text leaves through Δ(M,L): ``M``, ``L`` and the collector.

A text leaf (a node of a ``#PCDATA`` type) is nobody's ancestor, and
DAG compression makes one leaf of every equal value, so a ``val`` can
sit under many cnodes and goes only with its last parent.  These tests
hold the product to the reference that stores every row as a set
(:class:`repro.baselines.SetReachabilityIndex`) on streams whose text
leaves are shared, in batches and with base updates that cut and
reverse edges, and delete a shared ``#PCDATA`` child of a starred
production parent by parent.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from index_seam import (
    StaleReadCheckingIndex,
    assert_same_reads,
    reference_index,
    substitute_index,
)
from repro import BaseUpdateOp, DeleteOp, InsertOp, ViewConfig, open_view
from repro.atg.model import ATG, QueryRule
from repro.baselines import SetReachabilityIndex
from repro.core import maintenance
from repro.dtd.parser import parse_dtd
from repro.index import BitsetReachabilityIndex
from repro.ops import ReplaceOp
from repro.relational.conditions import And, Col, Eq, Param
from repro.relational.database import Database, RelationalDelta
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


# ---------------------------------------------------------------------------
# Generated streams with shared text leaves, product and reference in lockstep
# ---------------------------------------------------------------------------


def _exact(updater) -> bool:
    """``M`` is the reference closure of the store, and no row holds
    its own node."""
    reach = updater.reach
    return reach.equals(reference_index(updater.store, updater.topo)) and all(
        a != d for a, d in reach.pairs()
    )


def _service(index_class):
    """A service on ``index_class`` whose updater records, after every
    repair pass of a view update, whether ``M`` is exact
    (``updater.repairs``)."""
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    updater = substitute_index(service.updater, index_class)
    updater.repairs = []
    repair = updater.repair

    def recorded(*args):
        gc = repair(*args)
        updater.repairs.append(_exact(updater))
        return gc

    updater.repair = recorded
    return service


def _updater(index_class):
    return _service(index_class).updater


class _SharedValStream:
    """Resolves drawn op shapes against a synthetic view whose new
    cnodes take the ``val`` of a live one, so a ``val`` leaf sits under
    several cnodes: sharing and new-key inserts, deletes, replaces,
    re-inserts of collected keys, and base updates of ``H`` (a cnode's
    ``sub`` edges) that cut an edge, link two cnodes or reverse an
    edge."""

    def __init__(self, updater):
        self.updater = updater
        self.sems: dict[int, tuple] = {}
        self.fresh = count(5000)

    def live(self) -> list[int]:
        sems = self.updater.store.gen["cnode"].values()
        self.sems.update((sem[0], sem) for sem in sems)
        return sorted(sem[0] for sem in sems)

    def op(self, kind, a, b):
        live = self.live()
        if not live:
            return None
        if kind in ("cut", "link", "reverse"):
            return self.base_update(kind, live, a, b)
        parent = live[a % len(live)]
        if kind == "delete":
            return DeleteOp(f"//cnode[key={parent}]")
        if kind == "new":
            key = next(self.fresh)
            sem = (key, self.sems[live[b % len(live)]][1])
        else:
            pool = live if kind in ("share", "replace") else sorted(
                set(self.sems) - set(live)
            )
            if not pool:
                return None
            sem = self.sems[pool[b % len(pool)]]
        if kind == "replace":
            store = self.updater.store
            node = store.lookup("cnode", self.sems[parent])
            (sub,) = (c for c in store.children_of(node) if store.type_of(c) == "sub")
            below = store.children_of(sub)
            if not below:
                return None
            child = store.sem_of(below[b % len(below)])[0]
            return ReplaceOp(
                f"//cnode[key={parent}]/sub/cnode[key={child}]", "cnode", sem
            )
        return InsertOp(f"//cnode[key={parent}]/sub", "cnode", sem)

    def base_update(self, kind, live, a, b) -> RelationalDelta | None:
        """A ``ΔR`` on ``H``: delete an edge's row, insert a row between
        two cnodes that closes no cycle, or both for one edge reversed."""
        store = self.updater.store
        node = {key: store.lookup("cnode", self.sems[key]) for key in live}
        delta = RelationalDelta()
        if kind == "link":
            up, down = live[a % len(live)], live[b % len(live)]
            if up == down or _reaches(store, node[down], node[up]) or any(
                node[down] in store.children_of(sub)
                for sub in store.children_of(node[up])
            ):
                return None
            delta.insert("H", (up, down))
            return delta
        edges = [
            (key, sub, store.sem_of(child)[0])
            for key in live
            for sub in store.children_of(node[key])
            if store.type_of(sub) == "sub"
            for child in store.children_of(sub)
        ]
        if not edges:
            return None
        up, sub, down = edges[a % len(edges)]
        delta.delete("H", (up, down))
        if kind == "reverse":
            if _reaches(store, node[up], node[down], cut=(sub, node[down])):
                return None  # another path: the reversed edge would close a cycle
            delta.insert("H", (down, up))
        return delta


def _reaches(store, start, goal, cut=None) -> bool:
    """Whether ``goal`` is below ``start`` in the store, without the
    edge ``cut``."""
    stack, seen = [start], {start}
    while stack:
        parent = stack.pop()
        for child in store.children_of(parent):
            if child == goal and (parent, child) != cut:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


_draw = st.tuples(
    st.sampled_from(("share", "new", "delete", "reinsert", "replace")),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)
_base = st.tuples(
    st.sampled_from(("cut", "link", "reverse")),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)
#: A group is one op or base update, or a batch of them.
_groups = st.lists(
    st.lists(st.one_of(_draw, _base), min_size=1, max_size=4), max_size=6
)


def _run(service, stream, group):
    """Apply ``group``: one op on its own, several in one batch."""
    with service.batch() if len(group) > 1 else nullcontext():
        for draw in group:
            op = stream.op(*draw)
            if isinstance(op, RelationalDelta):
                op = BaseUpdateOp.from_delta(op)
            if op is not None:
                service.apply(op)


def _seeded(index_class):
    """A service on ``index_class`` whose view has a ``val`` under
    several cnodes, and its stream."""
    service = _service(index_class)
    stream = _SharedValStream(service.updater)
    for draw in [("new", 3, 5), ("new", 8, 13), ("new", 1, 21)]:
        _run(service, stream, [draw])
    return service, stream


@settings(max_examples=30, deadline=None)
@given(groups=_groups)
# A batch that cuts an edge and then shares a subtree below the cut:
# repaired insert first, its closure would read rows that still hold
# the cut edge's pairs.
@example(groups=[[("delete", 5, 0), ("share", 11, 1)]])
# A base update that reverses an edge: attached first, the reversed
# edge's closure would read its new parent's stale row.
@example(groups=[[("reverse", 3, 0)]])
# Batches that collect the target of their own insert, and its new nodes.
@example(groups=[[("share", 7, 3), ("delete", 7, 0)]])
@example(groups=[[("new", 7, 3), ("delete", 7, 0)]])
def test_shared_text_leaves_match_the_reference_in_lockstep(groups):
    """Both updaters take the same ops (single ones, batches and base
    updates); the reference checks that Δ(M,L)insert reads no stale
    row.  After each, the product's reads equal the reference's, both
    equal a fresh Algorithm Reach's, and no row holds its own node."""
    (product, first), (reference, second) = _seeded(
        BitsetReachabilityIndex
    ), _seeded(StaleReadCheckingIndex)
    store = product.store
    shared = [
        leaf for leaf in store.nodes()
        if store.value_of(leaf) is not None and len(store.parents_of(leaf)) > 1
    ]
    assert shared  # a val under several cnodes
    for group in groups:
        _run(product, first, group)
        _run(reference, second, group)
        store = product.store
        assert store.digest() == reference.store.digest()
        assert product.topo.as_list() == reference.topo.as_list()
        assert_same_reads(store, product.reach, reference.reach)
        assert _exact(product) and _exact(reference)
    assert all(product.updater.repairs) and all(reference.updater.repairs)
    assert product.check_consistency() == []


def test_a_batch_insert_repair_writes_no_self_pair(monkeypatch):
    """A base update that reverses an edge: one repair over its lists —
    the cut edge's delete target and the reversed edge's attachment —
    runs the delete pass first, so between the two passes no row holds
    its own node, in the product and in the reference, and both end
    with the same pairs, some gained and some lost."""
    between = []
    maintain_insert = maintenance.maintain_insert

    def checked(store, topo, reach, inserts):
        between.append([a for a, d in reach.pairs() if a == d])
        return maintain_insert(store, topo, reach, inserts)

    pairs = []
    for index_class in (BitsetReachabilityIndex, SetReachabilityIndex):
        service, stream = _seeded(index_class)
        delta = stream.op("reverse", 3, 0)
        assert delta is not None
        before = set(service.reach.pairs())
        monkeypatch.setattr(maintenance, "maintain_insert", checked)
        service.apply(BaseUpdateOp.from_delta(delta))
        monkeypatch.undo()
        after = set(service.reach.pairs())
        assert after - before and before - after
        assert _exact(service.updater)
        assert service.check_consistency() == []
        pairs.append(after)
    assert len(between) == 2
    assert between == [[], []]
    assert pairs[0] == pairs[1]


def test_a_delete_counts_the_pairs_its_text_leaves_lose():
    """Cutting a cnode from its only parent: the sweep removes the
    pairs of the collected ``key`` / ``val`` leaves and adds none, as
    the reference's does."""
    lost = []
    for index_class in (BitsetReachabilityIndex, SetReachabilityIndex):
        updater = _updater(index_class)
        stream = _SharedValStream(updater)
        store = updater.store
        leaves = {n for n in store.nodes() if store.value_of(n) is not None}
        before = set(updater.reach.pairs())
        updater.apply_op(stream.op("delete", 5, 0))
        assert updater.repairs == [True]
        after = set(updater.reach.pairs())
        collected = {n for n in leaves if not store.has_node(n)}
        assert collected and after <= before
        assert {(a, d) for a, d in before if d in collected} <= before - after
        lost.append(before - after)
    assert lost[0] == lost[1]


# ---------------------------------------------------------------------------
# A starred #PCDATA child: list (item*), item (#PCDATA)
# ---------------------------------------------------------------------------


def list_view() -> tuple[ATG, Database]:
    """``db`` lists ``L``'s lists; each lists its ``I`` items.  Item
    ``x`` is under all three lists, ``a`` / ``b`` / ``c`` under one."""
    dtd = parse_dtd(
        "<!ELEMENT db (list*)>\n<!ELEMENT list (item*)>\n"
        "<!ELEMENT item (#PCDATA)>\n"
    )
    signatures = {"db": (), "list": ("lid",), "item": ("txt",)}
    rules = [
        QueryRule("db", "list", SPJQuery(
            "Qdb_list", [("L", "l")], [("lid", Col("l", "lid"))], And(),
        )),
        QueryRule("list", "item", SPJQuery(
            "Qlist_item", [("I", "i")], [("txt", Col("i", "txt"))],
            Eq(Col("i", "lid"), Param("lid")),
        )),
    ]
    db = Database("lists")
    db.create_table(RelationSchema("L", [("lid", AttrType.INT)], ["lid"]))
    db.create_table(RelationSchema(
        "I", [("lid", AttrType.INT), ("txt", AttrType.STR)], ["lid", "txt"]
    ))
    db.insert_all("L", [(1,), (2,), (3,)])
    db.insert_all("I", [(1, "a"), (1, "x"), (2, "b"), (2, "x"), (3, "c"), (3, "x")])
    return ATG(dtd, signatures, rules), db


@pytest.fixture
def lists():
    service = open_view(*list_view())
    assert isinstance(service.updater.reach, BitsetReachabilityIndex)
    return service


def _check(service):
    updater = service.updater
    store, reach = updater.store, updater.reach
    reference = reference_index(store, updater.topo)
    assert_same_reads(store, reach, reference)
    assert service.check_consistency() == []


def test_a_shared_item_goes_with_its_last_parent(lists):
    store, topo = lists.updater.store, lists.updater.topo
    x = store.lookup("item", ("x",))
    assert len(store.parents_of(x)) == 3
    _check(lists)
    for first, left in (("a", 2), ("b", 1)):
        outcome = lists.apply(DeleteOp(f"list[item={first}]/item[.=x]"))
        assert outcome.accepted
        assert store.lookup("item", ("x",)) == x and x in topo
        assert len(store.parents_of(x)) == left
        _check(lists)
    outcome = lists.apply(DeleteOp("list[item=c]/item[.=x]"))
    assert outcome.accepted
    assert store.lookup("item", ("x",)) is None
    assert x not in topo
    _check(lists)


def test_sharing_an_item_adds_its_pairs_with_the_edge(lists):
    store = lists.updater.store
    b = store.lookup("item", ("b",))
    (one,) = lists.xpath("list[item=a]").targets
    assert not lists.reach.is_ancestor(one, b)
    assert lists.apply(InsertOp("list[item=a]", "item", ("b",))).accepted
    assert lists.reach.is_ancestor(one, b) and b in lists.reach.region(store, [one])
    _check(lists)
    assert lists.apply(DeleteOp("list[item=a]/item[.=b]")).accepted
    assert not lists.reach.is_ancestor(one, b)
    _check(lists)


@pytest.mark.parametrize("index_class", [BitsetReachabilityIndex, SetReachabilityIndex])
def test_retain_below_condemns_an_orphaned_leaf(index_class):
    """A target leaf whose last edge ``ΔV`` removed is condemned by the
    sweep, which removes the pairs the edge gave it (its list and the
    root): ``M`` still covered the edge until the repair."""
    service = open_view(*list_view())
    updater = substitute_index(service.updater, index_class)
    store, topo, reach = updater.store, updater.topo, updater.reach
    a = store.lookup("item", ("a",))
    (parent,) = store.parents_of(a)
    before = len(reach)
    store.remove_edge(parent, a)
    assert len(reach) == before and reach.is_ancestor(parent, a)
    report = maintenance.maintain_delete(store, topo, reach, [a])
    assert report.removed_nodes == [a]
    assert len(reach) == before - 2
    assert not store.has_node(a) and a not in topo
    assert reach.equals(reference_index(store, topo))
