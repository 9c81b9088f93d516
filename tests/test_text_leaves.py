"""Shared text leaves through Δ(M,L): ``M``, ``L`` and the collector.

A text leaf (a node of a ``#PCDATA`` type) is nobody's ancestor, and
DAG compression makes one leaf of every equal value, so a ``val`` can
sit under many cnodes and goes only with its last parent.  These tests
hold the product to the reference that stores every row as a set
(:class:`repro.baselines.SetReachabilityIndex`) on streams whose text
leaves are shared, and delete a shared ``#PCDATA`` child of a starred
production parent by parent.
"""

from __future__ import annotations

from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from index_seam import assert_same_reads, reference_index, substitute_index
from repro import DeleteOp, InsertOp, open_view
from repro.atg.model import ATG, QueryRule
from repro.baselines import SetReachabilityIndex
from repro.core import maintenance
from repro.core import updater as updater_module
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.dtd.parser import parse_dtd
from repro.index import BitsetReachabilityIndex
from repro.ops import ReplaceOp
from repro.relational.conditions import And, Col, Eq, Param
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


# ---------------------------------------------------------------------------
# Generated streams with shared text leaves, product and reference in lockstep
# ---------------------------------------------------------------------------


class _Recording(XMLViewUpdater):
    """Records every repair pass: (growth of |M|, pairs added, pairs
    removed)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.repairs: list[tuple[int, int, int]] = []

    def repair(self, inserts, delete_targets, placed=False):
        before = len(self.reach)
        added, gc = super().repair(inserts, delete_targets, placed)
        removed = gc.removed_pairs if gc is not None else 0
        self.repairs.append((len(self.reach) - before, added, removed))
        return added, gc


def _updater(index_class):
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
    updater = _Recording(
        dataset.atg, dataset.db,
        side_effect_policy=SideEffectPolicy.PROPAGATE, strict=False,
    )
    return substitute_index(updater, index_class)


class _SharedValStream:
    """Resolves drawn op shapes against a synthetic view whose new
    cnodes take the ``val`` of a live one, so a ``val`` leaf sits under
    several cnodes: sharing and new-key inserts, deletes, replaces, and
    re-inserts of collected keys."""

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


_draw = st.tuples(
    st.sampled_from(("share", "new", "delete", "reinsert", "replace")),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)


def _run(updater, stream, group):
    if len(group) == 1:
        op = stream.op(*group[0])
        if op is not None:
            updater.apply_op(op)
        return
    with updater.batch():
        for draw in group:
            op = stream.op(*draw)
            if op is not None:
                updater.apply_op(op)


@settings(max_examples=30, deadline=None)
@given(groups=st.lists(st.lists(_draw, min_size=1, max_size=4), max_size=6))
# A batch whose sharing insert is repaired while M still holds the
# deleted edge's pairs: the walk hands a stale own bit down, which the
# delete pass then removes.
@example(groups=[[("delete", 5, 0), ("share", 11, 1)]])
def test_shared_text_leaves_match_the_reference_in_lockstep(groups):
    """Both updaters take the same ops (single ones and batches): after
    each, the product's reads equal the reference's and a fresh
    Algorithm Reach's, and the repairs report the same pair counts."""
    product, reference = _updater(BitsetReachabilityIndex), _updater(
        SetReachabilityIndex
    )
    streams = _SharedValStream(product), _SharedValStream(reference)
    for draw in [("new", 3, 5), ("new", 8, 13), ("new", 1, 21)]:
        _run(product, streams[0], [draw])
        _run(reference, streams[1], [draw])
    store = product.store
    shared = [
        leaf for leaf in store.nodes()
        if store.value_of(leaf) is not None and len(store.parents_of(leaf)) > 1
    ]
    assert shared  # a val under several cnodes
    for group in groups:
        _run(product, streams[0], group)
        _run(reference, streams[1], group)
        store = product.store
        assert store.digest() == reference.store.digest()
        assert product.topo.as_list() == reference.topo.as_list()
        assert_same_reads(store, product.reach, reference.reach)
        assert reference.reach.equals(reference_index(store, product.topo))
        assert product.repairs == reference.repairs
    for growth, added, removed in product.repairs:
        assert growth == added - removed
    assert product.check_consistency() == []


def test_a_batch_insert_repair_writes_no_self_pair(monkeypatch):
    """A batch repairs its inserts before its delete pass, on rows that
    still hold the pairs of the edge it deleted: the sharing insert's
    closure reads a stale ancestor path through a node below it.
    Between the two passes no row holds its own node, in the product
    and in the reference, and their reports agree."""
    between = []
    maintain_delete = updater_module.maintain_delete

    def checked(store, topo, reach, targets):
        between.append([a for a, d in reach.pairs() if a == d])
        return maintain_delete(store, topo, reach, targets)

    monkeypatch.setattr(updater_module, "maintain_delete", checked)
    reports = []
    for index_class in (BitsetReachabilityIndex, SetReachabilityIndex):
        updater = _updater(index_class)
        stream = _SharedValStream(updater)
        for draw in [("new", 3, 5), ("new", 8, 13), ("new", 1, 21)]:
            _run(updater, stream, [draw])
        _run(updater, stream, [("delete", 5, 0), ("share", 11, 1)])
        (growth, added, removed) = updater.repairs[-1]
        assert added > 0 and removed > 0 and growth == added - removed
        assert updater.check_consistency() == []
        reports.append(updater.repairs)
    assert len(between) == 2
    assert between == [[], []]
    assert reports[0] == reports[1]


def test_a_delete_counts_the_pairs_its_text_leaves_lose():
    """Cutting a cnode from its only parent: the sweep's count includes
    the pairs of the collected ``key`` / ``val`` leaves, as the
    reference's does."""
    counts = []
    for index_class in (BitsetReachabilityIndex, SetReachabilityIndex):
        updater = _updater(index_class)
        stream = _SharedValStream(updater)
        before = len(updater.reach)
        updater.apply_op(stream.op("delete", 5, 0))
        (growth, added, removed), = updater.repairs
        assert growth == -removed and added == 0
        assert before - len(updater.reach) == removed
        counts.append(removed)
    assert counts[0] == counts[1] > 0


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
    sweep, which counts the pairs the edge gave it (its list and the
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
    assert report.removed_nodes == [a] and report.removed_pairs == 2
    assert len(reach) == before - 2
    assert not store.has_node(a) and a not in topo
    assert reach.equals(reference_index(store, topo))
