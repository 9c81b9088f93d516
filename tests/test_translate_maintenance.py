"""Tests for Xinsert/Xdelete and the Δ(M,L) maintenance algorithms."""

from collections import Counter
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncompiled
from index_seam import (
    INDEX_CLASSES,
    dag_store,
    reference_index,
    substitute_index,
)
from repro.atg.publisher import publish_store, publish_subtree
from repro.baselines.recompute import recompute_structures
from repro.core.dag_eval import DagXPathEvaluator
from repro.core.maintenance import (
    maintain_delete,
    repair,
    repair_topo_after_insert,
)
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.translate import xdelete, xinsert
from repro.ops import DeleteOp, InsertOp, ReplaceOp
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath


@pytest.fixture
def env():
    atg, db = build_registrar()
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    evaluator = DagXPathEvaluator(store, topo, reach)
    return atg, db, store, topo, reach, evaluator


def maintain_insert(store, topo, reach, subtree, targets):
    """Δ(M,L)insert for one applied insert: ``L``, then ``M``."""
    repair_topo_after_insert(store, topo, subtree, targets)
    repair(store, topo, reach, [(subtree, targets)], None)


def assert_structures_match_recompute(store, topo, reach):
    fresh = recompute_structures(store)
    assert reach.equals(fresh.reach), "M diverged from recomputation"
    for node in store.nodes():
        for child in store.children_of(node):
            assert topo.position(child) < topo.position(node)
    assert set(topo.as_list()) == set(store.nodes())


class TestXdelete:
    def test_single_edge(self, env):
        _, _, store, _, _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq/course"), mode="delete"
        )
        delta = xdelete(store, result)
        assert len(delta) == 1
        op = delta.ops[0]
        assert op.kind == "delete"
        assert op.relation == "edge_prereq_course"

    def test_multiple_edges_for_shared_child(self, env):
        _, _, store, _, _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("//student[ssn=S02]"), mode="delete"
        )
        delta = xdelete(store, result)
        assert len(delta) == 2  # two takenBy parents

    def test_dedup(self, env):
        _, _, store, _, _, evaluator = env
        result = evaluator.evaluate(parse_xpath("//course"), mode="delete")
        delta = xdelete(store, result)
        keys = [(op.parent, op.child) for op in delta]
        assert len(keys) == len(set(keys))


class TestXinsert:
    def test_new_subtree_edges(self, env):
        atg, db, store, _, _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq"), mode="insert"
        )
        subtree = publish_subtree(atg, db, store, "course", ("CS900", "New"))
        delta = xinsert(store, result.targets, subtree)
        kinds = {op.relation for op in delta}
        # internal edges (cno/title/prereq/takenBy) + connection edge
        assert "edge_course_cno" in kinds
        assert "edge_prereq_course" in kinds
        connection = [op for op in delta if op.child == subtree.root]
        assert len(connection) == 1

    def test_existing_subtree_only_connects(self, env):
        atg, db, store, _, _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq"), mode="insert"
        )
        subtree = publish_subtree(
            atg, db, store, "course", ("CS500", "Operating Systems")
        )
        delta = xinsert(store, result.targets, subtree)
        assert len(delta) == 1  # just the connecting edge

    def test_set_semantics_existing_edge_skipped(self, env):
        atg, db, store, _, _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq"), mode="insert"
        )
        subtree = publish_subtree(
            atg, db, store, "course", ("CS320", "Databases")
        )
        delta = xinsert(store, result.targets, subtree)
        assert len(delta) == 0  # edge already present


class TestMaintainInsert:
    def _do_insert(self, env, path_text, element, sem):
        atg, db, store, topo, reach, evaluator = env
        result = evaluator.evaluate(parse_xpath(path_text), mode="insert")
        subtree = publish_subtree(atg, db, store, element, sem)
        delta = xinsert(store, result.targets, subtree)
        store.apply(delta)
        maintain_insert(store, topo, reach, subtree, result.targets)
        return store, topo, reach

    def test_new_leafy_subtree(self, env):
        store, topo, reach = self._do_insert(
            env, "course[cno=CS650]/prereq", "course", ("CS900", "New")
        )
        assert_structures_match_recompute(store, topo, reach)

    def test_existing_shared_subtree(self, env):
        store, topo, reach = self._do_insert(
            env,
            "course[cno=CS650]/prereq",
            "course",
            ("CS500", "Operating Systems"),
        )
        assert_structures_match_recompute(store, topo, reach)
        cs500 = store.lookup("course", ("CS500", "Operating Systems"))
        cs650 = store.lookup("course", ("CS650", "Advanced Databases"))
        assert reach.is_ancestor(cs650, cs500)

    def test_insert_under_multiple_targets(self, env):
        store, topo, reach = self._do_insert(
            env, "//prereq", "course", ("CS901", "Everywhere")
        )
        assert_structures_match_recompute(store, topo, reach)

    def test_diamond_in_new_subtree(self, env):
        """A new subtree whose internal DAG has a diamond (two new parents
        share a new child): placement must be children-first regardless of
        creation order (regression for the mixed-sequence bug)."""
        atg, db, store, topo, reach, evaluator = env
        # CS910 -> {CS911, CS912} -> CS913 (shared): a diamond of new nodes.
        db.insert_all(
            "course",
            [
                ("CS910", "Top", "X"),
                ("CS911", "Mid1", "X"),
                ("CS912", "Mid2", "X"),
                ("CS913", "Shared", "X"),
            ],
        )
        db.insert_all(
            "prereq",
            [
                ("CS910", "CS911"),
                ("CS910", "CS912"),
                ("CS911", "CS913"),
                ("CS912", "CS913"),
            ],
        )
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq"), mode="insert"
        )
        subtree = publish_subtree(atg, db, store, "course", ("CS910", "Top"))
        delta = xinsert(store, result.targets, subtree)
        store.apply(delta)
        maintain_insert(store, topo, reach, subtree, result.targets)
        assert_structures_match_recompute(store, topo, reach)

    def test_report_counts(self, env):
        atg, db, store, topo, reach, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq"), mode="insert"
        )
        subtree = publish_subtree(atg, db, store, "course", ("CS902", "N"))
        delta = xinsert(store, result.targets, subtree)
        store.apply(delta)
        before = len(reach), len(topo)
        maintain_insert(store, topo, reach, subtree, result.targets)
        assert all(node in topo for node in subtree.new_nodes)
        assert len(topo) == before[1] + len(subtree.new_nodes)
        assert len(reach) > before[0]
        assert reach.equals(reference_index(store, topo))


class TestMaintainDelete:
    def _do_delete(self, env, path_text):
        atg, db, store, topo, reach, evaluator = env
        result = evaluator.evaluate(parse_xpath(path_text), mode="delete")
        delta = xdelete(store, result)
        store.apply(delta)
        report = maintain_delete(store, topo, reach, result.targets)
        return store, topo, reach, report

    def test_delete_shared_child_keeps_subtree(self, env):
        store, topo, reach, report = self._do_delete(
            env, "course[cno=CS650]/prereq/course[cno=CS320]"
        )
        # CS320 remains (still a root course); no GC.
        assert store.lookup("course", ("CS320", "Databases")) is not None
        assert report.removed_nodes == []
        assert_structures_match_recompute(store, topo, reach)

    def test_delete_all_occurrences_triggers_gc(self, env):
        atg, db, store, topo, reach, evaluator = env
        # Remove student S03 from its only parent.
        result = evaluator.evaluate(
            parse_xpath("//student[ssn=S03]"), mode="delete"
        )
        delta = xdelete(store, result)
        store.apply(delta)
        report = maintain_delete(store, topo, reach, result.targets)
        assert store.lookup("student", ("S03", "Edsger")) is None
        assert len(report.removed_nodes) == 3  # student + ssn + name
        assert_structures_match_recompute(store, topo, reach)

    def test_gc_preserves_shared_grandchildren(self, env):
        atg, db, store, topo, reach, evaluator = env
        # Delete CS320 from everywhere; its student S02 must survive
        # (still under CS500), its cno/title leaves must not.
        result = evaluator.evaluate(
            parse_xpath("//course[cno=CS320]"), mode="delete"
        )
        delta = xdelete(store, result)
        store.apply(delta)
        maintain_delete(store, topo, reach, result.targets)
        assert store.lookup("course", ("CS320", "Databases")) is None
        assert store.lookup("student", ("S02", "Grace")) is not None
        assert store.lookup("cno", ("CS320",)) is None
        assert_structures_match_recompute(store, topo, reach)

    def test_removed_info_describes_collected_nodes(self, env):
        store, _, _, report = self._do_delete(env, "//course[cno=CS240]")
        # Every collected node is described (type + PCDATA value) even
        # though the store no longer holds it: commit events need it.
        assert report.removed_nodes
        assert set(report.removed_info) == set(report.removed_nodes)
        assert not any(store.has_node(n) for n in report.removed_nodes)
        described = sorted(report.removed_info.values(), key=str)
        assert ("course", None) in described
        assert ("cno", "CS240") in described
        # Shared student S03 was only under CS240: collected too.
        assert ("ssn", "S03") in described

    def test_example7_reachability_update(self, env):
        """Paper Example 7: after deleting S02 under CS320, the
        reachability from CS500's side to S02 must survive."""
        atg, db, store, topo, reach, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("//course[cno=CS320]//student[ssn=S02]"),
            mode="delete",
        )
        delta = xdelete(store, result)
        store.apply(delta)
        maintain_delete(store, topo, reach, result.targets)
        s02 = store.lookup("student", ("S02", "Grace"))
        taken_500 = store.lookup("takenBy", ("CS500",))
        taken_320 = store.lookup("takenBy", ("CS320",))
        assert reach.is_ancestor(taken_500, s02)
        assert not reach.is_ancestor(taken_320, s02)
        assert_structures_match_recompute(store, topo, reach)


# ---------------------------------------------------------------------------
# Δ(M,L)insert pays for the pairs an insert adds, on both index classes
# ---------------------------------------------------------------------------


class _CountingRows(dict):
    """A row dict of an index that counts row reads and row writes."""

    def __init__(self, rows, counts):
        super().__init__(rows)
        self.counts = counts

    def get(self, key, default=None):
        self.counts["reads"] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.counts["reads"] += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.counts["writes"] += 1
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self.counts["writes"] += 1
        return super().setdefault(key, default)

    def pop(self, key, *default):
        self.counts["writes"] += 1
        return super().pop(key, *default)


def _count_row_access(reach) -> Counter:
    """Route every row access of ``reach`` through counters: every row
    dict the index keeps (both classes keep one, of ancestor rows)."""
    counts = Counter()
    for name in type(reach).__slots__:
        rows = getattr(reach, name)
        if isinstance(rows, dict):
            setattr(reach, name, _CountingRows(rows, counts))
    return counts


@pytest.fixture(params=INDEX_CLASSES)
def indexed_env(request):
    atg, db = build_registrar()
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    reach = request.param()
    reach.recompute(store, topo)
    return atg, db, store, topo, reach, DagXPathEvaluator(store, topo, reach)


def _attach(env, path_text, element, sem):
    """Xinsert applied to the store; ``M`` and ``L`` not yet repaired."""
    atg, db, store, _, _, evaluator = env
    result = evaluator.evaluate(parse_xpath(path_text), mode="insert")
    subtree = publish_subtree(atg, db, store, element, sem)
    store.apply(xinsert(store, result.targets, subtree))
    return result.targets, subtree


class TestInsertPaysForAddedPairs:
    def test_sharing_insert_with_pairs_present_touches_no_row(self, indexed_env):
        # CS650 reaches CS240 through CS320 already: attaching CS240
        # under CS650's prereq adds an edge and no pair.
        _, _, store, topo, reach, _ = indexed_env
        targets, subtree = _attach(
            indexed_env, "course[cno=CS650]/prereq",
            "course", ("CS240", "Data Structures"),
        )
        st_nodes = {subtree.root} | store.descendants_of([subtree.root])
        assert subtree.new_nodes == [] and len(st_nodes) > 5
        before = sorted(reach.pairs())
        counts = _count_row_access(reach)
        maintain_insert(store, topo, reach, subtree, targets)
        assert counts["writes"] == 0
        # One row per target and the root's (ΔM reads its ancestors),
        # however large ST is; the L repair reads rows only for a swap.
        assert counts["reads"] == len(targets) + 1
        assert sorted(reach.pairs()) == before
        assert_structures_match_recompute(store, topo, reach)

    def test_new_nodes_over_shared_region(self, indexed_env):
        # CS930 is new; its prereq holds the shared CS320 region and its
        # takenBy the shared student S02, so new nodes have old children.
        _, db, store, topo, reach, _ = indexed_env
        db.insert_all("course", [("CS930", "Capstone", "CS")])
        db.insert_all("prereq", [("CS930", "CS320")])
        db.insert_all("enroll", [("S02", "CS930")])
        targets, subtree = _attach(
            indexed_env, "course[cno=CS500]/prereq",
            "course", ("CS930", "Capstone"),
        )
        new = set(subtree.new_nodes)
        assert any(
            child not in new for n in new for child in store.children_of(n)
        )
        before = len(reach)
        maintain_insert(store, topo, reach, subtree, targets)
        assert len(reach) > before
        assert reach.equals(reference_index(store, topo))
        cs500 = store.lookup("course", ("CS500", "Operating Systems"))
        cs240 = store.lookup("course", ("CS240", "Data Structures"))
        assert reach.is_ancestor(cs500, cs240)
        assert_structures_match_recompute(store, topo, reach)


class TestDeleteWritesAncestorRowsOnly:
    def test_delete_writes_at_most_one_row_per_lr_node(
        self, indexed_env, monkeypatch
    ):
        # Deleting CS320 everywhere collects its subtree: every node of
        # LR loses ancestors, more pairs in all than LR has nodes.  Only
        # ancestor rows are recomputed, all in the one bulk call, so the
        # pass writes at most one row per node of LR, not one per
        # removed pair, and no row outside that call.
        _, _, store, topo, reach, evaluator = indexed_env
        result = evaluator.evaluate(
            parse_xpath("//course[cno=CS320]"), mode="delete"
        )
        store.apply(xdelete(store, result))
        lr = set(result.targets) | store.descendants_of(result.targets)
        counts = _count_row_access(reach)
        bulk = type(reach).retain_below
        swept: list[tuple[list[int], int]] = []

        def retain_below(index, store, order):
            order = list(order)
            out = bulk(index, store, order)
            swept.append((order, counts["writes"]))
            return out

        monkeypatch.setattr(type(reach), "retain_below", retain_below)
        before = len(reach)
        report = maintain_delete(store, topo, reach, result.targets)
        [(order, writes)] = swept
        assert sorted(order) == sorted(lr)
        assert report.removed_nodes
        assert before - len(reach) > len(lr)
        assert 0 < writes == counts["writes"] <= len(lr)
        assert_structures_match_recompute(store, topo, reach)


_dag = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=30,
).map(lambda pairs: sorted({(min(e), max(e)) for e in pairs}))


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
@settings(max_examples=80, deadline=None)
@given(
    dag=_dag,
    cut=st.lists(st.integers(0, 29), max_size=6),
    extra=st.lists(st.integers(0, 11), max_size=3),
)
def test_retain_below_matches_the_per_node_sweep(index_class, dag, cut, extra):
    """Δ(M,L)delete's bulk sweep against one ``retain_ancestors`` per
    node of ``LR`` (``tests/uncompiled.py``) on a random DAG store: cut
    some edges, delete below their heads and a few other targets, and
    get the same rows, |M| and condemned order."""
    outcomes = []
    for sweep in (index_class.retain_below, uncompiled.retain_below):
        store, topo = dag_store(12, dag)
        reach = index_class()
        reach.recompute(store, topo)
        removed_edges = sorted({dag[i] for i in cut if i < len(dag)})
        for parent, child in removed_edges:
            store.remove_edge(parent, child)
        targets = sorted({c for _, c in removed_edges} | set(extra))
        lr = set(targets) | store.descendants_of(targets)
        condemned = sweep(reach, store, reversed(topo.sort_nodes(lr)))
        outcomes.append((condemned, dict(reach._anc), len(reach)))
    assert outcomes[0] == outcomes[1], (dag, cut, extra)


def _recording_service(atg, db, index_class):
    """A service on ``index_class`` whose updater records, after every
    repair pass, whether ``M`` equals the reference closure of the
    store (``updater.repairs``)."""
    service = open_view(
        atg, db, config=ViewConfig(side_effects="propagate", strict=False)
    )
    updater = substitute_index(service.updater, index_class)
    updater.repairs = []
    repair = updater.repair

    def recorded(inserts, delete_targets):
        gc = repair(inserts, delete_targets)
        updater.repairs.append(
            updater.reach.equals(reference_index(updater.store, updater.topo))
        )
        return gc

    updater.repair = recorded
    return service


def _recording_updater(atg, db, index_class):
    return _recording_service(atg, db, index_class).updater


def _assert_exact(updater):
    assert updater.reach.equals(reference_index(updater.store, updater.topo))
    assert all(updater.repairs), updater.repairs


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
@pytest.mark.parametrize(
    "op",
    [
        # Four targets, one new subtree.
        InsertOp("//prereq", "course", ("CS940", "Everywhere")),
        # Two targets, one shared subtree: CS650 reaches it already,
        # CS500 does not.
        InsertOp(
            "//course[cno=CS500 or cno=CS650]/prereq",
            "course", ("CS240", "Data Structures"),
        ),
        # The delete pass drops the cut edge's pairs before the insert
        # repair reads any row.
        ReplaceOp(
            "course[cno=CS650]/prereq/course[cno=CS320]",
            "course", ("CS240", "Data Structures"),
        ),
        ReplaceOp(
            "course[cno=CS650]/prereq/course[cno=CS320]",
            "course", ("CS500", "Operating Systems"),
        ),
    ],
    ids=["multi-target-new", "multi-target-shared", "replace-by-descendant",
         "replace-by-stranger"],
)
def test_multi_target_and_replace_repairs_are_exact(index_class, op):
    updater = _recording_updater(*build_registrar(), index_class)
    outcome = updater.apply_op(op)
    assert outcome.accepted
    if op.kind == "insert":
        assert len(outcome.targets) > 1
    _assert_exact(updater)
    assert updater.check_consistency() == []


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
@pytest.mark.parametrize("attach_under", ["CS500", "CS650"])
def test_batch_insert_then_delete_ancestor_of_shared_region(
    index_class, attach_under
):
    # Attach the shared CS240 region (under CS500 its pairs are missing;
    # under CS650 they are there through CS320), then cut CS320 — an
    # ancestor of the region — from CS650, in one batch.
    service = _recording_service(*build_registrar(), index_class)
    updater = service.updater
    before = set(updater.reach.pairs())
    with service.batch() as batch:
        assert batch.apply(InsertOp(
            f"course[cno={attach_under}]/prereq",
            "course", ("CS240", "Data Structures"),
        )).accepted
        assert batch.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        ).accepted
    assert before - set(updater.reach.pairs())  # the delete pass removed pairs
    _assert_exact(updater)
    assert updater.check_consistency() == []
    cs650 = updater.store.lookup("course", ("CS650", "Advanced Databases"))
    cs240 = updater.store.lookup("course", ("CS240", "Data Structures"))
    assert updater.reach.is_ancestor(cs650, cs240) == (attach_under == "CS650")


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
@pytest.mark.parametrize(
    "cut", ["course[cno=CS500]/prereq/course[cno={}]", "course[cno=CS500]"],
    ids=["the-inserted-edge", "its-target"],
)
@pytest.mark.parametrize(
    "sem", [("CS240", "Data Structures"), ("CS960", "Fresh")],
    ids=["shared", "new"],
)
def test_batch_insert_whose_edge_the_batch_removes(index_class, cut, sem):
    # Attach a course under CS500, then cut that very edge, or collect
    # CS500 with its prereq (the insert's target), in the same batch.
    # The shared CS240 survives at the root, and its row must not gain
    # CS500's side through an edge the store no longer holds; the new
    # CS960's nodes are collected before any ΔM would read them.
    service = _recording_service(*build_registrar(), index_class)
    updater = service.updater
    (prereq,) = service.xpath("course[cno=CS500]/prereq").targets
    with service.batch() as batch:
        assert batch.apply(
            InsertOp("course[cno=CS500]/prereq", "course", sem)
        ).accepted
        assert batch.apply(DeleteOp(cut.format(sem[0]))).accepted
    _assert_exact(updater)
    assert updater.check_consistency() == []
    course = updater.store.lookup("course", sem)
    assert (course is None) == (sem[0] == "CS960")
    assert course is None or prereq not in updater.reach.anc(course)


class _Stream:
    """Resolves drawn op shapes against the live view of a synthetic
    updater: sharing inserts, new-key inserts, deletes (which collect
    what they disconnect) and re-inserts of collected keys (new nodes
    over the shared region their children still sit in)."""

    def __init__(self, updater):
        self.updater = updater
        self.sems: dict[int, tuple] = {}  # every cnode ever published
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
            sem = (key, f"w{key}")
        else:
            pool = live if kind == "share" else sorted(set(self.sems) - set(live))
            if not pool:
                return None
            sem = self.sems[pool[b % len(pool)]]
        return InsertOp(f"//cnode[key={parent}]/sub", "cnode", sem)


_draw = st.tuples(
    st.sampled_from(("share", "new", "delete", "reinsert")),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
@settings(max_examples=40, deadline=None)
@given(groups=st.lists(st.lists(_draw, min_size=1, max_size=4), max_size=6))
def test_insert_repairs_exact_on_generated_streams(index_class, groups):
    """After every op (a group of one) or batch (a longer group), every
    repair pass leaves ``M`` equal to the reference closure of the
    store."""
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
    service = _recording_service(dataset.atg, dataset.db, index_class)
    updater = service.updater
    stream = _Stream(updater)
    for group in groups:
        with service.batch() as batch:
            for draw in group:
                op = stream.op(*draw)
                if op is not None:
                    batch.apply(op)
        _assert_exact(updater)
    assert updater.check_consistency() == []
