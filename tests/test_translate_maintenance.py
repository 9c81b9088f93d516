"""Tests for Xinsert/Xdelete and the Δ(M,L) maintenance algorithms."""

from collections import Counter
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_seam import INDEX_CLASSES, reference_index, substitute_index
from repro.atg.publisher import publish_store, publish_subtree
from repro.baselines.recompute import recompute_structures
from repro.core.dag_eval import DagXPathEvaluator
from repro.core.maintenance import maintain_delete, maintain_insert
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.translate import xdelete, xinsert
from repro.ops import DeleteOp, InsertOp, ReplaceOp
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
        report = maintain_insert(store, topo, reach, subtree, result.targets)
        assert report.placed_nodes == len(subtree.new_nodes)
        assert report.added_pairs > 0


class TestMaintainDelete:
    def _do_delete(self, env, path_text):
        atg, db, store, topo, reach, evaluator = env
        result = evaluator.evaluate(parse_xpath(path_text), mode="delete")
        delta = xdelete(store, result)
        store.apply(delta)
        report = maintain_delete(store, topo, reach, result)
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
        report = maintain_delete(store, topo, reach, result)
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
        maintain_delete(store, topo, reach, result)
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
        maintain_delete(store, topo, reach, result)
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
    """Route every row access of ``reach`` through counters (both index
    classes keep ``M`` as an ancestor and a descendant row dict)."""
    counts = Counter()
    reach._anc = _CountingRows(reach._anc, counts)
    reach._desc = _CountingRows(reach._desc, counts)
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
        assert subtree.new_nodes == [] and subtree.node_count > 5
        before = sorted(reach.pairs())
        counts = _count_row_access(reach)
        report = maintain_insert(store, topo, reach, subtree, targets)
        assert report.added_pairs == 0
        assert counts["writes"] == 0
        # One row per target and the root's two (ΔM reads its ancestors,
        # the L repair its descendants), however large ST is.
        assert counts["reads"] == len(targets) + 2
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
        report = maintain_insert(store, topo, reach, subtree, targets)
        assert report.added_pairs == len(reach) - before > 0
        assert reach.equals(reference_index(store, topo))
        cs500 = store.lookup("course", ("CS500", "Operating Systems"))
        cs240 = store.lookup("course", ("CS240", "Data Structures"))
        assert reach.is_ancestor(cs500, cs240)
        assert_structures_match_recompute(store, topo, reach)


class _RecordingUpdater(XMLViewUpdater):
    """Records every repair pass: (growth of |M|, pairs the insert
    repairs report, pairs the delete pass reports)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.repairs: list[tuple[int, int, int]] = []

    def repair(self, inserts, delete_targets, placed=False):
        before = len(self.reach)
        added, gc = super().repair(inserts, delete_targets, placed)
        removed = gc.removed_pairs if gc is not None else 0
        self.repairs.append((len(self.reach) - before, added, removed))
        return added, gc


def _recording_updater(atg, db, index_class):
    updater = _RecordingUpdater(
        atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE, strict=False
    )
    return substitute_index(updater, index_class)


def _assert_exact(updater):
    assert updater.reach.equals(reference_index(updater.store, updater.topo))
    for growth, added, removed in updater.repairs:
        assert growth == added - removed, updater.repairs


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
        # The insert repair runs while M still holds the deleted edge's
        # pairs; the closing delete pass settles them.
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
    # ancestor of the region — from CS650, then flush.
    updater = _recording_updater(*build_registrar(), index_class)
    with updater.batch() as session:
        assert updater.apply_op(InsertOp(
            f"course[cno={attach_under}]/prereq",
            "course", ("CS240", "Data Structures"),
        )).accepted
        assert updater.apply_op(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        ).accepted
    assert session.report.removed_pairs > 0
    _assert_exact(updater)
    assert updater.check_consistency() == []
    cs650 = updater.store.lookup("course", ("CS650", "Advanced Databases"))
    cs240 = updater.store.lookup("course", ("CS240", "Data Structures"))
    assert updater.reach.is_ancestor(cs650, cs240) == (attach_under == "CS650")


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
    """After every op (a group of one) or batch flush (a longer group),
    ``M`` equals the reference closure of the store, and every repair
    pass's pair counts add up to the growth of |M|."""
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
    updater = _recording_updater(dataset.atg, dataset.db, index_class)
    stream = _Stream(updater)
    for group in groups:
        if len(group) == 1:
            op = stream.op(*group[0])
            if op is not None:
                updater.apply_op(op)
        else:
            with updater.batch():
                for draw in group:
                    op = stream.op(*draw)
                    if op is not None:
                        updater.apply_op(op)
        _assert_exact(updater)
    assert updater.check_consistency() == []
