"""Tests for Xinsert/Xdelete and the Δ(M,L) maintenance algorithms."""

import pytest

from repro.atg.publisher import publish_store, publish_subtree
from repro.baselines.recompute import recompute_structures
from repro.core.dag_eval import DagXPathEvaluator
from repro.core.maintenance import maintain_delete, maintain_insert
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.translate import xdelete, xinsert
from repro.workloads.registrar import build_registrar
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
