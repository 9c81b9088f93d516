"""Edge-case tests for the DAG evaluator and update pipeline."""

import pytest

from repro.atg.publisher import publish_store, unfold_to_tree
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.workloads.registrar import build_registrar
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree
from repro.ops import DeleteOp, InsertOp


@pytest.fixture
def env():
    atg, db = build_registrar()
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    return store, DagXPathEvaluator(store, topo, reach)


def both(env, text):
    store, evaluator = env
    path = parse_xpath(text)
    dag = sorted(
        (store.type_of(t), store.sem_of(t))
        for t in evaluator.evaluate(path).targets
    )
    tree = sorted(
        {n.identity for n in evaluate_on_tree(path, unfold_to_tree(store))}
    )
    return dag, tree


class TestFilterShapes:
    @pytest.mark.parametrize(
        "text",
        [
            # self value filter on a leaf
            'course/cno[.="CS650"]',
            # nested filter inside a filter path
            "course[prereq/course[cno=CS240]]",
            # negation of a nested exists
            "course[not(prereq/course[cno=CS240])]",
            # disjunction mixing label test and value
            "*[label()=course or label()=student]",
            # descendant inside a filter
            "course[.//ssn=S02]",
            # conjunction of three filters via fused brackets
            "course[cno=CS320][prereq/course][takenBy/student]",
            # wildcard with value filter below
            "*/*[label()=prereq]",
            # filter on the descendant step result
            "//*[label()=course and takenBy/student/ssn=S01]",
            # value filter comparing a non-leaf (never matches)
            "course[prereq=CS240]",
            # deep chain
            "course/prereq/course/prereq/course",
            # // at the very end
            "course[cno=CS650]//",
        ],
    )
    def test_matches_tree_oracle(self, env, text):
        dag, tree = both(env, text)
        assert dag == tree, text

    def test_trailing_descendant_selects_descendants(self, env):
        store, evaluator = env
        result = evaluator.evaluate(parse_xpath("course[cno=CS240]//"))
        types = {store.type_of(t) for t in result.targets}
        assert "course" in types and "cno" in types

    def test_ep_for_trailing_descendant(self, env):
        store, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]//"), mode="delete"
        )
        # Every Ep parent must be inside the matched region.
        for u, v, _ in result.ep:
            assert store.has_edge(u, v)

    def test_filter_only_path_selects_root(self, env):
        store, evaluator = env
        result = evaluator.evaluate(parse_xpath(".[db]"))
        # root has no child named 'db' -> filter fails -> empty
        assert result.targets == []

    def test_repeated_evaluation_consistent(self, env):
        _, evaluator = env
        a = evaluator.evaluate(parse_xpath("//course")).targets
        b = evaluator.evaluate(parse_xpath("//course")).targets
        assert a == b


class TestMultiTargetInsert:
    def test_insert_under_two_parents_one_subtree(self):
        """One XML insert, two prereq parents -> two H-ish base rows."""
        atg, db = build_registrar()
        updater = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        # CS650 and CS320 both get CS500 as a prerequisite.
        out = updater.apply_op(InsertOp(
            "course[cno=CS650 or cno=CS320]/prereq",
            "course",
            ("CS500", "Operating Systems"),
        ))
        assert out.accepted
        rows = sorted(op.row for op in out.delta_r)
        assert rows == [("CS320", "CS500"), ("CS650", "CS500")]
        assert updater.check_consistency() == []

    def test_group_insert_with_new_course_two_parents(self):
        atg, db = build_registrar()
        updater = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        out = updater.apply_op(InsertOp(
            "course[cno=CS650 or cno=CS500]/prereq", "course", ("CS909", "X")
        ))
        assert out.accepted
        relations = sorted(op.relation for op in out.delta_r)
        assert relations == ["course", "prereq", "prereq"]
        assert updater.check_consistency() == []


class TestVerifyEachUpdate:
    def test_verification_passes_on_correct_updates(self):
        atg, db = build_registrar()
        updater = XMLViewUpdater(atg, db)
        out = updater.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        assert out.accepted
        assert updater.check_consistency() == []

    def test_verification_catches_corruption(self):
        atg, db = build_registrar()
        updater = XMLViewUpdater(atg, db)
        # Corrupt the base data behind the updater's back.
        db.insert("course", ("CS999", "Phantom", "CS"))
        updater.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        problems = updater.check_consistency()
        assert problems[0].startswith("node sets differ: missing=")
        assert "('course', ('CS999', 'Phantom'))" in problems[0]
