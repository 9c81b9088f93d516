"""Tests for the two-pass DAG XPath evaluator.

The tree evaluator is the oracle: for any path, the identities
``(type, $A)`` selected on the DAG must equal those selected on the
unfolded tree.
"""

import pytest

from repro.atg.publisher import publish_store, unfold_to_tree
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree


@pytest.fixture
def env():
    atg, db = build_registrar()
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    return store, DagXPathEvaluator(store, topo, reach)


def dag_identities(store, result):
    return sorted(
        (store.type_of(n), store.sem_of(n)) for n in result.targets
    )


def tree_identities(tree, path):
    return sorted({n.identity for n in evaluate_on_tree(path, tree)})


REGISTRAR_PATHS = [
    "course",
    "course[cno=CS650]",
    "course/prereq/course",
    "course[cno=CS650]/prereq/course[cno=CS320]",
    "//course",
    "//course[cno=CS320]",
    "//student",
    "//student[ssn=S02]",
    "//course[cno=CS320]//student[ssn=S02]",
    "course[cno=CS650]//course[cno=CS320]/prereq",
    "course[prereq/course]",
    "course[not(prereq/course)]",
    "course[prereq/course and takenBy/student]",
    "course[cno=CS650 or cno=CS240]",
    "*",
    "*/*",
    "//*[label()=takenBy]",
    "course/takenBy/student[name=Grace]",
    "//takenBy[student/ssn=S02]",
    "course[//ssn=S03]",
    ".",
    "//prereq[course]",
    "course[takenBy/student[name=Ada]]",
]


class TestAgainstTreeOracle:
    @pytest.mark.parametrize("text", REGISTRAR_PATHS)
    def test_registrar_paths(self, env, text):
        store, evaluator = env
        path = parse_xpath(text)
        dag = dag_identities(store, evaluator.evaluate(path))
        tree = tree_identities(unfold_to_tree(store), path)
        assert dag == tree, f"mismatch for {text}"

    @pytest.mark.parametrize(
        "text",
        [
            "cnode",
            "//cnode",
            "cnode/sub/cnode",
            "//sub/cnode",
            "cnode[sub/cnode]",
            "//cnode[key=31]",
            "//cnode[key=31]//cnode",
            "cnode[sub/cnode and val=v1]",
            "//cnode[not(sub/cnode)]",
        ],
    )
    def test_synthetic_paths(self, text):
        dataset = build_synthetic(SyntheticConfig(n_c=60, seed=4))
        store = publish_store(dataset.atg, dataset.db)
        topo = TopoOrder.from_store(store)
        reach = build_index(store, topo)
        evaluator = DagXPathEvaluator(store, topo, reach)
        path = parse_xpath(text)
        dag = dag_identities(store, evaluator.evaluate(path))
        tree = tree_identities(unfold_to_tree(store), path)
        assert dag == tree, f"mismatch for {text}"


class TestEp:
    def test_ep_single_parent(self, env):
        store, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq/course")
        )
        assert len(result.ep) == 1
        parent, child, _ = result.ep[0]
        assert store.type_of(parent) == "prereq"
        assert store.sem_of(parent) == ("CS650",)

    def test_ep_example4(self, env):
        """Paper Example 4: p reaches S02 through takenBy(CS320) only."""
        store, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("//course[cno=CS320]//student[ssn=S02]")
        )
        parents = {
            (store.type_of(u), store.sem_of(u)) for u, _, _ in result.ep
        }
        assert parents == {("takenBy", ("CS320",))}

    def test_ep_example5_multiple_parents(self, env):
        """Paper Example 5: //student[ssn=S02] has two parent edges."""
        store, evaluator = env
        result = evaluator.evaluate(parse_xpath("//student[ssn=S02]"))
        parents = {
            (store.type_of(u), store.sem_of(u)) for u, _, _ in result.ep
        }
        assert parents == {("takenBy", ("CS320",)), ("takenBy", ("CS500",))}

    def test_ep_empty_for_root(self, env):
        _, evaluator = env
        result = evaluator.evaluate(parse_xpath("."))
        assert result.ep == []

    def test_ep_dedup_matches_delta(self, env):
        store, evaluator = env
        result = evaluator.evaluate(parse_xpath("//course"))
        edges = result.ep_edges()
        assert len(edges) == len(set(edges))


class TestSideEffects:
    def test_insert_side_effect_example1(self, env):
        """CS320 occurs below CS650 AND at the root: insertion into
        course[cno=CS650]//course[cno=CS320]/prereq has side effects."""
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]//course[cno=CS320]/prereq"),
            mode="insert",
        )
        assert result.has_side_effects

    def test_insert_no_side_effect_unshared(self, env):
        """CS650 occurs only at the root: no side effects."""
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq"), mode="insert"
        )
        assert not result.has_side_effects

    def test_insert_side_effect_shared_student(self, env):
        """S02 is shared by two takenBy parents; selecting it under only
        one of them is a side effect for insertions."""
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS320]/takenBy/student[ssn=S02]"),
            mode="insert",
        )
        assert result.has_side_effects

    def test_insert_descendant_covers_occurrences(self, env):
        """Leading // matches every occurrence: no side effects."""
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("//student[ssn=S02]"), mode="insert"
        )
        assert not result.has_side_effects

    def test_delete_no_side_effect(self, env):
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS650]/prereq/course[cno=CS320]"),
            mode="delete",
        )
        assert not result.has_side_effects

    def test_delete_side_effect_shared_parent(self, env):
        """CS320 occurs at the root and under CS650; deleting its prereq
        child via the root occurrence only is a side effect."""
        store, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=CS320]/prereq/course[cno=CS240]"),
            mode="delete",
        )
        assert result.has_side_effects
        witnesses = {
            (store.type_of(s), store.sem_of(s))
            for s in result.side_effects
        }
        assert ("prereq", ("CS650",)) in witnesses

    def test_delete_descendant_no_side_effect(self, env):
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("//course[cno=CS320]/prereq/course[cno=CS240]"),
            mode="delete",
        )
        assert not result.has_side_effects

    def test_no_targets_no_side_effects(self, env):
        _, evaluator = env
        result = evaluator.evaluate(
            parse_xpath("course[cno=NOPE]"), mode="insert"
        )
        assert result.targets == []
        assert not result.has_side_effects


class TestContexts:
    def test_contexts_recorded(self, env):
        _, evaluator = env
        result = evaluator.evaluate(parse_xpath("course/prereq"))
        # C0 (root), C1 (courses), C2 (prereqs)
        assert len(result.contexts) == 3
        assert len(result.contexts[1]) == 4

    def test_early_exit_on_empty_context(self, env):
        _, evaluator = env
        result = evaluator.evaluate(parse_xpath("zzz/prereq"))
        assert result.targets == []
