"""Unit tests for ATG validation and schema-directed publishing."""

import pytest

import uncompiled
from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.atg.publisher import (
    publish_store,
    publish_subtree,
    publish_tree,
    unfold_to_tree,
)
from repro.core.dag_eval import DagXPathEvaluator
from repro.core.topo import TopoOrder
from repro.dtd.parser import parse_dtd
from repro.errors import ATGError, CycleError
from repro.index import build_index
from repro.relational.conditions import Col
from repro.relational.query import SPJQuery
from repro.workloads.registrar import build_registrar
from repro.xmltree.tree import tree_equal, tree_size


class TestATGValidation:
    def test_registrar_atg_valid(self):
        atg, _ = build_registrar()
        assert atg.root == "db"
        assert len(atg.query_rules()) == 3

    def test_missing_rule_rejected(self):
        dtd = parse_dtd("<!ELEMENT a (b*)>")
        with pytest.raises(ATGError):
            ATG(dtd, {"a": (), "b": ("x",)}, [])

    def test_missing_signature_rejected(self):
        dtd = parse_dtd("<!ELEMENT a (b*)>")
        query = SPJQuery("q", [("t", "t")], [("x", Col("t", "x"))])
        with pytest.raises(ATGError):
            ATG(dtd, {"a": ()}, [QueryRule("a", "b", query)])

    def test_star_child_needs_query_rule(self):
        dtd = parse_dtd("<!ELEMENT a (b*)>")
        with pytest.raises(ATGError):
            ATG(
                dtd,
                {"a": ("x",), "b": ("x",)},
                [ProjectionRule("a", "b", ("x",))],
            )

    def test_sequence_child_needs_projection_rule(self):
        dtd = parse_dtd("<!ELEMENT a (b)>")
        query = SPJQuery("q", [("t", "t")], [("x", Col("t", "x"))])
        with pytest.raises(ATGError):
            ATG(
                dtd,
                {"a": ("x",), "b": ("x",)},
                [QueryRule("a", "b", query)],
            )

    def test_projection_arity_mismatch_rejected(self):
        dtd = parse_dtd("<!ELEMENT a (b)>")
        with pytest.raises(ATGError):
            ATG(
                dtd,
                {"a": ("x",), "b": ("x", "y")},
                [ProjectionRule("a", "b", ("x",))],
            )

    def test_duplicate_rule_rejected(self):
        dtd = parse_dtd("<!ELEMENT a (b)>")
        with pytest.raises(ATGError):
            ATG(
                dtd,
                {"a": ("x",), "b": ("x",)},
                [
                    ProjectionRule("a", "b", ("x",)),
                    ProjectionRule("a", "b", ("x",)),
                ],
            )

    def test_rule_for_unknown_edge_rejected(self):
        dtd = parse_dtd("<!ELEMENT a (b)>")
        with pytest.raises(ATGError):
            ATG(
                dtd,
                {"a": ("x",), "b": ("x",)},
                [
                    ProjectionRule("a", "b", ("x",)),
                    ProjectionRule("b", "a", ("x",)),
                ],
            )


class TestPublishStore:
    def test_registrar_counts(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        cnos = {
            store.sem_of(n)[0]
            for n in store.nodes()
            if store.type_of(n) == "course"
        }
        assert cnos == {"CS650", "CS500", "CS320", "CS240"}  # no MA100

    def test_shared_subtree_stored_once(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        # Student S02 enrolled in two courses: one node, two parents.
        node = store.lookup("student", ("S02", "Grace"))
        assert node is not None
        assert store.in_degree(node) == 2

    def test_course_appears_at_root_and_under_prereq(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        cs320 = store.lookup("course", ("CS320", "Databases"))
        parents = {store.type_of(p) for p in store.parents_of(cs320)}
        assert parents == {"db", "prereq"}

    def test_children_in_production_order(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        cs650 = store.lookup("course", ("CS650", "Advanced Databases"))
        child_types = [store.type_of(c) for c in store.children_of(cs650)]
        assert child_types == ["cno", "title", "prereq", "takenBy"]

    def test_deterministic(self):
        atg1, db1 = build_registrar()
        atg2, db2 = build_registrar()
        s1 = publish_store(atg1, db1)
        s2 = publish_store(atg2, db2)
        assert {
            (s1.type_of(n), s1.sem_of(n)) for n in s1.nodes()
        } == {(s2.type_of(n), s2.sem_of(n)) for n in s2.nodes()}

    def test_empty_database(self):
        atg, db = build_registrar(populate=False)
        store = publish_store(atg, db)
        assert store.num_nodes == 1  # just the root
        assert store.num_edges == 0


class TestPublishTree:
    def test_tree_matches_unfolded_store(self):
        atg, db = build_registrar()
        tree = publish_tree(atg, db)
        unfolded = unfold_to_tree(publish_store(atg, db))
        assert tree_equal(tree, unfolded)

    def test_tree_larger_than_dag(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        tree = publish_tree(atg, db)
        assert tree_size(tree) > store.num_nodes

    def test_cycle_detected(self):
        atg, db = build_registrar()
        db.insert("prereq", ("CS240", "CS650"))  # CS650 -> CS320 -> CS240 -> CS650
        with pytest.raises(CycleError):
            publish_tree(atg, db)

    def test_max_nodes_budget(self):
        atg, db = build_registrar()
        with pytest.raises(ATGError):
            publish_tree(atg, db, max_nodes=3)

    def test_pcdata_leaves_have_text(self):
        atg, db = build_registrar()
        tree = publish_tree(atg, db)
        course = tree.children[0]
        assert course.children[0].tag == "cno"
        assert course.children[0].text == course.sem[0]


class TestPublishSubtree:
    def test_existing_subtree_reused(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        result = publish_subtree(
            atg, db, store, "course", ("CS240", "Data Structures")
        )
        assert result.root == store.lookup(
            "course", ("CS240", "Data Structures")
        )
        assert result.new_nodes == []
        assert result.edges == []
        assert result.frontier == [result.root]

    def test_existing_subtree_is_not_walked(self, monkeypatch):
        # CS240's stored subtree has more than one node, and reusing it
        # reads none of its edges.
        atg, db = build_registrar()
        store = publish_store(atg, db)
        cs240 = store.lookup("course", ("CS240", "Data Structures"))
        assert len(store.descendants_of([cs240])) > 1
        calls = []
        for name in ("children_of", "parents_of", "descendants_of"):
            original = getattr(store, name)
            monkeypatch.setattr(
                store, name,
                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a),
            )
        result = publish_subtree(
            atg, db, store, "course", ("CS240", "Data Structures")
        )
        assert result.root == cs240 and calls == []

    def test_new_subtree_interned_without_edges(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        before = store.num_edges
        result = publish_subtree(atg, db, store, "course", ("CS999", "New"))
        assert store.num_edges == before  # no edges added to the store
        assert len(result.new_nodes) >= 1
        assert store.lookup("course", ("CS999", "New")) == result.root

    def test_new_subtree_shares_existing_children(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        # CS999 has CS240 as prereq: subtree reuses CS240's existing node.
        db.insert("prereq", ("CS999", "CS240"))
        result = publish_subtree(atg, db, store, "course", ("CS999", "New"))
        cs240 = store.lookup("course", ("CS240", "Data Structures"))
        assert any(child == cs240 for *_, child in result.edges)
        assert cs240 not in result.new_nodes

    def test_rollback_removes_new_nodes(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        before = store.num_nodes
        result = publish_subtree(atg, db, store, "course", ("CS999", "New"))
        assert store.num_nodes > before
        result.rollback(store)
        assert store.num_nodes == before
        assert store.lookup("course", ("CS999", "New")) is None

    def test_frontier_closure_covers_the_shared_region(self):
        # ST(CS999) is new and shares CS240: every node of CS240's
        # stored subtree is inside it, reached through the frontier, and
        # the cycle check's closure sees exactly the old walk's nodes,
        # from M at rest and from the store walk while M is stale.
        atg, db = build_registrar()
        store = publish_store(atg, db)
        topo = TopoOrder.from_store(store)
        reach = build_index(store, topo)
        db.insert("prereq", ("CS999", "CS240"))
        result = publish_subtree(atg, db, store, "course", ("CS999", "New"))
        cs240 = store.lookup("course", ("CS240", "Data Structures"))
        assert result.frontier == [cs240]
        walked, _ = uncompiled.subtree_nodes_from(store, result)
        new = set(result.new_nodes)
        for at_rest in (reach, None):
            inside = DagXPathEvaluator(store, topo, at_rest).closure(
                result.frontier
            )
            for node in store.nodes():
                assert (node in new or node in inside) == (node in walked)
            stack = [cs240]
            while stack:
                node = stack.pop()
                assert node in inside
                stack.extend(store.children_of(node))


class TestPublishOverAnUnindexedDatabase:
    """Nobody prepares a database for publishing: ``publish_store(atg,
    db)`` alone is how ``check_consistency`` and most tests
    get a view, and opening an updater must not depend on whether
    publishing or the registry comes first."""

    def test_table_passes_are_bounded_by_probed_columns(self, monkeypatch):
        from repro.core.updater import XMLViewUpdater
        from repro.relational.database import Table
        from repro.workloads.synthetic import SyntheticConfig, build_synthetic

        passes = []
        rows = Table.rows
        monkeypatch.setattr(
            Table, "rows", lambda self: passes.append(self.schema.name) or rows(self)
        )
        dataset = build_synthetic(SyntheticConfig(n_c=300, seed=3))
        tables = [dataset.db.table(name) for name in dataset.db.table_names()]

        store = publish_store(dataset.atg, dataset.db)
        assert store.num_nodes > 200
        probed = sum(len(table._indexes) for table in tables)
        columns = sum(len(table.schema.attribute_names) for table in tables)
        assert 0 < len(passes) <= probed <= columns

        del passes[:]
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        assert updater.check_consistency() == []
        # Two more publishes found every index they needed already built.
        assert len(passes) <= sum(len(t._indexes) for t in tables) - probed
