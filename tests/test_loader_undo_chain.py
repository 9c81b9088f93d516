"""Tests for store persistence round-trip, undo, and deep chains."""

import sys

import pytest

from repro.atg.publisher import publish_store, unfold_to_tree
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import ReproError, UpdateRejectedError
from repro.relational.sqlite_backend import dump_to_sqlite, load_from_sqlite
from repro.views.loader import store_from_database
from repro.workloads.chains import build_chain
from repro.workloads.registrar import build_registrar
from repro.xmltree.tree import tree_equal
from repro.ops import DeleteOp, InsertOp


class TestStoreRoundtrip:
    def test_memory_roundtrip(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        reloaded = store_from_database(atg, store.to_database())
        assert reloaded.num_nodes == store.num_nodes
        assert reloaded.num_edges == store.num_edges
        assert tree_equal(unfold_to_tree(store), unfold_to_tree(reloaded))

    def test_child_order_preserved(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        view_db = store.to_database()
        reloaded = store_from_database(atg, view_db)
        for node in store.nodes():
            mine = [store.sem_of(c) for c in store.children_of(node)]
            other = reloaded.lookup(store.type_of(node), store.sem_of(node))
            theirs = [
                reloaded.sem_of(c) for c in reloaded.children_of(other)
            ]
            assert mine == theirs

    def test_sqlite_roundtrip(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        view_db = store.to_database()
        conn = dump_to_sqlite(view_db)
        schemas = [view_db.schema(n) for n in view_db.table_names()]
        back = load_from_sqlite(conn, schemas)
        reloaded = store_from_database(atg, back)
        assert tree_equal(unfold_to_tree(store), unfold_to_tree(reloaded))

    def test_missing_table_rejected(self):
        atg, db = build_registrar()
        store = publish_store(atg, db)
        view_db = store.to_database()
        from repro.relational.database import Database

        partial = Database()
        for name in view_db.table_names():
            if name == "gen_course":
                continue
            partial.create_table(view_db.schema(name))
            for row in view_db.rows(name):
                partial.insert(name, row)
        with pytest.raises(ReproError):
            store_from_database(atg, partial)

    def test_reloaded_store_is_updatable(self):
        """A reloaded store backs a working updater."""
        atg, db = build_registrar()
        original = XMLViewUpdater(atg, db)
        reloaded_store = store_from_database(
            atg, original.store.to_database()
        )
        updater = XMLViewUpdater(atg, db)
        updater.store = reloaded_store
        updater.rebuild_structures_only()
        out = updater.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        assert out.accepted
        assert updater.check_consistency() == []


class TestUndo:
    def test_undo_delete(self, registrar_updater):
        u = registrar_updater
        before = u.xml_tree()
        out = u.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        u.undo(out)
        assert tree_equal(u.xml_tree(), before)
        assert u.check_consistency() == []

    def test_undo_insert(self, registrar_updater):
        u = registrar_updater
        before = u.xml_tree()
        out = u.apply_op(InsertOp(
            "course[cno=CS650]/prereq", "course", ("CS500", "Operating Systems")
        ))
        u.undo(out)
        assert tree_equal(u.xml_tree(), before)
        assert u.check_consistency() == []

    def test_undo_resurrects_collected_subtree(self, registrar_updater):
        u = registrar_updater
        before = u.xml_tree()
        out = u.apply_op(DeleteOp("//student[ssn=S03]"))  # GC removes the subtree
        assert u.store.lookup("student", ("S03", "Edsger")) is None
        u.undo(out)
        assert u.store.lookup("student", ("S03", "Edsger")) is not None
        assert tree_equal(u.xml_tree(), before)
        assert u.check_consistency() == []

    def test_undo_new_course_insert(self, registrar_updater):
        u = registrar_updater
        before = u.xml_tree()
        out = u.apply_op(InsertOp("//course[cno=CS240]/prereq", "course", ("CS101", "Intro")))
        u.undo(out)
        assert u.db.table("course").get(("CS101",)) is None
        assert tree_equal(u.xml_tree(), before)
        assert u.check_consistency() == []

    def test_undo_rejected_update_refused(self, registrar_updater):
        from repro.core.updater import UpdateOutcome

        with pytest.raises(UpdateRejectedError):
            registrar_updater.undo(UpdateOutcome(kind="delete", accepted=False))


class TestDeepChains:
    def test_publish_deep_chain(self):
        atg, db = build_chain(depth=300)
        updater = XMLViewUpdater(atg, db)
        # one course per level, all linked
        assert updater.store.num_nodes == 1 + 300 * 5
        assert updater.check_consistency() == []

    def test_descendant_query_to_the_bottom(self):
        atg, db = build_chain(depth=300)
        updater = XMLViewUpdater(atg, db)
        result = updater.evaluate_xpath("//course[cno=K0299]")
        assert len(result.targets) == 1

    def test_filter_propagates_up_the_chain(self):
        """A value filter satisfied only at the bottom must hold at the
        top via // — the descendant walk goes down the whole chain, with
        an explicit stack: 1,500 levels fit under a recursion limit of
        200."""
        for depth, limit in ((300, None), (1500, 200)):
            atg, db = build_chain(depth=depth)
            updater = XMLViewUpdater(atg, db)
            path = f"course[.//cno=K{depth - 1:04d}]"
            saved = sys.getrecursionlimit()
            sys.setrecursionlimit(limit or saved)
            try:
                result = updater.evaluate_xpath(path)
            finally:
                sys.setrecursionlimit(saved)
            assert len(result.targets) == 1  # the head K0000

    def test_m_is_quadratic_on_chains(self):
        atg, db = build_chain(depth=100)
        updater = XMLViewUpdater(atg, db)
        # ~5 nodes per level, each ancestor-related to everything below.
        assert len(updater.reach) > 100 * 100 / 2

    def test_update_deep_in_chain(self):
        atg, db = build_chain(depth=200, students=2)
        updater = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        out = updater.apply_op(DeleteOp("//course[cno=K0198]//student[ssn=T000]"))
        assert out.accepted
        assert updater.check_consistency() == []

    def test_branches(self):
        atg, db = build_chain(depth=60, branch_every=10)
        updater = XMLViewUpdater(atg, db)
        result = updater.evaluate_xpath("//course[not(prereq/course)]")
        # leaves: the chain end + every branch leaf
        assert len(result.targets) == 1 + 6
