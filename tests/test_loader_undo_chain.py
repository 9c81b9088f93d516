"""Tests for the store's relational coding and snapshot reload, undo,
and deep chains."""

import sys

import pytest

from repro.atg.publisher import publish_store
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import ReproError, UpdateRejectedError
from repro.relational.sqlite_backend import dump_to_sqlite, load_from_sqlite
from repro.views.snapshot import Snapshot
from repro.workloads.chains import build_chain
from repro.workloads.registrar import build_registrar
from repro.xmltree.tree import tree_equal
from repro.ops import DeleteOp, InsertOp


class TestStoreRoundtrip:
    """A store is reloaded one way, from a snapshot
    (``Snapshot.restore_store``); ``ViewStore.to_database`` is the
    relational coding of §2.3 that SQL reads (``gen_A`` / ``edge_A_B``)."""

    def test_memory_roundtrip(self):
        """The coding's tables hold exactly the store's nodes and edges."""
        atg, db = build_registrar()
        store = publish_store(atg, db)
        view_db = store.to_database()
        gen = {
            (name[len("gen_"):], row[0], row[1:])
            for name in view_db.table_names() if name.startswith("gen_")
            for row in view_db.rows(name)
        }
        edges = {
            (parent, child)
            for name in view_db.table_names() if name.startswith("edge_")
            for parent, child, _ in view_db.rows(name)
        }
        assert gen == {(store.type_of(n), n, store.sem_of(n)) for n in store.nodes()}
        assert edges == {edge for pairs in store.edges.values() for edge in pairs}

    def test_child_order_preserved(self):
        """An edge row's position is its child's place among the
        parent's children (XML document order)."""
        atg, db = build_registrar()
        store = publish_store(atg, db)
        view_db = store.to_database()
        children: dict[int, list] = {}
        for name in view_db.table_names():
            if name.startswith("edge_"):
                for parent, child, position in view_db.rows(name):
                    children.setdefault(parent, []).append((position, child))
        for node in store.nodes():
            listed = [child for _, child in sorted(children.get(node, []))]
            assert listed == store.children_of(node)

    def test_sqlite_roundtrip(self):
        atg, db = build_registrar()
        view_db = publish_store(atg, db).to_database()
        conn = dump_to_sqlite(view_db)
        schemas = [view_db.schema(n) for n in view_db.table_names()]
        back = load_from_sqlite(conn, schemas)
        for name in view_db.table_names():
            assert sorted(back.rows(name)) == sorted(view_db.rows(name))

    def test_missing_table_rejected(self):
        """A snapshot whose store state lacks its node table restores
        nothing."""
        atg, db = build_registrar()
        snapshot = Snapshot.capture(publish_store(atg, db), 0, config={})
        del snapshot.store_state["nodes"]
        with pytest.raises(ReproError, match="malformed store state"):
            snapshot.restore_store(atg)

    def test_reloaded_store_is_updatable(self):
        """A restored store backs a working updater."""
        atg, db = build_registrar()
        original = XMLViewUpdater(atg, db)
        snapshot = Snapshot.from_bytes(
            Snapshot.capture(original.store, 0, config={}).to_bytes()
        )
        updater = XMLViewUpdater(atg, db, store=snapshot.restore_store(atg))
        assert updater.store.digest() == original.store.digest()
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
