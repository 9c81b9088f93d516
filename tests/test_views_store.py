"""Unit tests for the DAG view store (gen tables, edges, materialization)."""

import pytest

from repro.atg.publisher import publish_store
from repro.errors import ReproError
from repro.views.store import ViewDelta
from repro.workloads.registrar import build_registrar


@pytest.fixture
def store():
    atg, db = build_registrar()
    return publish_store(atg, db)


class TestIntern:
    def test_same_identity_same_id(self, store):
        id1, new1 = store.intern("course", ("CS650", "Advanced Databases"))
        assert not new1
        id2, new2 = store.intern("course", ("CS650", "Advanced Databases"))
        assert id1 == id2 and not new2

    def test_new_identity_new_id(self, store):
        node, is_new = store.intern("course", ("CSX", "X"))
        assert is_new
        assert store.type_of(node) == "course"
        assert store.sem_of(node) == ("CSX", "X")

    def test_lookup(self, store):
        assert store.lookup("course", ("NOPE", "x")) is None
        node, _ = store.intern("course", ("CSX", "X"))
        assert store.lookup("course", ("CSX", "X")) == node

    def test_ids_dense_and_unique(self, store):
        ids = list(store.nodes())
        assert len(ids) == len(set(ids))

    def test_value_of_pcdata(self, store):
        cno = store.lookup("cno", ("CS650",))
        assert store.value_of(cno) == "CS650"

    def test_value_of_non_pcdata_is_none(self, store):
        course = store.lookup("course", ("CS650", "Advanced Databases"))
        assert store.value_of(course) is None


class TestEdges:
    def test_add_edge_idempotent(self, store):
        parent = store.lookup("prereq", ("CS650",))
        child = store.lookup("course", ("CS320", "Databases"))
        assert store.has_edge(parent, child)
        assert store.add_edge(parent, child) is False  # already there
        assert store.children_of(parent).count(child) == 1

    def test_add_edge_type_checked(self, store):
        course = store.lookup("course", ("CS650", "Advanced Databases"))
        student = store.lookup("student", ("S01", "Ada"))
        with pytest.raises(ReproError):
            store.add_edge(course, student)  # no course->student DTD edge

    def test_remove_edge(self, store):
        parent = store.lookup("prereq", ("CS650",))
        child = store.lookup("course", ("CS320", "Databases"))
        assert store.remove_edge(parent, child)
        assert not store.has_edge(parent, child)
        assert store.remove_edge(parent, child) is False

    def test_rightmost_insert_position(self, store):
        root = store.root_id
        node, _ = store.intern("course", ("CSX", "X"))
        store.add_edge(root, node)
        assert store.children_of(root)[-1] == node

    def test_remove_node_requires_isolation(self, store):
        course = store.lookup("course", ("CS650", "Advanced Databases"))
        with pytest.raises(ReproError):
            store.remove_node(course)

    def test_degrees(self, store):
        s02 = store.lookup("student", ("S02", "Grace"))
        assert store.in_degree(s02) == 2

    def test_size_accounting(self, store):
        assert store.size == store.num_nodes + store.num_edges


class TestCollect:
    @staticmethod
    def _cut_student(store):
        """Cut S02 from its parents: it and its unshared leaves are a
        set closed under parents, as Δ(M,L)delete condemns them."""
        s02 = store.lookup("student", ("S02", "Grace"))
        for parent in list(store.parents_of(s02)):
            store.remove_edge(parent, s02)
        leaves = [c for c in store.children_of(s02) if store.parents_of(c) == {s02}]
        assert leaves
        return [s02, *leaves]

    def test_collect_equals_applying_its_delta_edge_by_edge(self, monkeypatch):
        atg, db = build_registrar()
        mine, theirs = publish_store(atg, db), publish_store(atg, db)
        nodes = self._cut_student(mine)
        assert self._cut_student(theirs) == nodes
        expected = [
            ("delete", theirs.type_of(n), theirs.type_of(c), n, c)
            for n in nodes for c in theirs.children_of(n)
        ]
        gc = ViewDelta()
        for op in expected:
            gc.delete(*op[1:])
        theirs.apply(gc)
        for node in nodes:
            theirs.remove_node(node)

        def refused(*args):
            raise AssertionError("collect re-applied an edge")

        monkeypatch.setattr(type(mine), "remove_edge", refused)
        delta = mine.collect(nodes)
        assert [
            (op.kind, op.parent_type, op.child_type, op.parent, op.child)
            for op in delta
        ] == expected
        assert not any(mine.has_node(n) for n in nodes)
        assert mine.digest() == theirs.digest()
        assert mine.export_state() == theirs.export_state()


class TestReachability:
    def test_reachable_from_root_is_everything_after_publish(self, store):
        assert store.reachable_from_root() == set(store.nodes())

    def test_sharing_rate(self, store):
        assert 0 < store.sharing_rate() < 1


class TestMaterialization:
    def test_to_database_tables(self, store):
        db = store.to_database()
        names = set(db.table_names())
        assert "gen_course" in names
        assert "edge_prereq_course" in names
        assert "edge_db_course" in names

    def test_gen_rows_match_store(self, store):
        db = store.to_database()
        gen_course = db.rows("gen_course")
        assert len(gen_course) == 4
        for row in gen_course:
            assert store.sem_of(row[0]) == row[1:]

    def test_edge_rows_have_positions(self, store):
        db = store.to_database()
        rows = db.rows("edge_db_course")
        positions = sorted(r[2] for r in rows)
        assert positions == [0, 1, 2, 3]

    def test_edge_counts_match(self, store):
        db = store.to_database()
        total = sum(
            len(db.rows(t)) for t in db.table_names() if t.startswith("edge_")
        )
        assert total == store.num_edges
