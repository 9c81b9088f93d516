"""Tests for incremental base-update propagation into the view."""

import random

import pytest

from index_seam import StaleReadCheckingIndex, reference_index, substitute_index
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.relational.database import RelationalDelta
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


@pytest.fixture
def updater():
    atg, db = build_registrar()
    return XMLViewUpdater(atg, db)


class TestInsertPropagation:
    def test_new_prereq_edge(self, updater):
        delta = RelationalDelta()
        delta.insert("prereq", ("CS650", "CS500"))
        report = updater.apply_base_update(delta)
        assert len(report.edges_added) == 1
        assert updater.check_consistency() == []

    def test_new_course_at_root(self, updater):
        delta = RelationalDelta()
        delta.insert("course", ("CS777", "Compilers", "CS"))
        report = updater.apply_base_update(delta)
        assert updater.store.lookup("course", ("CS777", "Compilers")) is not None
        assert report.nodes_created >= 5  # course + cno/title/prereq/takenBy
        assert updater.check_consistency() == []

    def test_non_cs_course_not_published(self, updater):
        delta = RelationalDelta()
        delta.insert("course", ("PH101", "Physics", "PHYS"))
        report = updater.apply_base_update(delta)
        assert updater.store.lookup("course", ("PH101", "Physics")) is None
        assert updater.check_consistency() == []

    def test_cascading_gains(self, updater):
        """A new course plus its prereq edge arrive in one batch: the
        edge's parent (the new course's prereq node) only exists after
        the course is attached — the fixpoint loop must catch it."""
        delta = RelationalDelta()
        delta.insert("course", ("CS777", "Compilers", "CS"))
        delta.insert("prereq", ("CS777", "CS240"))
        updater.apply_base_update(delta)
        course = updater.store.lookup("course", ("CS777", "Compilers"))
        prereq = updater.store.lookup("prereq", ("CS777",))
        cs240 = updater.store.lookup("course", ("CS240", "Data Structures"))
        assert updater.store.has_edge(prereq, cs240)
        assert updater.check_consistency() == []

    def test_new_enrollment_shares_student(self, updater):
        delta = RelationalDelta()
        delta.insert("enroll", ("S02", "CS650"))
        updater.apply_base_update(delta)
        s02 = updater.store.lookup("student", ("S02", "Grace"))
        assert updater.store.in_degree(s02) == 3
        assert updater.check_consistency() == []

    def test_unreachable_gain_ignored(self, updater):
        """A prereq edge under a non-published (non-CS) parent gains a
        relational view row but must not surface in the XML view."""
        delta = RelationalDelta()
        delta.insert("prereq", ("MA100", "CS240"))
        report = updater.apply_base_update(delta)
        assert report.unreachable_gains == 1
        assert updater.check_consistency() == []


class TestDeletePropagation:
    def test_remove_prereq_edge(self, updater):
        delta = RelationalDelta()
        delta.delete("prereq", ("CS650", "CS320"))
        report = updater.apply_base_update(delta)
        assert len(report.edges_removed) == 1
        assert updater.check_consistency() == []

    def test_remove_course_everywhere_with_gc(self, updater):
        row = updater.db.table("course").get(("CS240",))
        delta = RelationalDelta()
        delta.delete("course", row)
        delta.delete("prereq", ("CS320", "CS240"))
        report = updater.apply_base_update(delta)
        assert updater.store.lookup("course", ("CS240", "Data Structures")) is None
        assert report.nodes_collected > 0
        assert updater.check_consistency() == []

    def test_remove_enrollment_keeps_shared_student(self, updater):
        delta = RelationalDelta()
        delta.delete("enroll", ("S02", "CS320"))
        updater.apply_base_update(delta)
        assert updater.store.lookup("student", ("S02", "Grace")) is not None
        assert updater.check_consistency() == []

    def test_mixed_batch(self, updater):
        delta = RelationalDelta()
        delta.delete("prereq", ("CS650", "CS320"))
        delta.insert("prereq", ("CS650", "CS500"))
        delta.insert("student", ("S09", "Barbara"))
        delta.insert("enroll", ("S09", "CS650"))
        updater.apply_base_update(delta)
        assert updater.check_consistency() == []

    def test_reversed_prereq_reads_no_stale_row(self, updater):
        """Cut CS650 → CS320 and add CS320 → CS650 in one base update.
        CS650 is attached under CS320's prereq, whose row held CS650
        through the cut edge until the delete pass: the checking
        reference holds, and ``M`` ends exact."""
        updater = substitute_index(updater, StaleReadCheckingIndex)
        delta = RelationalDelta()
        delta.delete("prereq", ("CS650", "CS320"))
        delta.insert("prereq", ("CS320", "CS650"))
        report = updater.apply_base_update(delta)
        assert report.edges_added and report.edges_removed
        store, reach = updater.store, updater.reach
        cs650 = store.lookup("course", ("CS650", "Advanced Databases"))
        cs320 = store.lookup("course", ("CS320", "Databases"))
        assert reach.is_ancestor(cs320, cs650)
        assert not reach.is_ancestor(cs650, cs320)
        assert reach.equals(reference_index(store, updater.topo))
        assert updater.check_consistency() == []

    def test_empty_delta_noop(self, updater):
        before = updater.store.num_edges
        report = updater.apply_base_update(RelationalDelta())
        assert not report.edges_added and not report.edges_removed
        assert updater.store.num_edges == before


class TestSyntheticPropagation:
    def test_random_base_updates_stay_consistent(self):
        dataset = build_synthetic(SyntheticConfig(n_c=80, seed=17))
        updater = XMLViewUpdater(
            dataset.atg,
            dataset.db,
            side_effect_policy=SideEffectPolicy.PROPAGATE,
            strict=False,
        )
        rng = random.Random(5)
        h_rows = list(dataset.db.rows("H"))
        for i in range(20):
            delta = RelationalDelta()
            if rng.random() < 0.5 and h_rows:
                row = h_rows.pop(rng.randrange(len(h_rows)))
                if updater.db.table("H").get(row) is not None:
                    delta.delete("H", row)
            else:
                h1 = rng.randrange(1, 70)
                h2 = rng.randrange(h1 + 1, 81)
                if updater.db.table("H").get((h1, h2)) is None:
                    delta.insert("H", (h1, h2))
            if delta:
                updater.apply_base_update(delta)
        assert updater.check_consistency() == []

    def test_structures_maintained(self):
        dataset = build_synthetic(SyntheticConfig(n_c=60, seed=2))
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        delta = RelationalDelta()
        delta.insert("H", (3, 44))
        updater.apply_base_update(delta)
        from repro.baselines.recompute import recompute_structures

        fresh = recompute_structures(updater.store)
        assert updater.reach.equals(fresh.reach)
