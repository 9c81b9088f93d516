"""End-to-end tests for the XMLViewUpdater framework (paper Fig. 3)."""

import pytest

from repro.atg.publisher import publish_tree
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import (
    SideEffectError,
    UpdateRejectedError,
    ValidationError,
)
from repro.xmltree.tree import tree_equal
from repro.ops import DeleteOp, InsertOp, ReplaceOp


def assert_view_equals_republish(updater):
    """The fundamental invariant: ΔX(T) = σ(ΔR(I))."""
    problems = updater.check_consistency()
    assert problems == [], problems


class TestDeletion:
    def test_delete_prereq_edge(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        assert out.accepted
        assert [op.row for op in out.delta_r] == [("CS650", "CS320")]
        assert_view_equals_republish(u)
        tree = u.xml_tree()
        cs650 = [
            n for n in tree.children if n.sem[0] == "CS650"
        ][0]
        prereq = cs650.child_by_tag("prereq")
        assert prereq.children == []

    def test_delete_updates_xml_everywhere(self, registrar_updater_propagate):
        """Deleting CS240 under CS320 affects every CS320 occurrence."""
        u = registrar_updater_propagate
        out = u.apply_op(DeleteOp("//course[cno=CS320]/prereq/course[cno=CS240]"))
        assert out.accepted
        tree = u.xml_tree()
        for node in tree.iter():
            if node.tag == "course" and node.sem[0] == "CS320":
                assert node.child_by_tag("prereq").children == []
        assert_view_equals_republish(u)

    def test_delete_student_from_one_course(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(DeleteOp("//course[cno=CS320]//student[ssn=S02]"))
        assert out.accepted
        # Base deletion removes the enrollment, not the student.
        assert [op.relation for op in out.delta_r] == ["enroll"]
        assert u.db.table("student").get(("S02",)) is not None
        assert_view_equals_republish(u)

    def test_delete_side_effect_aborts(self, registrar_updater):
        with pytest.raises(SideEffectError):
            registrar_updater.apply_op(DeleteOp(
                "course[cno=CS320]/prereq/course[cno=CS240]"
            ))

    def test_delete_side_effect_propagates(self, registrar_updater_propagate):
        u = registrar_updater_propagate
        out = u.apply_op(DeleteOp("course[cno=CS320]/prereq/course[cno=CS240]"))
        assert out.accepted
        assert out.side_effects
        assert_view_equals_republish(u)

    def test_delete_nonexistent_rejected(self, registrar_updater):
        with pytest.raises(UpdateRejectedError):
            registrar_updater.apply_op(DeleteOp("course[cno=NOPE]"))

    def test_delete_invalid_target_rejected(self, registrar_updater):
        with pytest.raises(ValidationError):
            registrar_updater.apply_op(DeleteOp("course/cno"))

    def test_delete_timings_recorded(self, registrar_updater):
        out = registrar_updater.apply_op(DeleteOp(
            "course[cno=CS650]/prereq/course[cno=CS320]"
        ))
        for phase in ("validate", "xpath", "translate_v", "translate_r",
                      "apply", "maintain"):
            assert phase in out.timings
        assert out.total_time > 0
        assert out.foreground_time <= out.total_time


class TestInsertion:
    def test_insert_existing_course(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(InsertOp(
            "course[cno=CS650]/prereq", "course",
            ("CS500", "Operating Systems"),
        ))
        assert out.accepted
        assert [op.row for op in out.delta_r] == [("CS650", "CS500")]
        assert_view_equals_republish(u)

    def test_insert_new_course_avoids_root_side_effect(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(InsertOp("//course[cno=CS240]/prereq", "course", ("CS101", "Intro")))
        assert out.accepted
        course_row = u.db.table("course").get(("CS101",))
        assert course_row is not None
        assert course_row[2] != "CS"  # dept forced away from 'CS'
        assert_view_equals_republish(u)

    def test_insert_at_root_derives_dept(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(InsertOp(".", "course", ("CS700", "Theory")))
        assert out.accepted
        assert u.db.table("course").get(("CS700",)) == ("CS700", "Theory", "CS")
        assert_view_equals_republish(u)

    def test_insert_rightmost_child(self, registrar_updater):
        u = registrar_updater
        u.apply_op(InsertOp(".", "course", ("CS700", "Theory")))
        tree = u.xml_tree()
        assert tree.children[-1].sem == ("CS700", "Theory")

    def test_insert_side_effect_aborts(self, registrar_updater):
        with pytest.raises(SideEffectError):
            registrar_updater.apply_op(InsertOp(
                "course[cno=CS650]//course[cno=CS320]/prereq",
                "course",
                ("CS500", "Operating Systems"),
            ))

    def test_insert_side_effect_propagates_everywhere(
        self, registrar_updater_propagate
    ):
        u = registrar_updater_propagate
        out = u.apply_op(InsertOp(
            "course[cno=CS650]//course[cno=CS320]/prereq",
            "course",
            ("CS500", "Operating Systems"),
        ))
        assert out.accepted
        tree = u.xml_tree()
        for node in tree.iter():
            if node.tag == "course" and node.sem[0] == "CS320":
                prereq_children = {
                    c.sem[0] for c in node.child_by_tag("prereq").children
                }
                assert "CS500" in prereq_children
        assert_view_equals_republish(u)

    def test_insert_cycle_rejected(self, registrar):
        """CS320 into the prereq of its own prerequisite CS240."""
        atg, db = registrar
        u = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        with pytest.raises(UpdateRejectedError, match="cycle"):
            u.apply_op(InsertOp(
                "//course[cno=CS240]/prereq",
                "course",
                ("CS320", "Databases"),
            ))
        assert_view_equals_republish(u)

    def test_insert_cycle_through_a_new_subtree_rejected(self, registrar):
        """A new CS998 whose prereq is CS320, which holds CS240: its ST
        reaches CS240's prereq through the shared existing child."""
        atg, db = registrar
        db.insert("prereq", ("CS998", "CS320"))
        u = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        with pytest.raises(UpdateRejectedError, match="cycle"):
            u.apply_op(InsertOp(
                "//course[cno=CS240]/prereq", "course", ("CS998", "New")
            ))
        assert_view_equals_republish(u)

    def test_replace_cycle_rejected(self, registrar):
        """Replacing CS320 under CS650 with CS650 itself: ST(CS650)
        contains the vacated parent, CS650's prereq."""
        atg, db = registrar
        u = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        with pytest.raises(UpdateRejectedError, match="cycle"):
            u.apply_op(ReplaceOp(
                "course[cno=CS650]/prereq/course[cno=CS320]",
                "course",
                ("CS650", "Advanced Databases"),
            ))
        assert_view_equals_republish(u)

    def test_insert_cycle_through_the_previous_ops_edge_rejected(self, registrar):
        """CS500 goes under CS240 first; then CS240 under CS500 closes a
        cycle through that edge, which ``M`` holds since the first
        op's commit repaired it."""
        atg, db = registrar
        u = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        u.apply_op(InsertOp(
            "//course[cno=CS240]/prereq",
            "course",
            ("CS500", "Operating Systems"),
        ))
        with pytest.raises(UpdateRejectedError, match="cycle"):
            u.apply_op(InsertOp(
                "//course[cno=CS500]/prereq",
                "course",
                ("CS240", "Data Structures"),
            ))
        assert_view_equals_republish(u)

    def test_insert_invalid_type_rejected(self, registrar_updater):
        with pytest.raises(ValidationError):
            registrar_updater.apply_op(InsertOp(
                "course[cno=CS650]/prereq", "student", ("S09", "X")
            ))

    def test_insert_selects_nothing_rejected(self, registrar_updater):
        with pytest.raises(UpdateRejectedError):
            registrar_updater.apply_op(InsertOp(
                "course[cno=NOPE]/prereq", "course", ("CS1", "x")
            ))

    def test_insert_conflicting_existing_row_rejected(self, registrar_updater):
        """Inserting (CS240, WRONG-TITLE): the course table already binds
        CS240 to a different title, so the target is not derivable."""
        with pytest.raises(UpdateRejectedError):
            registrar_updater.apply_op(InsertOp(
                "course[cno=CS650]/prereq", "course", ("CS240", "WRONG")
            ))

    def test_insert_set_semantics_noop(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(InsertOp(
            "//course[cno=CS320]/prereq", "course",
            ("CS240", "Data Structures"),
        ))
        assert out.accepted
        assert len(out.delta_r) == 0  # edge already exists
        assert_view_equals_republish(u)

    def test_insert_student(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(InsertOp(
            "course[cno=CS650]/takenBy", "student", ("S09", "Barbara")
        ))
        assert out.accepted
        relations = sorted(op.relation for op in out.delta_r)
        assert relations == ["enroll", "student"]
        assert_view_equals_republish(u)

    def test_insert_existing_student_only_enrolls(self, registrar_updater):
        u = registrar_updater
        out = u.apply_op(InsertOp(
            "course[cno=CS650]/takenBy", "student", ("S03", "Edsger")
        ))
        assert out.accepted
        assert [op.relation for op in out.delta_r] == ["enroll"]
        assert_view_equals_republish(u)


class TestSequences:
    def test_insert_then_delete_roundtrip(self, registrar_updater):
        u = registrar_updater
        before = u.xml_tree()
        u.apply_op(InsertOp("course[cno=CS650]/prereq", "course", ("CS500", "Operating Systems")))
        u.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS500]"))
        assert tree_equal(u.xml_tree(), before)
        assert_view_equals_republish(u)

    def test_many_sequential_updates(self, registrar_updater_propagate):
        u = registrar_updater_propagate
        u.apply_op(InsertOp(".", "course", ("CS700", "Theory")))
        u.apply_op(InsertOp("course[cno=CS700]/prereq", "course", ("CS240", "Data Structures")))
        u.apply_op(InsertOp("course[cno=CS700]/takenBy", "student", ("S02", "Grace")))
        u.apply_op(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        u.apply_op(DeleteOp("//student[ssn=S01]"))
        assert_view_equals_republish(u)

    def test_xml_matches_tree_publishing_after_updates(
        self, registrar_updater_propagate
    ):
        u = registrar_updater_propagate
        u.apply_op(InsertOp(".", "course", ("CS700", "Theory")))
        u.apply_op(DeleteOp("//course[cno=CS240]"))
        direct = publish_tree(u.atg, u.db)
        assert tree_equal(u.xml_tree(), direct)


class TestEvaluateOnly:
    def test_evaluate_xpath_does_not_mutate(self, registrar_updater):
        u = registrar_updater
        before = u.store.num_nodes
        result = u.evaluate_xpath("//course")
        assert len(result.targets) == 4
        assert u.store.num_nodes == before


class TestBOMDomain:
    def test_publish_and_query(self, bom):
        atg, db = bom
        updater = XMLViewUpdater(atg, db)
        result = updater.evaluate_xpath("//part")
        assert len(result.targets) > 5
        assert updater.check_consistency() == []

    def test_component_shared(self, bom):
        atg, db = bom
        updater = XMLViewUpdater(atg, db)
        assert updater.store.sharing_rate() > 0

    def test_update_cycle(self, bom):
        atg, db = bom
        updater = XMLViewUpdater(
            atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
        )
        part = next(
            n for n in updater.store.nodes()
            if updater.store.type_of(n) == "part"
        )
        pid = updater.store.sem_of(part)[0]
        out = updater.apply_op(InsertOp(
            f"//part[pid={pid}]/components", "part", ("P9999", "new-part")
        ))
        assert out.accepted
        assert updater.check_consistency() == []
        out2 = updater.apply_op(DeleteOp(f"//part[pid={pid}]/components/part[pid=P9999]"))
        assert out2.accepted
        assert updater.check_consistency() == []
