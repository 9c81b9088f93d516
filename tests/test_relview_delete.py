"""Tests for key preservation and Algorithm delete (paper Fig. 9)."""

import pytest

from repro.atg.publisher import publish_store
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.translate import xdelete
from repro.errors import UpdateRejectedError
from repro.relational.conditions import Col, Eq
from repro.relational.query import SPJQuery
from repro.relview.delete import expand_view_deletions, translate_deletions
from repro.baselines.keypres import is_key_preserving, key_preservation_report
from repro.baselines.minimal import minimal_deletion_exact, minimal_deletion_greedy
from repro.views.registry import build_registry
from repro.workloads.registrar import build_registrar
from repro.xpath.parser import parse_xpath


@pytest.fixture
def env():
    atg, db = build_registrar()
    registry = build_registry(atg, db)
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    evaluator = DagXPathEvaluator(store, topo, reach)
    return atg, db, registry, store, evaluator


def deletions_for(env, path_text):
    _, db, registry, store, evaluator = env
    result = evaluator.evaluate(parse_xpath(path_text), mode="delete")
    delta_v = xdelete(store, result)
    return expand_view_deletions(registry, store, db, delta_v)


class TestKeyPreservation:
    def test_registrar_edge_views_preserve_keys(self, env):
        _, db, registry, _, _ = env
        for view in registry.views():
            report = key_preservation_report(view.query, db)
            assert report.preserved, report.missing

    def test_non_preserving_query_detected(self, env):
        _, db, _, _, _ = env
        query = SPJQuery(
            "bad",
            [("enroll", "e"), ("student", "s")],
            [("name", Col("s", "name"))],  # no keys projected
            Eq(Col("e", "ssn"), Col("s", "ssn")),
        )
        report = key_preservation_report(query, db)
        assert not report.preserved
        # e's key (ssn is covered via equality closure to s.ssn? no:
        # s.ssn itself is not projected either) — both keys missing.
        missing_rels = {rel for rel, _, _ in report.missing}
        assert missing_rels == {"enroll", "student"}

    def test_equality_closure_renaming_counts(self, env):
        _, db, _, _, _ = env
        # e.ssn is preserved through the join equality with s.ssn.
        query = SPJQuery(
            "ok",
            [("enroll", "e"), ("student", "s")],
            [("ssn", Col("s", "ssn")), ("cno", Col("e", "cno"))],
            Eq(Col("e", "ssn"), Col("s", "ssn")),
        )
        assert is_key_preserving(query, db)


class TestAlgorithmDelete:
    def test_prereq_edge_deletes_prereq_tuple(self, env):
        _, db, registry, _, _ = env
        rows = deletions_for(env, "course[cno=CS650]/prereq/course")
        plan = translate_deletions(registry, db, rows)
        assert [(op.relation, op.row) for op in plan.delta_r] == [
            ("prereq", ("CS650", "CS320"))
        ]

    def test_student_edge_deletes_enrollment(self, env):
        _, db, registry, _, _ = env
        rows = deletions_for(env, "//course[cno=CS320]//student[ssn=S02]")
        plan = translate_deletions(registry, db, rows)
        assert [(op.relation, op.row) for op in plan.delta_r] == [
            ("enroll", ("S02", "CS320"))
        ]

    def test_group_deletion_multiple_edges(self, env):
        _, db, registry, _, _ = env
        rows = deletions_for(env, "//student[ssn=S02]")
        plan = translate_deletions(registry, db, rows)
        relations = sorted(op.row for op in plan.delta_r)
        assert relations == [("S02", "CS320"), ("S02", "CS500")]

    def test_deleting_root_course_picks_course_tuple(self, env):
        """Removing CS650 from the root: only the course tuple kills the
        db_course row; CS650 is nobody's prerequisite, so no side effect."""
        _, db, registry, _, _ = env
        rows = deletions_for(env, "course[cno=CS650]")
        plan = translate_deletions(registry, db, rows)
        assert ("course", ("CS650", "Advanced Databases", "CS")) in [
            (op.relation, op.row) for op in plan.delta_r
        ]

    def test_rejection_when_all_sources_shared(self, env):
        """Deleting CS320 from the root only: the course tuple also feeds
        the prereq edge under CS650, and no other source exists for the
        db_course row -> reject."""
        _, db, registry, _, _ = env
        rows = deletions_for(env, "course[cno=CS320]")
        with pytest.raises(UpdateRejectedError):
            translate_deletions(registry, db, rows)

    def test_group_covers_shared_source(self, env):
        """Deleting CS320 everywhere is translatable by removing the
        single course(CS320) tuple: both its incoming edges (root and
        CS650's prereq) are in ΔV, and rows where CS320 is the *parent*
        (CS320→CS240) survive relationally — they disappear from the XML
        view by unreachability (GC), not by base deletions."""
        _, db, registry, store, evaluator = env
        result = evaluator.evaluate(parse_xpath("//course[cno=CS320]"), mode="delete")
        delta_v = xdelete(store, result)
        rows = expand_view_deletions(registry, store, db, delta_v)
        plan = translate_deletions(registry, db, rows)
        assert [(op.relation, op.row[0]) for op in plan.delta_r] == [
            ("course", "CS320")
        ]

    def test_empty_delta(self, env):
        _, db, registry, _, _ = env
        plan = translate_deletions(registry, db, [])
        assert len(plan.delta_r) == 0

    def test_applied_deletion_removes_only_doomed_rows(self, env):
        """After ΔR, re-evaluating every view loses exactly ΔV."""
        _, db, registry, _, _ = env
        before = {
            v.name: set(v.evaluate(db).rows) for v in registry.views()
        }
        rows = deletions_for(env, "course[cno=CS650]/prereq/course")
        doomed = {(v.name, r) for v, r in rows}
        plan = translate_deletions(registry, db, rows)
        db.apply(plan.delta_r)
        after = {
            v.name: set(v.evaluate(db).rows) for v in registry.views()
        }
        for name in before:
            lost = {(name, r) for r in before[name] - after[name]}
            gained = after[name] - before[name]
            assert not gained
            assert lost <= doomed
        assert doomed <= {
            (name, r)
            for name in before
            for r in before[name] - after[name]
        }


class TestMinimalDeletion:
    def test_minimal_equals_algorithm_on_single_row(self, env):
        _, db, registry, _, _ = env
        rows = deletions_for(env, "course[cno=CS650]/prereq/course")
        greedy = minimal_deletion_greedy(registry, db, rows)
        exact = minimal_deletion_exact(registry, db, rows)
        assert len(greedy) == len(exact) == 1

    def test_minimal_beats_naive_on_shared_source(self, env):
        """Two enrollments of S02: deleting the student tuple would kill
        both rows at once — but it's side-effect-free only because both
        rows are doomed."""
        _, db, registry, _, _ = env
        rows = deletions_for(env, "//student[ssn=S02]")
        exact = minimal_deletion_exact(registry, db, rows)
        assert exact is not None
        assert len(exact) == 1  # delete student(S02) covers both rows

    def test_infeasible_returns_none(self, env):
        _, db, registry, _, _ = env
        rows = deletions_for(env, "course[cno=CS320]")
        assert minimal_deletion_greedy(registry, db, rows) is None
        assert minimal_deletion_exact(registry, db, rows) is None

    def test_exact_respects_budget(self, env):
        _, db, registry, _, _ = env
        rows = deletions_for(env, "//student[ssn=S02]")
        with pytest.raises(ValueError):
            minimal_deletion_exact(registry, db, rows, max_sources=0)


class TestEachSourceDecidedOnce:
    """Over one call, the side-effect test of a deletable source is run
    once: the ``C`` / ``F`` rows of a cnode with several parents are the
    sources of every one of its view rows."""

    @staticmethod
    def _delete_cnode(monkeypatch, key):
        from repro.views.registry import EdgeView
        from repro.workloads.synthetic import SyntheticConfig, build_synthetic

        dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
        registry = build_registry(dataset.atg, dataset.db)
        store = publish_store(dataset.atg, dataset.db)
        topo = TopoOrder.from_store(store)
        evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
        node = next(n for n, sem in store.gen["cnode"].items() if sem[0] == key)
        result = evaluator.evaluate(parse_xpath(f"//cnode[key={key}]"), mode="delete")
        deletions = expand_view_deletions(
            registry, store, dataset.db, xdelete(store, result)
        )
        calls = []
        real = EdgeView.rows_referencing

        def rows_referencing(view, db, alias, source):
            calls.append((view.name, alias, source))
            return real(view, db, alias, source)

        monkeypatch.setattr(EdgeView, "rows_referencing", rows_referencing)
        plan = translate_deletions(registry, dataset.db, deletions)
        return store.parents_of(node), deletions, plan, calls

    def test_three_parents_ask_each_source_once(self, monkeypatch):
        parents, deletions, plan, calls = self._delete_cnode(monkeypatch, 36)
        assert len(parents) == len(deletions) == 3
        # The cnode's own C and F rows are not side-effect free (a view
        # row outside ΔV references them), so every row falls through to
        # its own H row — and C and F are asked about once each.
        assert sorted(relation for relation, _ in plan.chosen_sources) == ["H"] * 3
        asked = [(alias, source) for _, alias, source in calls]
        assert ("c", (36,)) in asked and ("f", (36,)) in asked
        assert len(calls) == len(set(calls)) == 7
