"""Unit tests for the edge-view SPJ definitions (registry)."""

import pytest

from repro.atg.publisher import publish_store
from repro.errors import ATGError
from repro.baselines.keypres import is_key_preserving
from repro.views.registry import build_registry
from repro.workloads.registrar import build_registrar


@pytest.fixture
def setup():
    atg, db = build_registrar()
    registry = build_registry(atg, db)
    store = publish_store(atg, db)
    return atg, db, registry, store


class TestClosure:
    def test_one_view_per_starred_edge(self, setup):
        _, _, registry, _ = setup
        names = {v.name for v in registry.views()}
        assert names == {
            "edge_db_course",
            "edge_prereq_course",
            "edge_takenBy_student",
        }

    def test_projection_edges_have_no_view(self, setup):
        _, _, registry, _ = setup
        assert not registry.has_view("course", "cno")
        with pytest.raises(ATGError):
            registry.view("course", "cno")

    def test_views_are_key_preserving(self, setup):
        _, db, registry, _ = setup
        for view in registry.views():
            assert is_key_preserving(view.query, db)

    def test_param_columns_projected_first(self, setup):
        _, _, registry, _ = setup
        view = registry.view("prereq", "course")
        assert view.param_names == ("cno",)
        assert view.query.output_names[0] == "p_cno"

    def test_key_layout(self, setup):
        _, _, registry, _ = setup
        view = registry.view("prereq", "course")
        assert set(view.key_layout) == {"p", "c"}
        relation, slots = view.key_layout["p"]
        assert relation == "prereq"
        assert [attr for _, attr in slots] == ["cno1", "cno2"]

    def test_base_relations(self, setup):
        _, _, registry, _ = setup
        assert registry.base_relations() == {"course", "prereq", "enroll", "student"}


class TestEvaluation:
    def test_edges_match_store(self, setup):
        _, db, registry, store = setup
        view = registry.view("prereq", "course")
        result = view.evaluate(db)
        visible = {view.visible(row) for row in result.rows}
        # All derivable edges, including under non-CS parents.
        assert (("CS650",), ("CS320", "Databases")) in visible
        assert (("CS320",), ("CS240", "Data Structures")) in visible

    def test_matching_rows_point_query(self, setup):
        _, db, registry, _ = setup
        view = registry.view("prereq", "course")
        rows = view.matching_rows(db, ("CS650",), ("CS320", "Databases"))
        assert len(rows) == 1
        assert view.source_key(rows[0], "p") == ("CS650", "CS320")
        assert view.source_key(rows[0], "c") == ("CS320",)

    def test_matching_rows_absent_edge(self, setup):
        _, db, registry, _ = setup
        view = registry.view("prereq", "course")
        assert view.matching_rows(db, ("CS650",), ("CS240", "Data Structures")) == []

    def test_rows_referencing_base_tuple(self, setup):
        _, db, registry, _ = setup
        view = registry.view("takenBy", "student")
        rows = view.rows_referencing(db, "s", ("S02",))
        # S02 enrolled in CS320 and CS500: two view rows reference it.
        assert len(rows) == 2

    def test_sources(self, setup):
        _, db, registry, _ = setup
        view = registry.view("takenBy", "student")
        rows = view.rows_referencing(db, "s", ("S01",))
        sources = view.sources(rows[0])
        assert ("enroll", "e", ("S01", "CS650")) in sources
        assert ("student", "s", ("S01",)) in sources

    def test_visible_split(self, setup):
        _, db, registry, _ = setup
        view = registry.view("db", "course")
        result = view.evaluate(db)
        for row in result.rows:
            params, child = view.visible(row)
            assert params == ()
            assert len(child) == 2

    def test_root_view_filters_department(self, setup):
        _, db, registry, _ = setup
        view = registry.view("db", "course")
        children = {view.visible(r)[1][0] for r in view.evaluate(db).rows}
        assert "MA100" not in children
        assert children == {"CS650", "CS500", "CS320", "CS240"}


class TestAnalysedOnce:
    """Every question asked of an edge view is its one ``SPJQuery`` with
    some columns fixed: work bounds, not timings."""

    @pytest.mark.parametrize("workload", ["registrar", "bom", "synthetic:120"])
    def test_fixed_probes_never_list_an_indexed_table(self, workload, monkeypatch):
        from repro.relational.database import Table
        from repro.workloads import named_workload

        atg, db = named_workload(workload)
        registry = build_registry(atg, db)

        sample = {view.name: view.evaluate(db).rows[:40] for view in registry.views()}

        def ask_everything():
            answers = []
            for view in registry.views():
                for row in sample[view.name]:
                    answers.append(view.matching_rows(db, *view.visible(row)))
                    assert row in answers[-1]
                    for alias in view.key_layout:
                        key = view.source_key(row, alias)
                        answers.append(view.rows_referencing(db, alias, key))
                        assert row in answers[-1]
            return answers

        first = ask_everything()  # index builds are passes over rows()
        monkeypatch.setattr(Table, "rows", lambda self: pytest.fail("table listed"))
        assert ask_everything() == first

    def test_a_stream_builds_no_query_and_relists_no_condition(self, monkeypatch):
        from repro.bench.workload_gen import WorkloadSpec, generate_ops
        from repro.relational.conditions import And, Predicate
        from repro.relational.query import SPJQuery
        from repro.relview import insert as insert_module
        from repro.service import ViewConfig, open_view
        from repro.workloads import named_workload

        spec = WorkloadSpec(workload="synthetic:120", ops=60, seed=7, pattern="mixed")
        ops = list(generate_ops(spec))
        atg, db = named_workload(spec.workload)
        service = open_view(atg, db, config=ViewConfig(strict=False))

        seen = {"built": 0, "relisted": 0, "evaluations": 0, "sweeps": 0}
        inside = [0]  # depth of SPJQuery.evaluate / _sweep_side_effects frames

        def counted(function, key, frame=False, only_inside=False):
            def wrapper(*args, **kwargs):
                if inside[0] or not only_inside:
                    seen[key] += 1
                inside[0] += frame
                try:
                    return function(*args, **kwargs)
                finally:
                    inside[0] -= frame
            return wrapper

        monkeypatch.setattr(SPJQuery, "__init__", counted(SPJQuery.__init__, "built"))
        monkeypatch.setattr(
            SPJQuery, "evaluate", counted(SPJQuery.evaluate, "evaluations", frame=True)
        )
        monkeypatch.setattr(
            insert_module,
            "_sweep_side_effects",
            counted(insert_module._sweep_side_effects, "sweeps", frame=True),
        )
        for cls in (Predicate, And):
            monkeypatch.setattr(
                cls, "conjuncts", counted(cls.conjuncts, "relisted", only_inside=True)
            )
        for op in ops:
            assert service.apply(op).accepted
        assert seen["evaluations"] > len(ops) and seen["sweeps"] > 0
        assert seen["built"] == 0  # about 3 per op when each call built its query
        assert seen["relisted"] == 0
