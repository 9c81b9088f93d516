"""Focused tests for smaller internals: the XPath compiler, predicate
rendering, the bench CSV writer, report truncation, the engine seam
(no package reaches into the updater's private state) and the absence
of any network surface."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.paper.__main__ import _write_csv
from repro.core.dag_eval import _compile
from repro.relational.conditions import (
    And,
    Col,
    Const,
    Eq,
    Lt,
    Not,
    Or,
    TRUE,
)
from repro.xpath.parser import parse_xpath
from repro.ops import DeleteOp, InsertOp


class TestXPathCompiler:
    def test_no_filters_empty_program(self):
        program = _compile(parse_xpath("a/b//c"))
        assert program.filter_plans == []
        assert program.path_plans == []

    def test_value_filter_compiles_path_then_filter(self):
        program = _compile(parse_xpath("a[b=1]"))
        # the filter reads path plan 0, compiled before it
        assert program.filter_plans == [(1, 0)]
        ops, value = program.path_plans[0]
        assert ops == [(0, "b")]
        assert value == "1"

    def test_shared_subexpression_compiled_once(self):
        program = _compile(parse_xpath("a[b=1 and b=1]"))
        # identical atoms collapse through the frozen-dataclass identity
        assert len(program.path_plans) == 1

    def test_nested_filter_dependency_order(self):
        program = _compile(parse_xpath("a[b[c=1]/d]"))
        # the inner c=1 path and filter get index 0, before the outer
        # b[...]/d path and filter that read them
        assert program.path_plans[0] == ([(0, "c")], "1")
        assert program.filter_plans == [(1, 0), (1, 1)]
        # outer path plan references the inner filter by index
        outer_ops, _ = program.path_plans[1]
        assert outer_ops == [(0, "b"), (2, 0), (0, "d")]

    def test_descendant_op(self):
        program = _compile(parse_xpath("a[//b]"))
        ops, _ = program.path_plans[0]
        assert ops[0] == (3,)

    def test_boolean_plans(self):
        program = _compile(parse_xpath("a[b or not(c) and label()=x]"))
        codes = {plan[0] for plan in program.filter_plans}
        assert {0, 1, 2, 3, 4} >= codes
        assert 3 in codes  # or
        assert 4 in codes  # not


class TestPredicates:
    def test_str_rendering(self):
        pred = And(
            Eq(Col("a", "x"), Const(1)),
            Or(Lt(Col("a", "y"), Const(2)), Not(TRUE)),
        )
        text = str(pred)
        assert "a.x = 1" in text
        assert "a.y < 2" in text
        assert "NOT" in text
        assert str(TRUE) == "TRUE"

    def test_conjuncts_flatten(self):
        pred = And(And(Eq(Col("a", "x"), Const(1))), Eq(Col("a", "y"), Const(2)))
        assert len(list(pred.conjuncts())) == 2

    def test_columns_iteration(self):
        pred = Or(Eq(Col("a", "x"), Col("b", "y")), Not(Eq(Col("c", "z"), Const(1))))
        cols = {(c.alias, c.attr) for c in pred.columns()}
        assert cols == {("a", "x"), ("b", "y"), ("c", "z")}


class TestCsvWriter:
    def test_writes_rows(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5, "c": "x"}]
        _write_csv(str(tmp_path), "exp", rows)
        content = (tmp_path / "exp.csv").read_text().splitlines()
        assert content[0] == "a,b,c"
        assert content[1] == "1,2.5,"
        assert content[2] == "2,3.5,x"

    def test_no_dir_is_noop(self):
        _write_csv(None, "exp", [{"a": 1}])  # must not raise

    def test_empty_rows_skipped(self, tmp_path):
        _write_csv(str(tmp_path), "empty", [])
        assert not (tmp_path / "empty.csv").exists()


class TestExplainTruncation:
    def test_large_delta_truncated(self, registrar_updater_propagate):
        from repro.core.explain import explain_outcome

        u = registrar_updater_propagate
        # Insert a new course: ΔV has internal + connection edges.
        out = u.apply_op(InsertOp(".", "course", ("CS950", "Big")))
        text = explain_outcome(out, u.store)
        assert "ΔV:" in text
        # A delete touching many edges:
        out2 = u.apply_op(DeleteOp("//course"))
        text2 = explain_outcome(out2, u.store)
        assert "ACCEPTED" in text2 or "REJECTED" in text2


class TestEngineSeam:
    #: The one module allowed to touch each object's private state.
    OWNERS = {
        "updater": "core/updater.py",
        "plan": "core/plan.py",
    }

    def test_no_private_access_outside_the_owning_module(self):
        """The updater's and the plan's private state each belong to
        the module defining the class; everything else — the other
        ``repro.core`` modules included — goes through named methods
        (``generation``, ``attach_sink`` and the sink protocol above;
        ``write_scope``, ``release_plan``, ``maintain``,
        ``finish_generation``, ... between plan and updater)."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        reach_in = re.compile(r"\b(updater|plan)\._[a-z]\w*")
        hits = [
            f"{path.relative_to(src)}:{number}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1
            )
            for match in reach_in.finditer(line)
            if self.OWNERS[match.group(1)] != path.relative_to(src).as_posix()
        ]
        assert hits == []

    def test_trace_pins_live_in_the_classes_own_dict(self):
        """``benchmarks/e2e/trace.py`` patches ``XMLViewUpdater.plan``
        and ``UpdatePlan.commit`` via ``vars(owner)`` of the names
        ``repro.core.updater`` exports: they must not move to a base
        class or a helper (the ``--smoke`` run checks the same from
        outside the process)."""
        import repro.core.updater as module

        assert callable(vars(module.XMLViewUpdater)["plan"])
        assert callable(vars(module.UpdatePlan)["commit"])

    def test_base_update_has_one_path(self):
        """``apply(BaseUpdateOp)``, ``plan(...).commit()`` and
        ``updater.apply_base_update(ΔR)`` run the same propagation and
        the same tail: one generation each, identical events."""
        from repro.ops import BaseUpdateOp
        from repro.relational.database import RelationalDelta
        from repro.service import open_view
        from repro.workloads.registrar import build_registrar

        delta = RelationalDelta()
        delta.insert("course", ("CS901", "Seminar", "CS"))
        delta.insert("prereq", ("CS901", "CS320"))
        drivers = {
            "apply": lambda s: s.apply(BaseUpdateOp.from_delta(delta)),
            "plan": lambda s: s.plan(BaseUpdateOp.from_delta(delta)).commit(),
            "direct": lambda s: s.updater.apply_base_update(delta),
        }
        seen = {}
        for name, drive in drivers.items():
            service = open_view(*build_registrar())
            feed = service.changefeed()
            service.subscribe("//course")
            before = service.updater.generation
            drive(service)
            assert service.check_consistency() == []
            (event,) = feed.events()
            assert event.generation == service.updater.generation
            seen[name] = (
                service.updater.generation - before,
                event.generation,
                event.edges,
                event.nodes,
                event.coarse,
                event.reason,
                event.delta_r.ops,
            )
        assert seen["apply"][0] == 1
        assert seen["apply"][2], "the event must carry the edge changes"
        assert seen["apply"] == seen["plan"] == seen["direct"]


def test_no_network_surface():
    """A replica is a snapshot plus ΔV events from its writer or its WAL
    directory: nothing in the package opens a socket, so importing it
    loads no network module and the retired transport names are gone."""
    import repro
    import repro.replica

    src = Path(__file__).resolve().parent.parent / "src"
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.replica; "
         "print(sorted({'socket', 'selectors'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "[]"
    importers = [
        str(path.relative_to(src))
        for path in sorted((src / "repro").rglob("*.py"))
        if re.search(r"^\s*import socket\b", path.read_text(encoding="utf-8"),
                     re.MULTILINE)
    ]
    assert importers == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.replica.transport")
    retired = {"InProcessTransport", "ReplicationServer", "SocketTransport"}
    assert retired.isdisjoint(repro.__all__)
    assert retired.isdisjoint(repro.replica.__all__)
