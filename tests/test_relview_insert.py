"""Tests for Algorithm insert: templates, side-effect sweep, SAT, ΔR."""

from contextlib import nullcontext

import pytest

import uncompiled
from repro.atg.publisher import publish_store, publish_subtree
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.translate import xinsert
from repro.errors import UpdateRejectedError
from repro.relview import insert as insert_module
from repro.relview.insert import translate_insertions
from repro.views.registry import build_registry
from repro.views.store import ViewDelta
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


def delta_for_insert(env, path_text, element, sem):
    atg, db, registry, store, evaluator = env
    result = evaluator.evaluate(parse_xpath(path_text), mode="insert")
    subtree = publish_subtree(atg, db, store, element, sem)
    return xinsert(store, result.targets, subtree)


def gained_rows(registry, db, delta_r):
    before = {v.name: set(v.evaluate(db).rows) for v in registry.views()}
    db.apply(delta_r)
    after = {v.name: set(v.evaluate(db).rows) for v in registry.views()}
    gains = {
        name: after[name] - before[name] for name in before
    }
    losses = {name: before[name] - after[name] for name in before}
    return gains, losses


class TestExistingSubtree:
    def test_single_edge_tuple(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/prereq", "course",
            ("CS500", "Operating Systems"),
        )
        plan = translate_insertions(registry, store, db, delta_v)
        assert [(op.relation, op.row) for op in plan.delta_r] == [
            ("prereq", ("CS650", "CS500"))
        ]

    def test_no_side_effect_rows_gained(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/prereq", "course",
            ("CS500", "Operating Systems"),
        )
        plan = translate_insertions(registry, store, db, delta_v)
        gains, losses = gained_rows(registry, db, plan.delta_r)
        assert sum(len(g) for g in gains.values()) == 1
        assert all(not l for l in losses.values())

    def test_already_derivable_is_noop(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "//course[cno=CS320]/prereq", "course",
            ("CS240", "Data Structures"),
        )
        plan = translate_insertions(registry, store, db, delta_v)
        assert len(plan.delta_r) == 0


class TestNewSubtree:
    def test_new_course_gets_fresh_dept(self, env):
        """The side-effect sweep forbids dept='CS' (root view) for a
        course inserted only as a prerequisite."""
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/prereq", "course", ("CS901", "New")
        )
        plan = translate_insertions(registry, store, db, delta_v)
        rows = {op.relation: op.row for op in plan.delta_r}
        assert rows["prereq"] == ("CS650", "CS901")
        assert rows["course"][0] == "CS901"
        assert rows["course"][2] != "CS"

    def test_new_course_exact_gain(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/prereq", "course", ("CS901", "New")
        )
        plan = translate_insertions(registry, store, db, delta_v)
        gains, losses = gained_rows(registry, db, plan.delta_r)
        assert all(not l for l in losses.values())
        assert len(gains["edge_prereq_course"]) == 1
        assert not gains["edge_db_course"]  # the side effect was avoided
        assert not gains["edge_takenBy_student"]

    def test_root_insert_requires_cs_dept(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(env, ".", "course", ("CS902", "Root"))
        plan = translate_insertions(registry, store, db, delta_v)
        rows = {op.relation: op.row for op in plan.delta_r}
        assert rows["course"] == ("CS902", "Root", "CS")

    def test_new_student_and_enrollment(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/takenBy", "student", ("S10", "Kay")
        )
        plan = translate_insertions(registry, store, db, delta_v)
        relations = sorted(op.relation for op in plan.delta_r)
        assert relations == ["enroll", "student"]
        gains, _ = gained_rows(registry, db, plan.delta_r)
        assert len(gains["edge_takenBy_student"]) == 1

    def test_conflicting_existing_title_rejected(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/prereq", "course", ("CS240", "WRONG")
        )
        with pytest.raises(UpdateRejectedError):
            translate_insertions(registry, store, db, delta_v)

    def test_plan_statistics(self, env):
        atg, db, registry, store, _ = env
        delta_v = delta_for_insert(
            env, "course[cno=CS650]/prereq", "course", ("CS903", "Stats")
        )
        plan = translate_insertions(registry, store, db, delta_v)
        assert plan.solver in ("dpll", "trivial")
        assert plan.derivations_checked >= 1
        assert len(plan.new_templates) == 2  # course + prereq tuples

    def test_solver_modes_agree(self, env):
        """The product's solve and the paper's encoding solved by
        WalkSAT (``uncompiled.reference_solve("walksat")``) insert the
        same edge."""
        atg, db, registry, store, _ = env
        for solving in (
            uncompiled.reference_solve("walksat"), nullcontext()
        ):
            atg2, db2 = build_registrar()
            registry2 = build_registry(atg2, db2)
            store2 = publish_store(atg2, db2)
            topo2 = TopoOrder.from_store(store2)
            reach2 = build_index(store2, topo2)
            evaluator2 = DagXPathEvaluator(store2, topo2, reach2)
            result = evaluator2.evaluate(
                parse_xpath("course[cno=CS650]/prereq"), mode="insert"
            )
            subtree = publish_subtree(
                atg2, db2, store2, "course", ("CS904", "Solver")
            )
            delta_v = xinsert(store2, result.targets, subtree)
            with solving:
                plan = insert_module.translate_insertions(
                    registry2, store2, db2, delta_v
                )
            gains, losses = gained_rows(registry2, db2, plan.delta_r)
            assert len(gains["edge_prereq_course"]) == 1
            assert not gains["edge_db_course"]

    def test_empty_delta(self, env):
        _, db, registry, store, _ = env
        plan = translate_insertions(registry, store, db, ViewDelta())
        assert len(plan.delta_r) == 0


class TestSweepFollowsTheJoinGraph:
    """The side-effect sweep binds next the alias an equality ties to a
    concrete bound cell, so a seed costs probes along the join graph —
    not a pass over a table it shares no equality with."""

    @staticmethod
    def _new_key_insert(n_c=600, tables=None):
        from repro import InsertOp
        from repro.core.updater import XMLViewUpdater
        from repro.relational.query import SPJQuery
        from repro.workloads.synthetic import SyntheticConfig, build_synthetic

        dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=1))
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        if tables is not None:  # same view, another table-declaration order
            view = updater.registry.view("sub", "cnode")
            query = view.query
            view.query = SPJQuery(query.name, tables, query.project, query.where)
        parent = min(dataset.top_level)
        op = InsertOp(
            f"//cnode[key={parent}]/sub", element="cnode", sem=(n_c + 7, "fresh")
        )
        return dataset, updater, updater.plan(op)

    def test_new_key_sweep_work_is_bounded_by_its_output(self, monkeypatch):
        from repro.relview import insert as insert_module

        examined = []
        admit = insert_module._Admit.run
        monkeypatch.setattr(
            insert_module._Admit,
            "run",
            lambda *args: examined.append(1) or admit(*args),
        )
        captured = []
        sweep = insert_module._sweep_side_effects
        monkeypatch.setattr(
            insert_module,
            "_sweep_side_effects",
            lambda *args: captured.append(sweep(*args)) or captured[-1],
        )
        dataset, updater, plan = self._new_key_insert()
        assert len(dataset.db.table("H")) > 1000
        assert sorted(op.relation for op in plan.delta_r) == ["C", "F", "H"]
        (derivations,) = captured
        # One candidate row per seed, per probe hit and per template tried.
        assert len(examined) <= 4 * (len(derivations) + len(plan.delta_r))
        plan.abort()

    def test_a_churn_insert_probes_c_and_f_on_their_keys(self):
        # The sweep binds C.c1 and F.f1 to the new key: a key probe reads
        # the table's rows and builds no index on the key column (F.f5 is
        # probed for a fresh value, so F gains that index).
        from repro import ViewConfig, open_view
        from repro.bench.workload_gen import WorkloadSpec, generate_ops
        from repro.workloads.synthetic import SyntheticConfig, build_synthetic

        spec = WorkloadSpec(workload="synthetic:1000", ops=1, pattern="churn")
        (op,) = generate_ops(spec)
        assert op["op"] == "insert"
        dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=42))
        service = open_view(dataset.atg, dataset.db, config=ViewConfig(strict=False))
        c, f = dataset.db.table("C"), dataset.db.table("F")
        assert service.apply(op).accepted
        assert "c1" not in c._indexes and "f1" not in f._indexes

    def test_table_declaration_order_does_not_change_delta_r(self):
        import itertools

        deltas = set()
        for tables in itertools.permutations([("H", "h"), ("C", "c"), ("F", "f")]):
            _, updater, plan = self._new_key_insert(n_c=120, tables=list(tables))
            # Templates (stage 1) follow declaration order, so ΔR's op order
            # does; its rows, fresh values included, must not.
            deltas.add(tuple(sorted((op.relation, op.row) for op in plan.delta_r)))
            plan.abort()
        assert len(deltas) == 1


class TestPreparedOncePerShape:
    """Algorithm insert is prepared per insertion shape: a call binds
    values, reads each target row once by key and builds no atom over
    two values."""

    @staticmethod
    def _counting(monkeypatch):
        """Count SPJ runs, ``Table.get`` calls and ``make_atom`` calls
        of every translation, the sweep's apart from the rest."""
        import collections

        from repro.core import plan as plan_module
        from repro.relational.database import Table
        from repro.relational.query import SPJQuery
        from repro.relview import insert as insert_module

        counts = collections.Counter()
        phase = ["outside"]

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[phase[0], name] += 1
                return function(*args, **kwargs)
            return wrapper

        def phased(name, function):
            def wrapper(*args, **kwargs):
                previous, phase[0] = phase[0], name
                try:
                    return function(*args, **kwargs)
                finally:
                    phase[0] = previous
            return wrapper

        monkeypatch.setattr(SPJQuery, "evaluate", counted("evaluate", SPJQuery.evaluate))
        monkeypatch.setattr(Table, "get", counted("get", Table.get))
        monkeypatch.setattr(
            insert_module, "make_atom", counted("make_atom", insert_module.make_atom)
        )
        monkeypatch.setattr(
            plan_module, "translate_insertions",
            phased("outside the sweep", plan_module.translate_insertions),
        )
        monkeypatch.setattr(
            insert_module, "_sweep_side_effects",
            phased("sweep", insert_module._sweep_side_effects),
        )
        return counts

    def test_a_sharing_insert_runs_no_spj_and_reads_each_row_once(self, monkeypatch):
        from repro import InsertOp
        from repro.core.updater import PlanState, XMLViewUpdater
        from repro.workloads.synthetic import SyntheticConfig, build_synthetic

        dataset = build_synthetic(SyntheticConfig(n_c=600, seed=1))
        updater = XMLViewUpdater(dataset.atg, dataset.db)
        store = updater.store
        parent = min(dataset.top_level)
        cnodes = [n for n in store.nodes() if store.type_of(n) == "cnode"]
        (node,) = [n for n in cnodes if store.sem_of(n)[0] == parent]
        below = {c for sub in store.children_of(node) for c in store.children_of(sub)}
        shared = next(
            store.sem_of(n) for n in cnodes if n != node and n not in below
        )
        counts = self._counting(monkeypatch)
        plan = updater.plan(
            InsertOp(f"//cnode[key={parent}]/sub", element="cnode", sem=shared)
        )
        assert plan.state is PlanState.PLANNED
        assert [(op.relation, op.row) for op in plan.delta_r] == [
            ("H", (parent, shared[0]))
        ]
        # H, C and F: one read each, by key, to learn that the edge is
        # new and that C and F exist.
        assert counts["outside the sweep", "get"] == 3
        assert not any(
            counts[phase, name]
            for phase in ("outside the sweep", "sweep")
            for name in ("evaluate", "make_atom")
        )
        plan.abort()

    def test_a_dense_dag_stream_prepares_each_shape_once(self, monkeypatch):
        from repro.bench.workload_gen import WorkloadSpec, generate_ops
        from repro.relview import insert as insert_module
        from repro.service import ViewConfig, open_view
        from repro.workloads import named_workload

        spec = WorkloadSpec(workload="synthetic:300", ops=400, seed=7, pattern="dense_dag")
        ops = list(generate_ops(spec))
        prepared = []

        def recorded(cls, key_of):
            init = cls.__init__

            def wrapper(self, skeleton, *args):
                prepared.append((cls.__name__, id(skeleton), key_of(*args)))
                init(self, skeleton, *args)
            return wrapper

        monkeypatch.setattr(
            insert_module._TemplateProgram, "__init__",
            recorded(insert_module._TemplateProgram, lambda shape: shape),
        )
        monkeypatch.setattr(
            insert_module._Admit, "__init__",
            recorded(insert_module._Admit, lambda state, enforced=(): (state, enforced)),
        )
        atg, db = named_workload(spec.workload)
        service = open_view(atg, db, config=ViewConfig(strict=False))
        for op in ops:
            assert service.apply(op).accepted
        assert len(prepared) == len(set(prepared))
        # Bounded by the view's shape, not by the 400 ops.
        programs = [p for p in prepared if p[0] == "_TemplateProgram"]
        assert 0 < len(programs) <= 2 ** 3
        assert len(prepared) - len(programs) <= 16


_CNF_SCRIPT = """
from repro import InsertOp
from repro.core.updater import XMLViewUpdater
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

dataset = build_synthetic(SyntheticConfig(n_c=120, seed=1))
updater = XMLViewUpdater(dataset.atg, dataset.db)
op = InsertOp(
    f"//cnode[key={min(dataset.top_level)}]/sub", element="cnode", sem=(127, "fresh")
)
plan = updater.plan(op)
stats = plan.outcome.stats
print(stats["sat_vars"], stats["sat_clauses"], [(o.relation, o.row) for o in plan.delta_r])
plan.abort()
"""


def test_new_key_insert_encodes_to_a_small_cnf(capsys):
    """The paper's direct encoding of this insert (one literal per
    distinct atom, one CNF clause per clause, ``len(component)`` fresh
    tokens per component) is small: through a formula tree, a Tseitin
    pass and two spare tokens per component it took 39 variables and 135
    clauses.  In the equality domain it needs no CNF at all, and gives
    the same ΔR."""
    def plan_it():
        exec(_CNF_SCRIPT, {})
        num_vars, num_clauses, delta = capsys.readouterr().out.split(" ", 2)
        return int(num_vars), int(num_clauses), delta

    num_vars, num_clauses, equality_delta = plan_it()
    assert (num_vars, num_clauses) == (0, 0)
    with uncompiled.reference_solve("dpll"):
        num_vars, num_clauses, reference_delta = plan_it()
    assert 0 < num_vars <= 20
    assert 0 < num_clauses <= 40
    assert reference_delta == equality_delta


def test_decode_keeps_a_constant_that_looks_like_a_fresh_token(env):
    """A value the call binds keeps its text, however fresh it looks;
    only an unknown gets a fresh value, checked on its own column."""
    _, db, registry, store, _ = env
    delta_v = delta_for_insert(
        env, "course[cno=CS650]/prereq", "course", ("CS999", "zz_fresh_1")
    )
    for translate in (translate_insertions, uncompiled.translate_insertions):
        plan = translate(registry, store, db, delta_v)
        (row,) = [op.row for op in plan.delta_r if op.relation == "course"]
        assert row == ("CS999", "zz_fresh_1", "zz_fresh_1")
    assert "zz_fresh_1" not in {row[2] for row in db.table("course").rows()}


def _run_under_hash_seeds(script, seeds=("1", "2", "3")):
    import os
    import subprocess
    import sys

    outputs = set()
    for hash_seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()
        outputs.add(done.stdout)
    return outputs


def test_cnf_does_not_depend_on_the_hash_seed():
    """A derivation's atoms were once a set of dataclasses over strings; in
    set order the clause order — and with it the solver's search (a
    seeded WalkSAT run once took 8 ms to 4 s for one op of the e2e
    ``mixed`` pool) — varied with PYTHONHASHSEED.  The CNF's size (0: no
    BOOL unknown) and ΔR must not."""
    (output,) = _run_under_hash_seeds(_CNF_SCRIPT)
    assert output.startswith("0 0 [")


_TWIN_NAMES_SCRIPT = """
import itertools

from repro.relational.database import Database
from repro.relational.schema import AttrType, RelationSchema
from repro.relview.insert import _Classes
from repro.relview.symbolic import Template
from repro.sat.atoms import SymVar
from uncompiled import decode_classes

S = AttrType.STR
db = Database()
db.create_table(RelationSchema("r", [("k1", S), ("k2", S), ("x", S)], ["k1", "k2"]))
templates = [
    Template("r", key, (*key, SymVar("r", key, "x", S)), True)
    for key in (("a_b", "c"), ("a", "b_c"))
]
concrete = decode_classes(db, _Classes(), templates, itertools.count(1))
print(sorted((var.key, value) for var, value in concrete.items()))
"""


def test_fresh_values_do_not_depend_on_the_hash_seed():
    """Keys ``("a_b", "c")`` and ``("a", "b_c")`` both name their unknown
    ``r.a_b_c.x``.  Unknowns sorted by name alone kept set order between
    the two, so hash seeds 3 and 6 swapped ``zz_fresh_1`` and
    ``zz_fresh_2`` against seed 1; :attr:`SymVar.order` breaks the tie
    by the key."""
    (output,) = _run_under_hash_seeds(_TWIN_NAMES_SCRIPT, seeds=("1", "3", "6"))
    assert output.strip() == (
        "[(('a', 'b_c'), 'zz_fresh_1'), (('a_b', 'c'), 'zz_fresh_2')]"
    )
