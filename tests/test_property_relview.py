"""Property-based tests for the relational view-update layer and the
maintenance algorithms under randomized update sequences."""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atg.publisher import publish_store
from repro.baselines.recompute import recompute_structures
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.core.translate import xdelete
from repro.core.updater import PlanState, SideEffectPolicy, XMLViewUpdater
from repro.errors import UpdateRejectedError
from repro.relview import insert as insert_module
from repro.relview.delete import expand_view_deletions, translate_deletions
from repro.sat.dpll import dpll_solve
from repro.sat.walksat import walksat_solve
from repro.views.registry import build_registry
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath
from repro.ops import DeleteOp, InsertOp
import uncompiled


@st.composite
def registrar_instances(draw):
    """A random registrar database: up to 7 courses, random prereqs
    (acyclic by index), random enrollments."""
    n_courses = draw(st.integers(min_value=2, max_value=7))
    prereq_edges = set()
    for child in range(1, n_courses):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                max_size=2,
                unique=True,
            )
        )
        prereq_edges.update((p, child) for p in parents)
    n_students = draw(st.integers(min_value=0, max_value=3))
    enrollments = set()
    for s in range(n_students):
        courses = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_courses - 1),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        enrollments.update((s, c) for c in courses)
    return n_courses, sorted(prereq_edges), sorted(enrollments)


def build_instance(spec):
    n_courses, prereq_edges, enrollments = spec
    atg, db = build_registrar(populate=False)
    for i in range(n_courses):
        db.insert("course", (f"C{i:02d}", f"t{i}", "CS"))
    for p, c in prereq_edges:
        db.insert("prereq", (f"C{p:02d}", f"C{c:02d}"))
    students = {s for s, _ in enrollments}
    for s in students:
        db.insert("student", (f"S{s:02d}", f"n{s}"))
    for s, c in enrollments:
        db.insert("enroll", (f"S{s:02d}", f"C{c:02d}"))
    return atg, db


@given(registrar_instances(), st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delete_translation_loses_exactly_delta_v(spec, edge_index):
    """For any prereq edge deletion: after ΔR, re-evaluating every view
    loses exactly the doomed rows and gains nothing."""
    atg, db = build_instance(spec)
    _, prereq_edges, _ = spec
    if not prereq_edges:
        return
    p, c = prereq_edges[edge_index % len(prereq_edges)]
    registry = build_registry(atg, db)
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    evaluator = DagXPathEvaluator(store, topo, reach)
    path = parse_xpath(f"//course[cno=C{p:02d}]/prereq/course[cno=C{c:02d}]")
    result = evaluator.evaluate(path, mode="delete")
    if not result.targets:
        return
    delta_v = xdelete(store, result)
    rows = expand_view_deletions(registry, store, db, delta_v)
    doomed = {(v.name, r) for v, r in rows}
    before = {v.name: set(v.evaluate(db).rows) for v in registry.views()}
    try:
        plan = translate_deletions(registry, db, rows)
    except UpdateRejectedError:
        return  # legitimately untranslatable instance
    db.apply(plan.delta_r)
    after = {v.name: set(v.evaluate(db).rows) for v in registry.views()}
    lost = {
        (name, r) for name in before for r in before[name] - after[name]
    }
    gained = {
        (name, r) for name in before for r in after[name] - before[name]
    }
    assert not gained
    assert lost == doomed


@given(
    registrar_instances(),
    st.lists(
        st.tuples(
            st.sampled_from(["insert_edge", "delete_edge", "insert_new"]),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_maintenance_equals_recompute_after_random_updates(spec, ops):
    """After any accepted update sequence, incrementally maintained M/L
    equal batch recomputation and the view equals a republish."""
    atg, db = build_instance(spec)
    n_courses = spec[0]
    updater = XMLViewUpdater(
        atg, db,
        side_effect_policy=SideEffectPolicy.PROPAGATE,
        strict=False,
    )
    new_counter = [0]
    for kind, a, b in ops:
        ca = f"C{a % n_courses:02d}"
        cb = f"C{b % n_courses:02d}"
        if kind == "insert_edge":
            row = db.table("course").get((cb,))
            if row is None:
                continue
            updater.apply_op(InsertOp(
                f"//course[cno={ca}]/prereq", "course", (cb, row[1])
            ))
        elif kind == "delete_edge":
            updater.apply_op(DeleteOp(f"//course[cno={ca}]/prereq/course[cno={cb}]"))
        else:
            new_counter[0] += 1
            updater.apply_op(InsertOp(
                f"//course[cno={ca}]/prereq",
                "course",
                (f"N{new_counter[0]:02d}", "new"),
            ))
    fresh = recompute_structures(updater.store)
    assert updater.reach.equals(fresh.reach)
    for node in updater.store.nodes():
        for child in updater.store.children_of(node):
            assert updater.topo.position(child) < updater.topo.position(node)
    assert updater.check_consistency() == []


def _solved_cnfs(updater, ops):
    """Plan each op on the reference encoding; return (cnf, DPLL model)
    for every solve it ran."""
    solves = []

    def spy(cnf):
        model = dpll_solve(cnf)
        solves.append((cnf, model))
        return model

    with mock.patch.object(uncompiled, "dpll_solve", spy), \
            uncompiled.reference_solve():
        for op in ops:
            plan = updater.plan(op)
            if plan.state is PlanState.PLANNED:
                plan.abort()
    return solves


def _check_solves(solves):
    for cnf, model in solves:
        if model is not None:
            assert all(
                any(model[abs(lit)] == (lit > 0) for lit in clause)
                for clause in cnf.clauses
            )
        else:
            # WalkSAT answers only with a model: where DPLL proves UNSAT,
            # the WalkSAT-then-DPLL ladder DPLL replaced rejected too.
            assert walksat_solve(cnf, max_flips=2_000, max_restarts=3) is None


def _registrar_ops(n_courses, inserts):
    ops = []
    for index, (parent, kind, child) in enumerate(inserts):
        path = f"//course[cno=C{parent % n_courses:02d}]/prereq"
        cno = f"C{child % n_courses:02d}"
        if kind == "new":
            ops.append(InsertOp(path, "course", (f"N{index:02d}", "new")))
        elif kind == "existing":
            ops.append(InsertOp(path, "course", (cno, f"t{child % n_courses}")))
        elif kind == "wrong_title":
            ops.append(InsertOp(path, "course", (cno, "wrong")))
        else:  # a new course at the root: the view's dept = 'CS' binds it
            ops.append(InsertOp(".", "course", (f"R{index:02d}", "root")))
    return ops


_REGISTRAR_INSERTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["new", "existing", "wrong_title", "root"]),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=4,
)


def _outcomes(updater, ops):
    """Accepted ops' ΔR (committed, so later ops see them) or a rejection."""
    outcomes = []
    for op in ops:
        plan = updater.plan(op)
        if plan.state is PlanState.PLANNED:
            outcomes.append([(o.relation, o.row) for o in plan.delta_r])
            plan.commit()
        else:
            outcomes.append(None)
    return outcomes


def _minimal_model_holds(units, side_effects, classes):
    """Every unit holds and every side effect fails in the minimal model
    (each unbound class its own fresh value)."""

    def value(var):
        root = classes.find(var)
        return classes.value.get(root, ("fresh", root))

    def holds(atom):
        if isinstance(atom, insert_module.AtomVC):
            return value(atom.var) == atom.const
        return value(atom.a) == value(atom.b)

    return all(map(holds, units)) and not any(
        all(map(holds, derivation.atoms)) for derivation in side_effects
    )


def _assert_agrees_with_reference(build, ops):
    """The equality-domain solve accepts and rejects what the reference
    does, with the same ΔR, and its model satisfies every clause."""
    solved = []
    solve = insert_module._solve

    def checked(units, side_effects, plan):
        solved.append(None)  # a rejection raises before the model exists
        classes = solve(units, side_effects, plan)
        assert classes is not None  # no BOOL unknown: no residue to fail
        assert _minimal_model_holds(units, side_effects, classes)
        return classes

    with mock.patch.object(insert_module, "_solve", checked):
        got = _outcomes(XMLViewUpdater(*build(), strict=False), ops)
    with uncompiled.reference_solve():
        want = _outcomes(XMLViewUpdater(*build(), strict=False), ops)
    assert got == want
    return len(solved)


@given(registrar_instances(), _REGISTRAR_INSERTS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_equality_solve_agrees_with_reference_on_registrar_insertions(
    spec, inserts
):
    _assert_agrees_with_reference(
        lambda: build_instance(spec), _registrar_ops(spec[0], inserts)
    )


@given(
    st.integers(min_value=30, max_value=80),
    st.integers(min_value=0, max_value=50),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_equality_solve_agrees_with_reference_on_synthetic_insertions(
    n_c, seed, parents
):
    config = SyntheticConfig(n_c=n_c, seed=seed)
    dataset = build_synthetic(config)
    store = XMLViewUpdater(dataset.atg, dataset.db, strict=False).store
    keys = sorted(
        store.sem_of(node)[0] for node in store.nodes()
        if store.type_of(node) == "cnode"
    )
    ops = [
        InsertOp(
            f"//cnode[key={keys[parent % len(keys)]}]/sub", "cnode",
            (n_c + 1 + i, "new"),
        )
        for i, parent in enumerate(parents)
    ]

    def build():
        fresh = build_synthetic(config)
        return fresh.atg, fresh.db

    solved = _assert_agrees_with_reference(build, ops)
    assert solved, "new-key insertions reach the solve"


@given(registrar_instances(), _REGISTRAR_INSERTS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dpll_models_satisfy_registrar_insertions(spec, inserts):
    """The reference's CNF (the paper's encoding): every DPLL model
    satisfies it, and where DPLL proves it UNSAT WalkSAT finds none."""
    atg, db = build_instance(spec)
    updater = XMLViewUpdater(atg, db, strict=False)
    _check_solves(_solved_cnfs(updater, _registrar_ops(spec[0], inserts)))


@given(
    st.integers(min_value=30, max_value=80),
    st.integers(min_value=0, max_value=50),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dpll_models_satisfy_synthetic_insertions(n_c, seed, parents):
    """New-key inserts under ``//cnode[key=k]/sub``, the e2e write shape."""
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    store = updater.store
    keys = sorted(
        store.sem_of(node)[0] for node in store.nodes()
        if store.type_of(node) == "cnode"
    )
    ops = [
        InsertOp(
            f"//cnode[key={keys[parent % len(keys)]}]/sub", "cnode",
            (n_c + 1 + i, "new"),
        )
        for i, parent in enumerate(parents)
    ]
    solves = _solved_cnfs(updater, ops)
    assert solves, "new-key insertions reach the reference solver"
    _check_solves(solves)
