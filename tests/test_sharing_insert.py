"""An insert that shares a published subtree costs what it adds.

The plan never walks ``ST(A, t)``: the cycle check asks whether an
attach point lies in ``closure(subtree.frontier)``, and the side-effect
walk stops at a ``//`` level whose region is ``L``.  Both are checked
against the walks they replaced (``tests/uncompiled.py``) on random
stores, and the plan's store traffic is pinned independent of |ST| and
of the target's ancestor count; a hot target's parents are read once,
by its seeded step, not again by the side-effect walk.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uncompiled
from repro.core.dag_eval import DagXPathEvaluator
from repro.core.plan import UpdatePlan
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import UpdateRejectedError
from repro.ops import InsertOp
from repro.relational.database import Database
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import synthetic_atg, synthetic_schemas
from repro.xpath.parser import parse_xpath

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def registrar_stores(draw):
    """A random registrar database: up to 7 courses, some after the
    first outside the CS department (published only below a prereq), random prereqs
    (acyclic by index) and enrollments that share students."""
    n = draw(st.integers(min_value=2, max_value=7))
    depts = ["CS", *draw(st.lists(st.sampled_from(["CS", "CS", "MA"]),
                                  min_size=n - 1, max_size=n - 1))]
    prereqs = set()
    for child in range(1, n):
        parents = draw(st.lists(st.integers(0, child - 1),
                                max_size=3, unique=True))
        prereqs.update((p, child) for p in parents)
    enroll = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, n - 1)),
        max_size=6, unique=True,
    ))
    return n, depts, sorted(prereqs), sorted(enroll)


def build_store(spec):
    n, depts, prereqs, enroll = spec
    atg, db = build_registrar(populate=False)
    for i in range(n):
        db.insert("course", (f"K{i}", f"t{i}", depts[i]))
    for p, c in prereqs:
        db.insert("prereq", (f"K{p}", f"K{c}"))
    for s in sorted({s for s, _ in enroll}):
        db.insert("student", (f"S{s}", f"n{s}"))
    for s, c in enroll:
        db.insert("enroll", (f"S{s}", f"K{c}"))
    return atg, db


# ---------------------------------------------------------------------------
# The cycle check against "attach ∈ the whole ST"
# ---------------------------------------------------------------------------


@_SETTINGS
@given(
    registrar_stores(),
    st.data(),
    st.booleans(),
)
def test_cycle_check_matches_the_full_subtree_walk(spec, data, at_rest):
    atg, db = build_store(spec)
    n = spec[0]
    # A new course "KN" with prerequisites among the existing ones: its
    # ST is new and shares their published subtrees.
    for c in data.draw(st.lists(st.integers(0, n - 1), max_size=3,
                                unique=True)):
        db.insert("prereq", ("KN", f"K{c}"))
    updater = XMLViewUpdater(atg, db, strict=False)
    store = updater.store
    prereq_nodes = sorted(
        node for node in store.nodes() if store.type_of(node) == "prereq"
    )
    attach = data.draw(st.lists(st.sampled_from(prereq_nodes), min_size=1,
                                max_size=4, unique=True))
    cno = data.draw(st.sampled_from([f"K{i}" for i in range(n)] + ["KN"]))
    title = "tN" if cno == "KN" else f"t{cno[1:]}"
    op = InsertOp("//course", "course", (cno, title))

    plan = UpdatePlan(op, updater)
    plan._evaluator = DagXPathEvaluator(
        store, updater.topo, updater.reach if at_rest else None
    )
    try:
        subtree = plan._publish(op, attach)
        reason = None
    except UpdateRejectedError as exc:
        subtree = plan._inserts[-1][0]
        reason = str(exc)
    if subtree.new_nodes:
        walked, _ = uncompiled.subtree_nodes_from(store, subtree)
    else:
        walked, _ = uncompiled.subtree_nodes(store, subtree.root)
    cyclic = [node for node in attach if node in walked]
    if cyclic:
        assert reason is not None and f"{cyclic}" in reason
    else:
        assert reason is None
    plan._rollback()
    assert updater.check_consistency() == []


# ---------------------------------------------------------------------------
# The side-effect walk against the one that climbs every ancestor
# ---------------------------------------------------------------------------

_PATHS = (
    "//course",  # //a
    "//student",
    "//course[cno={k}]/prereq",  # //a[k=v]/b
    "//course[cno={k}]/takenBy/student",
    ".[course/cno={k}]//course/prereq",  # a filter before the //
    ".[course]//student",
    "//course//student",  # //a//b
    "//course[cno={k}]//course",
    "course//course",  # a // that is not at the root
    "course[cno={k}]//course",
    "course[cno={k}]//student",
    "course/prereq//course/takenBy",
)


@_SETTINGS
@given(
    registrar_stores(),
    st.sampled_from(_PATHS),
    st.integers(0, 6),
    st.sampled_from(["insert", "delete"]),
    st.booleans(),
)
def test_side_effects_match_the_unshortened_walk(spec, path, k, mode, at_rest):
    atg, db = build_store(spec)
    updater = XMLViewUpdater(atg, db)
    evaluator = DagXPathEvaluator(
        updater.store, updater.topo, updater.reach if at_rest else None
    )
    parsed = parse_xpath(path.format(k=f"K{k % spec[0]}"))
    result = evaluator.evaluate(parsed, mode=mode)
    if not result.targets:
        return
    assert result.side_effects == uncompiled.detect_side_effects(
        evaluator, result, mode
    )


# ---------------------------------------------------------------------------
# Work bound: a sharing insert's plan is independent of |ST| and depth
# ---------------------------------------------------------------------------


def _synthetic_chain_view(ancestors: int, st_cnodes: int):
    """A synthetic view: the target cnode 100 hangs under a chain of
    ``ancestors`` cnodes (the top one a root child); the shared ``ST``
    is a chain of ``st_cnodes`` cnodes from cnode 200, itself under a
    second root child."""
    db = Database("chain")
    for schema in synthetic_schemas():
        db.create_table(schema)

    def chain(keys: list[int]) -> None:
        filler = (0,) * 10
        for i, key in enumerate(keys):
            db.insert("C", (key, 1, 2, 3, f"v{key}", int(i == 0), *filler))
            db.insert("F", (key, 1, 2, 3, f"w{key}", 0, *filler))
        for parent, child in zip(keys, keys[1:]):
            db.insert("H", (parent, child))

    chain([*range(1, 1 + ancestors), 100])
    chain([2000, *range(200, 200 + st_cnodes)])
    return synthetic_atg(), db


def _plan_store_calls(ancestors: int, st_cnodes: int) -> int:
    """``children_of`` / ``parents_of`` calls in ``plan()`` of the
    sharing insert ``//cnode[key=100]/sub`` <- cnode 200."""
    atg, db = _synthetic_chain_view(ancestors, st_cnodes)
    updater = XMLViewUpdater(
        atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
    )
    store = updater.store
    st_root = store.lookup("cnode", (200, "v200"))
    # cnode, key, val and sub per cnode of ST.
    assert len({st_root} | store.descendants_of([st_root])) == 4 * st_cnodes
    calls = [0]
    for name in ("children_of", "parents_of"):
        original = getattr(store, name)

        def counted(node, _original=original):
            calls[0] += 1
            return _original(node)

        setattr(store, name, counted)
    plan = updater.plan(InsertOp("//cnode[key=100]/sub", "cnode",
                                 (200, "v200")))
    assert plan.accepted
    plan.abort()
    return calls[0]


def test_sharing_insert_plan_is_independent_of_subtree_and_depth():
    base = _plan_store_calls(ancestors=2, st_cnodes=3)
    assert _plan_store_calls(ancestors=2, st_cnodes=12) == base  # 4x |ST|
    assert _plan_store_calls(ancestors=8, st_cnodes=3) == base  # 4x deeper


def _parents_read(fan_in: int) -> int:
    """Parents iterated in ``plan()`` of the sharing insert
    ``//cnode[key=100]/sub`` <- cnode 200, where cnode 100 hangs under
    ``fan_in`` root-child cnodes (a hot node of a dense DAG)."""
    db = Database("fan-in")
    for schema in synthetic_schemas():
        db.create_table(schema)
    filler = (0,) * 10
    for key in [*range(1, fan_in + 1), 100, 200]:
        db.insert("C", (key, 1, 2, 3, f"v{key}", int(key != 100), *filler))
        db.insert("F", (key, 1, 2, 3, f"w{key}", 0, *filler))
        if key <= fan_in:
            db.insert("H", (key, 100))
    updater = XMLViewUpdater(synthetic_atg(), db)
    store, read = updater.store, [0]

    class Counted(set):
        def __iter__(self):
            for node in set.__iter__(self):
                read[0] += 1
                yield node

    original = store.parents_of
    store.parents_of = lambda node: Counted(original(node))
    hot = store.lookup("cnode", (100, "v100"))
    assert len(original(hot)) == fan_in
    plan = updater.plan(InsertOp("//cnode[key=100]/sub", "cnode", (200, "v200")))
    assert plan.accepted and not plan.side_effects
    plan.abort()
    return read[0]


def test_side_effect_walk_does_not_reread_a_hot_nodes_parents():
    """The seeded step reads the hot node's parents once (to order its
    context); the side-effect walk does not read them again, since they
    all lie in ``L``, the leading ``//``'s region, where it stops."""
    assert _parents_read(fan_in=8) - _parents_read(fan_in=2) == 6


def test_stats_count_what_the_insert_adds():
    atg, db = build_registrar()
    updater = XMLViewUpdater(
        atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE
    )
    shared = updater.apply_op(InsertOp(
        "course[cno=CS650]/prereq", "course", ("CS240", "Data Structures")
    ))
    assert (shared.stats["subtree_nodes"], shared.stats["subtree_edges"]) == (0, 0)
    # A new course: course, cno, title, prereq and takenBy are interned,
    # and the four edges below the course are stored.
    new = updater.apply_op(InsertOp(
        "course[cno=CS650]/prereq", "course", ("CS700", "Theory")
    ))
    assert (new.stats["subtree_nodes"], new.stats["subtree_edges"]) == (5, 4)
    assert updater.check_consistency() == []
