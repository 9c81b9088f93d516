"""Algorithm insert as one prepared program per insertion shape.

A shape is each target's view and which of its occurrences exist; the
program is worked out once, over positions, and a call only binds its
values, checks that they compare as the prepared ones did, probes what
its key reads do not answer, and mints.  The product is checked here
against the per-call translator (``uncompiled.translate_insertions``)
over generated new-key shapes — the same ``InsertionPlan`` or the same
rejection — and its work is bounded: one preparation per shape, no
union-find after it.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.core import plan as plan_module
from repro.core.updater import PlanState, XMLViewUpdater
from repro.dtd.parser import parse_dtd
from repro.ops import InsertOp
from repro.relational.conditions import And, Col, Eq
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.relview import insert as insert_module
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

from test_compiled_plans import _checked_translate

_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _apply_checked(updater, op):
    """Plan ``op`` with every translation checked against the reference
    and commit it; ``None`` when planned, else the rejection."""
    with mock.patch.object(plan_module, "translate_insertions", _checked_translate):
        plan = updater.plan(op)
    if plan.state is PlanState.PLANNED:
        plan.commit()
        return None
    return plan.outcome.reason


# ---------------------------------------------------------------------------
# The synthetic view: new cnodes under the root and under a sub
# ---------------------------------------------------------------------------

_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["root", "sub", "sub", "two subs", "dangling H", "C without F",
             "raise ceiling"]
        ),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["fresh", "v1", "w2"]),
    ),
    min_size=1,
    max_size=6,
)


@_SETTINGS
@given(
    n_c=st.integers(min_value=30, max_value=60),
    seed=st.integers(min_value=0, max_value=50),
    steps=_STEPS,
)
def test_new_key_insertions_agree_with_the_per_call_translator(n_c, seed, steps):
    """New ``cnode`` keys under the root (``c6 = 1`` fills the class of
    ``c6``), under a ``sub`` and under two at once (two targets whose
    ``C`` and ``F`` templates merge), on a database that may hold a dangling
    ``H(h, k)`` row for the new key (its view gains an edge: rejected),
    a ``C`` row for it without its ``F`` row (the new ``F`` row takes
    the stored join columns), or a column ceiling raised between two
    calls of one shape (the next fresh INT values move)."""
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    db = updater.db
    store = updater.store
    keys = sorted(
        store.sem_of(node)[0] for node in store.nodes()
        if store.type_of(node) == "cnode"
    )
    c_width = len(db.schema("C").attributes)
    for index, (kind, pick, text) in enumerate(steps):
        new = 10 * n_c + index
        parent = keys[pick % len(keys)]
        if kind == "raise ceiling":
            # A C row with no F partner joins into no view row.
            db.insert("C", (new, *[pick + at for at in range(2, 5)], text,
                            *[pick * at for at in range(6, c_width + 1)]))
            continue
        if kind == "dangling H":
            db.insert("H", (keys[(pick // 7) % len(keys)], new))
        elif kind == "C without F":
            db.insert("C", (new, 1, 2, 3, text, 0, *range(7, c_width + 1)))
        other = keys[(pick // 3) % len(keys)]
        path = {
            "root": ".",
            "two subs": f"//cnode[key={parent} or key={other}]/sub",
        }.get(kind, f"//cnode[key={parent}]/sub")
        _apply_checked(updater, InsertOp(path, "cnode", (new, text)))
    assert updater.check_consistency() == []


def test_a_dangling_h_row_rejects_with_the_per_call_message():
    """A clean new key first, so the shape has its program: the second
    call binds it, and only the program's probe of ``H`` by the new key
    finds the dangling row."""
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=3))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    parent, other = sorted(dataset.top_level)[:2]
    assert _apply_checked(
        updater, InsertOp(f"//cnode[key={parent}]/sub", "cnode", (998, "clean"))
    ) is None
    updater.db.insert("H", (other, 999))
    reason = _apply_checked(
        updater, InsertOp(f"//cnode[key={parent}]/sub", "cnode", (999, "fresh"))
    )
    assert reason.startswith(
        "insertion causes a side effect on view edge_sub_cnode: the targets "
        f"entail row ({other}, 999, 'fresh', "
    )


def test_two_calls_of_one_shape_bind_their_own_values():
    """The second call of a shape runs the first call's program: its key,
    value and fresh values are its own, and a ceiling raised between the
    calls moves its fresh INT values."""
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=3))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    parent = min(dataset.top_level)
    first = InsertOp(f"//cnode[key={parent}]/sub", "cnode", (901, "one"))
    second = InsertOp(f"//cnode[key={parent}]/sub", "cnode", (902, "two"))
    assert _apply_checked(updater, first) is None
    updater.db.insert("C", (903, *[10**9] * 3, "x", 0, *[10**9] * 10))
    plan = updater.plan(second)
    rows = {op.relation: op.row for op in plan.delta_r}
    assert rows["H"] == (parent, 902) and rows["C"][:1] == (902,)
    assert rows["C"][4] == "two" and min(rows["C"][1:4]) > 10**9
    plan.abort()
    assert _apply_checked(updater, second) is None


# ---------------------------------------------------------------------------
# The registrar: prereq's composite key, STR fresh values
# ---------------------------------------------------------------------------


@_SETTINGS
@given(st.lists(
    st.tuples(
        st.sampled_from(["CS650", "CS500", "CS320", "CS240", "//"]),
        st.sampled_from(["new", "existing", "retitled"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=5,
))
def test_registrar_insertions_agree_with_the_per_call_translator(inserts):
    """``prereq(cno1, cno2)``'s key is two visible values; a new course's
    ``dept`` is a fresh STR value checked on its column.  The same shape
    recurs with other values, under one course or, with ``//prereq``,
    under every course at once."""
    atg, db = build_registrar()
    updater = XMLViewUpdater(atg, db, strict=False)
    existing = [("CS650", "Advanced Databases"), ("CS320", "Databases"),
                ("CS240", "Data Structures"), ("CS500", "Operating Systems")]
    for index, (parent, kind, pick) in enumerate(inserts):
        path = "//prereq" if parent == "//" else f"course[cno={parent}]/prereq"
        sem = {
            "new": (f"N{index:02d}", f"title {pick}"),
            "existing": existing[pick],
            "retitled": (existing[pick][0], "another title"),
        }[kind]
        _apply_checked(updater, InsertOp(path, "course", sem))
    assert updater.check_consistency() == []


def test_a_call_that_compares_otherwise_is_prepared_again():
    """CS240 is shared under CS500 with its stored title, then under
    CS650 with another: the same shape, but the stored row disagrees
    with the second call's value, so the first call's program does not
    apply and the second call is rejected as the per-call translator
    rejects it."""
    atg, db = build_registrar()
    updater = XMLViewUpdater(atg, db, strict=False)
    shared = InsertOp("course[cno=CS500]/prereq", "course", ("CS240", "Data Structures"))
    assert _apply_checked(updater, shared) is None
    retitled = InsertOp("course[cno=CS650]/prereq", "course", ("CS240", "another title"))
    assert _apply_checked(updater, retitled) == (
        "target edge of edge_prereq_course requires course('CS240',) to hold "
        "'another title' but it holds 'Data Structures'"
    )


# ---------------------------------------------------------------------------
# FLOAT and STR fresh values
# ---------------------------------------------------------------------------


def _items(held: list[tuple]) -> tuple[ATG, Database]:
    """``db`` lists every ``item(k, w FLOAT, s STR)`` by ``k``: a new item
    mints ``w`` and ``s``, skipping the values ``held`` puts in their
    columns."""
    dtd = parse_dtd(
        "<!ELEMENT db (item*)>\n<!ELEMENT item (k)>\n<!ELEMENT k (#PCDATA)>\n"
    )
    query = SPJQuery("Qdb_item", [("item", "i")], [("k", Col("i", "k"))], And())
    rules = [QueryRule("db", "item", query), ProjectionRule("item", "k", ("k",))]
    db = Database("items")
    db.create_table(RelationSchema(
        "item", [("k", AttrType.STR), ("w", AttrType.FLOAT), ("s", AttrType.STR)], ["k"]
    ))
    db.insert_all("item", held)
    return ATG(dtd, {"db": (), "item": ("k",), "k": ("k",)}, rules), db


@_SETTINGS
@given(
    held=st.lists(st.integers(min_value=1, max_value=8), max_size=4, unique=True),
    inserts=st.integers(min_value=1, max_value=4),
)
def test_float_and_str_fresh_values_agree_with_the_per_call_translator(held, inserts):
    rows = [(f"h{seq}", 1e12 + seq, f"zz_fresh_{seq + 1}") for seq in held]
    updater = XMLViewUpdater(*_items(rows), strict=False)
    for index in range(inserts):
        assert _apply_checked(updater, InsertOp(".", "item", (f"n{index}",))) is None
    minted = [row for row in updater.db.table("item").rows() if row[0].startswith("n")]
    assert len({row[1] for row in minted}) == inserts
    assert not {row[1] for row in minted} & {row[1] for row in rows}
    assert not {row[2] for row in minted} & {row[2] for row in rows}


def _pairs() -> tuple[ATG, Database]:
    """``items`` lists every ``item`` (a row of ``r(k, z)`` joined with
    ``u(k, a)`` on ``k``) and ``pairs`` every ``pair``: an ``s(k, b, c)`` row whose
    ``k`` and ``c`` match an ``r`` row's ``k`` and ``z``.  ``s`` holds
    ``("n1", "x", 5)``, which matches no ``r`` row."""
    dtd = parse_dtd(
        "<!ELEMENT db (items, pairs)>\n<!ELEMENT items (item*)>\n"
        "<!ELEMENT pairs (pair*)>\n<!ELEMENT item (k)>\n<!ELEMENT pair (b)>\n"
        "<!ELEMENT k (#PCDATA)>\n<!ELEMENT b (#PCDATA)>\n"
    )
    items = SPJQuery(
        "Qdb_item", [("r", "r"), ("u", "u")], [("k", Col("r", "k"))],
        Eq(Col("r", "k"), Col("u", "k")),
    )
    pairs = SPJQuery(
        "Qdb_pair", [("r", "r"), ("s", "s")], [("b", Col("s", "b"))],
        And(Eq(Col("r", "k"), Col("s", "k")), Eq(Col("r", "z"), Col("s", "c"))),
    )
    rules = [
        ProjectionRule("db", "items", ()), ProjectionRule("db", "pairs", ()),
        QueryRule("items", "item", items), ProjectionRule("item", "k", ("k",)),
        QueryRule("pairs", "pair", pairs), ProjectionRule("pair", "b", ("b",)),
    ]
    S, I = AttrType.STR, AttrType.INT
    db = Database("pairs")
    db.create_table(RelationSchema("r", [("k", S), ("z", I)], ["k"]))
    db.create_table(RelationSchema("u", [("k", S), ("a", I)], ["k"]))
    db.create_table(RelationSchema("s", [("k", S), ("b", S), ("c", I)], ["k"]))
    db.insert_all("s", [("n1", "x", 5)])
    signatures = {
        "db": (), "items": (), "pairs": (),
        "item": ("k",), "k": ("k",), "pair": ("b",), "b": ("b",),
    }
    return ATG(dtd, signatures, rules), db


def test_a_probe_that_finds_a_row_answers_its_own_call_only():
    """Item ``n1`` meets ``s("n1", ...)`` in the sweep: a pair derivation
    under ``z = 5``, a side effect its fresh ``z`` avoids.  Item ``n2``
    has the same shape and meets nothing, so its plan cannot be the one
    prepared for ``n1``.  Both mint ``r.z`` before ``u.a`` (by name)."""
    updater = XMLViewUpdater(*_pairs(), strict=False)
    plans = []
    original = insert_module.translate_insertions

    def recorded(*args, **kwargs):
        plans.append(original(*args, **kwargs))
        return plans[-1]

    for key in ("n1", "n2"):
        assert _apply_checked(updater, InsertOp("items", "item", (key,))) is None
        if key == "n1":  # its probe found s("n1", ...): nothing is cached
            assert not any(
                skeleton.insertions for skeleton in updater.registry.skeletons.values()
            )
        with mock.patch.object(plan_module, "translate_insertions", recorded):
            plan = updater.plan(InsertOp("items", "item", (key + "x",)))
        plan.abort()
    assert [plan.derivations_checked for plan in plans] == [1, 1]
    rows = {(op.relation, op.row[0]): op.row for op in plans[0].delta_r}
    assert rows["r", "n1x"][1] < rows["u", "n1x"][1]
    assert updater.check_consistency() == []


# ---------------------------------------------------------------------------
# Work bounds
# ---------------------------------------------------------------------------


def test_a_new_key_stream_prepares_its_shape_once_and_solves_nothing_after(
    monkeypatch,
):
    """Forty new keys under forty parents: one shape, one preparation,
    and no union-find (the equality classes) after the first call."""
    from repro.bench.workload_gen import WorkloadSpec, generate_ops
    from repro.service import ViewConfig, open_view
    from repro.workloads import named_workload

    spec = WorkloadSpec(workload="synthetic:200", ops=40, seed=5, pattern="deep_chain")
    ops = list(generate_ops(spec))
    atg, db = named_workload(spec.workload)
    service = open_view(atg, db, config=ViewConfig(strict=False))
    prepared, found, index = [], [], [0]
    prepare = insert_module._prepare
    find = insert_module._UnionFind.find
    monkeypatch.setattr(
        insert_module, "_prepare",
        lambda *args: prepared.append(index[0]) or prepare(*args),
    )
    monkeypatch.setattr(
        insert_module._UnionFind, "find",
        lambda self, item: found.append(index[0]) or find(self, item),
    )
    for index[0], op in enumerate(ops):
        outcome = service.apply(op)
        assert outcome.accepted and len(outcome.delta_r) == 3
    assert prepared == [0]
    assert found and set(found) == {0}
    assert service.check_consistency() == []


def test_programs_are_cached_per_shape_on_the_first_target_s_skeleton():
    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=2))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    parents = sorted(dataset.top_level)[:3]
    for index, parent in enumerate(parents):
        plan = updater.plan(
            InsertOp(f"//cnode[key={parent}]/sub", "cnode", (700 + index, "v"))
        )
        assert plan.state is PlanState.PLANNED
        plan.commit()
    registry = updater.registry
    skeleton = insert_module._skeleton(
        registry, updater.db, registry.view("sub", "cnode")
    )
    assert list(skeleton.insertions) == [((-1, -1, -1),)]


def test_a_call_whose_values_are_equal_otherwise_replaces_its_shape_s_program(
    monkeypatch,
):
    """A new course whose title equals its number puts equal values
    where the last call's differed: the same shape, prepared again, and
    the new program replaces the old one."""
    atg, db = build_registrar()
    updater = XMLViewUpdater(atg, db, strict=False)
    prepared = []
    prepare = insert_module._prepare
    monkeypatch.setattr(
        insert_module, "_prepare", lambda *args: prepared.append(1) or prepare(*args)
    )
    skeleton = insert_module._skeleton(
        updater.registry, updater.db, updater.registry.view("prereq", "course")
    )
    programs = []
    for sem in [("N01", "N01"), ("N02", "t2"), ("N03", "t3"), ("N04", "N04")]:
        assert _apply_checked(
            updater, InsertOp("course[cno=CS650]/prereq", "course", sem)
        ) is None
        (program,) = skeleton.insertions.values()
        programs.append(program)
    assert len(prepared) == 3
    assert programs[0] is not programs[1] is programs[2] is not programs[3]
    assert updater.check_consistency() == []


def test_a_rejected_call_caches_no_program():
    atg, db = build_registrar()
    updater = XMLViewUpdater(atg, db, strict=False)
    op = InsertOp("course[cno=CS650]/prereq", "course", ("CS320", "another title"))
    for _ in range(2):
        plan = updater.plan(op)
        assert plan.state is PlanState.REJECTED
        assert "requires course('CS320',)" in plan.outcome.reason
    assert not any(
        skeleton.insertions for skeleton in updater.registry.skeletons.values()
    )


def test_a_preparation_s_comparisons_grow_linearly_with_its_targets(monkeypatch):
    """Fig. 11(g)'s insertion: one shared ``cnode`` under T parents at
    once.  The templates by key and the target rows are looked up by
    value, so a preparation compares (and its program re-checks) a
    number of pairs linear in T, not one per pair of targets."""
    dataset = build_synthetic(SyntheticConfig(n_c=300, seed=4))
    updater = XMLViewUpdater(dataset.atg, dataset.db, strict=False)
    store = updater.store
    parents = sorted({
        store.sem_of(node)[0] for node in store.nodes()
        if store.type_of(node) == "cnode"
        and any(store.type_of(child) == "sub" for child in store.children_of(node))
    })[:32]
    below = {
        store.sem_of(child)[0] for node in store.nodes()
        if store.type_of(node) == "cnode" and store.sem_of(node)[0] in parents
        for sub in store.children_of(node) for child in store.children_of(sub)
    }
    shared = next(
        store.sem_of(node) for node in sorted(store.nodes())
        if store.type_of(node) == "cnode"
        and store.sem_of(node)[0] not in below | set(parents)
    )
    compared = []
    record = insert_module._Tape.compared
    monkeypatch.setattr(
        insert_module._Tape, "compared",
        lambda self, *args: compared.append(1) or record(self, *args),
    )
    work = {}
    for t in (8, 32):
        compared.clear()
        path = "//cnode[" + " or ".join(f"key={k}" for k in parents[:t]) + "]/sub"
        plan = updater.plan(InsertOp(path, "cnode", shared))
        assert plan.state is PlanState.PLANNED and len(plan.delta_r) == t
        plan.abort()
        (program,) = [
            program for skeleton in updater.registry.skeletons.values()
            for shape, program in skeleton.insertions.items() if len(shape) == t
        ]
        work[t] = (len(compared), len(program.guards))
    assert work[32][0] < 5 * work[8][0] and work[32][1] < 5 * work[8][1], work
