"""Cross-backend tests for the pluggable reachability-index engine.

Every mutation sequence must leave the set backend (the oracle) and the
bitset backend ``equals()``-identical, with internally consistent
mirrors — the contract that lets :class:`~repro.core.updater
.XMLViewUpdater` treat the backend as a pure representation choice.
"""

import random

import pytest

from repro.atg.publisher import publish_store
from repro.core.topo import TopoOrder
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import ReproError
from repro.index import (
    BACKENDS,
    BitsetReachabilityIndex,
    SetReachabilityIndex,
    build_index,
    make_index,
    resolve_backend,
)
from repro.relview.insert import reset_fresh_counter
from repro.workloads.queries import make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.ops import DeleteOp, InsertOp

ALL_BACKENDS = sorted(BACKENDS)


# ---------------------------------------------------------------------------
# Factory / registry
# ---------------------------------------------------------------------------


class TestFactory:
    def test_backends_registered(self):
        assert set(ALL_BACKENDS) == {"bitset", "sets"}

    def test_retired_names_rejected(self):
        # ``auto`` and the NumPy ``matrix`` backend are gone: bitset is
        # the default and the only other name is the reference.
        assert isinstance(make_index(), BitsetReachabilityIndex)
        assert resolve_backend("sets") == "sets"
        for retired in ("auto", "matrix"):
            with pytest.raises(ReproError, match="unknown reachability-index"):
                resolve_backend(retired)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown reachability-index"):
            make_index("roaring")

    def test_legacy_shim_is_gone(self):
        # ``repro.core.reachability`` (ReachabilityMatrix / compute_reach)
        # was deleted: the index package is the only entry point.
        import repro
        import repro.core

        with pytest.raises(ImportError):
            import repro.core.reachability  # noqa: F401
        for package in (repro, repro.core):
            assert not hasattr(package, "ReachabilityMatrix")
            assert not hasattr(package, "compute_reach")
        atg, db = build_registrar()
        store = publish_store(atg, db)
        topo = TopoOrder.from_store(store)
        assert isinstance(
            build_index(store, topo, "sets"), SetReachabilityIndex
        )


# ---------------------------------------------------------------------------
# Satellite: no internal-state aliasing from anc()/desc()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestNoAliasing:
    def test_mutating_returned_rows_does_not_corrupt(self, backend):
        m = make_index(backend)
        m.insert(1, 2)
        m.insert(1, 3)
        m.anc(2).add(99)
        m.desc(1).discard(2)
        m.anc_of_set([2, 3]).clear()
        m.desc_of_set([1]).add(7)
        assert m.anc(2) == {1}
        assert m.desc(1) == {2, 3}
        assert len(m) == 2
        assert m.check_invariants() == []

    def test_missing_rows_are_detached_too(self, backend):
        m = make_index(backend)
        m.anc(5).add(1)  # rowless node: must not create shared state
        m.desc(5).add(1)
        assert m.anc(5) == set()
        assert len(m) == 0


# ---------------------------------------------------------------------------
# Bulk-operation semantics (against hand-computed expectations)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestBulkOps:
    def test_extend_ancestors(self, backend):
        m = make_index(backend)
        m.insert(1, 2)  # anc(2) = {1}
        added = m.extend_ancestors(4, [2, 3])
        # gains {2} ∪ anc(2) ∪ {3} ∪ anc(3) = {1, 2, 3}
        assert added == 3
        assert m.anc(4) == {1, 2, 3}
        assert m.extend_ancestors(4, [2, 3]) == 0  # idempotent
        assert m.check_invariants() == []

    def test_add_cross_pairs(self, backend):
        m = make_index(backend)
        m.insert(1, 10)
        added = m.add_cross_pairs({1, 2}, [10, 11])
        assert added == 3  # (1,10) pre-existing
        assert m.anc(10) == {1, 2} and m.anc(11) == {1, 2}
        assert m.desc(1) == {10, 11} and m.desc(2) == {10, 11}
        assert m.add_cross_pairs({1, 2}, [10, 11]) == 0
        assert m.add_cross_pairs(set(), [10]) == 0
        assert m.check_invariants() == []

    def test_add_anc_closure_pairs(self, backend):
        m = make_index(backend)
        m.insert(1, 2)  # anc(2) = {1}
        added = m.add_anc_closure_pairs([2], [7, 8])
        # upper = {2} ∪ anc(2) = {1, 2}
        assert added == 4
        assert m.anc(7) == {1, 2} and m.anc(8) == {1, 2}
        assert m.check_invariants() == []

    def test_retain_ancestors(self, backend):
        m = make_index(backend)
        m.insert(1, 2)
        for anc in (1, 2, 3):
            m.insert(anc, 9)
        removed = m.retain_ancestors(9, [2])
        # keep = {2} ∪ anc(2) = {1, 2}: pair (3, 9) goes
        assert removed == 1
        assert m.anc(9) == {1, 2}
        assert m.retain_ancestors(9, [2]) == 0
        assert m.retain_ancestors(9, []) == 2  # no parents: row emptied
        assert m.anc(9) == set()
        assert m.check_invariants() == []

    def test_retain_never_adds(self, backend):
        m = make_index(backend)
        m.insert(5, 6)
        assert m.retain_ancestors(7, [6]) == 0  # rowless node untouched
        assert m.anc(7) == set()

    def test_desc_view_membership(self, backend):
        m = make_index(backend)
        m.insert(1, 2)
        m.insert(1, 3)
        view = m.desc_view(1)
        assert 2 in view and 3 in view and 4 not in view
        assert sorted(view) == [2, 3]
        assert len(view) == 2
        assert len(m.desc_view(42)) == 0


# ---------------------------------------------------------------------------
# Satellite: invariants under random operation interleavings
# ---------------------------------------------------------------------------


def _reference_pairs(ops):
    """Replay ops against a plain set of pairs (the semantics oracle)."""
    pairs: set[tuple[int, int]] = set()
    for op in ops:
        kind = op[0]
        if kind == "insert":
            pairs.add((op[1], op[2]))
        elif kind == "remove":
            pairs.discard((op[1], op[2]))
        elif kind == "set_ancestors":
            _, node, ancestors = op
            pairs = {(a, d) for (a, d) in pairs if d != node}
            pairs |= {(a, node) for a in ancestors}
        else:  # drop_node
            _, node = op
            pairs = {(a, d) for (a, d) in pairs if node not in (a, d)}
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleavings_agree(seed):
    rng = random.Random(seed)
    nodes = range(40)
    ops = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("insert", rng.choice(nodes), rng.choice(nodes)))
        elif roll < 0.65:
            ops.append(("remove", rng.choice(nodes), rng.choice(nodes)))
        elif roll < 0.85:
            ancestors = set(rng.sample(nodes, rng.randrange(0, 8)))
            ops.append(("set_ancestors", rng.choice(nodes), ancestors))
        else:
            ops.append(("drop_node", rng.choice(nodes)))

    indexes = {name: make_index(name) for name in ALL_BACKENDS}
    for i, op in enumerate(ops):
        for index in indexes.values():
            getattr(index, op[0])(*op[1:])
        if i % 97 == 0:  # periodic deep checks, cheap enough
            for index in indexes.values():
                assert index.check_invariants() == []

    expected = _reference_pairs(ops)
    for name, index in indexes.items():
        assert index.check_invariants() == [], name
        assert len(index) == len(expected), name
        assert set(index.pairs()) == expected, name
    first, *rest = (indexes[n] for n in ALL_BACKENDS)
    for other in rest:
        assert first.equals(other) and other.equals(first)
    # ... and one pair of difference is seen from either side
    if (38, 39) in first:
        first.remove(38, 39)
    else:
        first.insert(38, 39)
    for other in rest:
        assert not first.equals(other) and not other.equals(first)


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_id_reuse_after_drop_agrees(seed):
    """Dense-id churn: drop a block of node ids, then rebuild rows for
    the *same* ids (the bitset backend maps them onto the same machine
    words) — stale bits must not leak into the reused rows."""
    rng = random.Random(100 + seed)
    nodes = list(range(24))
    ops = []
    for node in nodes:  # a dense triangular seed matrix
        ops.append(("set_ancestors", node, set(range(node))))
    recycled = rng.sample(nodes, 10)
    for node in recycled:
        ops.append(("drop_node", node))
    for node in recycled:  # same ids, fresh (different) rows
        ancestors = set(rng.sample(nodes, rng.randrange(0, 12))) - {node}
        ops.append(("set_ancestors", node, ancestors))
        for _ in range(3):
            ops.append(("insert", rng.choice(nodes), node))
            ops.append(("remove", rng.choice(nodes), node))

    indexes = {name: make_index(name) for name in ALL_BACKENDS}
    for op in ops:
        for index in indexes.values():
            getattr(index, op[0])(*op[1:])
    expected = _reference_pairs(ops)
    for name, index in indexes.items():
        assert index.check_invariants() == [], name
        assert set(index.pairs()) == expected, name
    first, *rest = (indexes[n] for n in ALL_BACKENDS)
    for other in rest:
        assert first.equals(other)


# ---------------------------------------------------------------------------
# Algorithm Reach: backends agree with the oracle on real stores
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_build_index_matches_oracle(backend):
    atg, db = build_registrar()
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    oracle = build_index(store, topo, "sets")
    index = build_index(store, topo, backend)
    assert index.check_invariants() == []
    assert index.equals(oracle) and oracle.equals(index)
    assert len(index) == len(oracle)
    root = store.root_id
    assert index.desc(root) == set(store.nodes()) - {root}


# ---------------------------------------------------------------------------
# End-to-end: the bitset updater is byte-identical to the sets updater
# ---------------------------------------------------------------------------


def _delta_v_ops(outcome):
    return [
        (op.kind, op.parent_type, op.child_type, op.parent, op.child)
        for op in (outcome.delta_v or [])
    ]


def _delta_r_ops(outcome):
    return list(outcome.delta_r or [])


def _run_registrar_workload(backend):
    reset_fresh_counter()  # identical fresh constants across both runs
    atg, db = build_registrar()
    updater = XMLViewUpdater(
        atg,
        db,
        side_effect_policy=SideEffectPolicy.PROPAGATE,
        strict=False,
        index_backend=backend,
    )
    script = [
        ("delete", "course[cno='CS650']/prereq/course[cno='CS320']"),
        ("insert", "course[cno='CS650']/prereq", "course",
         ("CS991", "Grown Topics")),
        ("delete", "//course[cno='CS240']"),
        ("insert", "course[cno='CS650']/prereq", "course",
         ("CS992", "More Topics")),
    ]
    outcomes = []
    for op in script:
        if op[0] == "delete":
            outcomes.append(updater.apply_op(DeleteOp(op[1])))
        else:
            outcomes.append(updater.apply_op(InsertOp(op[1], op[2], op[3])))
    return updater, outcomes


def test_registrar_backends_byte_identical():
    u_sets, o_sets = _run_registrar_workload("sets")
    u_bits, o_bits = _run_registrar_workload("bitset")
    assert len(o_sets) == len(o_bits)
    for a, b in zip(o_sets, o_bits):
        assert a.accepted == b.accepted
        assert a.targets == b.targets
        assert _delta_v_ops(a) == _delta_v_ops(b)
        assert _delta_r_ops(a) == _delta_r_ops(b)
    assert u_sets.reach.equals(u_bits.reach)
    assert u_bits.reach.check_invariants() == []
    assert u_sets.check_consistency() == []
    assert u_bits.check_consistency() == []


def test_synthetic_backends_byte_identical():
    runs = {}
    for backend in ALL_BACKENDS:
        reset_fresh_counter()
        dataset = build_synthetic(SyntheticConfig(n_c=80, seed=9))
        updater = XMLViewUpdater(
            dataset.atg,
            dataset.db,
            side_effect_policy=SideEffectPolicy.PROPAGATE,
            strict=False,
            index_backend=backend,
        )
        outcomes = []
        for cls in ("W1", "W2", "W3"):
            for op in make_workload(dataset, "delete", cls, count=3):
                outcomes.append(updater.apply_op(op))
            for op in make_workload(dataset, "insert", cls, count=3):
                outcomes.append(updater.apply_op(op))
        runs[backend] = (updater, outcomes)

    (u_a, o_a), *others = (runs[n] for n in ALL_BACKENDS)
    for u_b, o_b in others:
        for a, b in zip(o_a, o_b):
            assert a.accepted == b.accepted
            assert _delta_v_ops(a) == _delta_v_ops(b)
            assert _delta_r_ops(a) == _delta_r_ops(b)
        assert u_a.reach.equals(u_b.reach)
    for updater, _ in runs.values():
        assert updater.check_consistency() == []
        assert updater.reach.check_invariants() == []
