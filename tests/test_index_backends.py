"""The reachability index against its reference.

Every mutation sequence must leave ``SetReachabilityIndex`` (the
oracle, ``repro.baselines``) and ``BitsetReachabilityIndex`` (the one
class the product constructs) ``equals()``-identical, with internally
consistent mirrors; and an :class:`~repro.core.updater.XMLViewUpdater`
must keep its ``M`` equal to the reference recomputed from its store
after every operation.
"""

import dataclasses
import random

import pytest

import repro
import repro.index
from index_seam import INDEX_CLASSES, reference_index
from repro.atg.publisher import publish_store
from repro.baselines import SetReachabilityIndex, naive_reachability
from repro.core.topo import TopoOrder
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import ReproError
from repro.index import (
    BitsetReachabilityIndex,
    ReachabilityIndex,
    build_index,
)
from repro.service import ViewConfig
from repro.workloads.queries import make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.ops import DeleteOp, InsertOp

BOTH = (BitsetReachabilityIndex, SetReachabilityIndex)


# ---------------------------------------------------------------------------
# One product class; the retired knob fails typed
# ---------------------------------------------------------------------------


class TestFactory:
    def test_backends_registered(self):
        # One class behind the seam; the reference lives with the
        # baselines and is a ReachabilityIndex a test can substitute.
        assert repro.index.__all__ == [
            "ReachabilityIndex",
            "BitsetReachabilityIndex",
            "build_index",
        ]
        assert not hasattr(repro.index, "SetReachabilityIndex")
        assert issubclass(SetReachabilityIndex, ReachabilityIndex)

    def test_retired_names_rejected(self):
        # The registry and the config field are gone, not ignored.
        for package in (repro, repro.index):
            for retired in ("BACKENDS", "make_index", "resolve_backend"):
                assert not hasattr(package, retired)
        assert len(dataclasses.fields(ViewConfig)) == 9
        with pytest.raises(TypeError, match="index_backend"):
            ViewConfig(index_backend="sets")
        with pytest.raises(
            ReproError, match=r"unknown ViewConfig field\(s\).*index_backend"
        ):
            ViewConfig.from_dict({"strict": False, "index_backend": "bitset"})

    def test_unknown_backend_rejected(self):
        # No string selects an implementation, anywhere.
        atg, db = build_registrar()
        store = publish_store(atg, db)
        topo = TopoOrder.from_store(store)
        with pytest.raises(TypeError):
            build_index(store, topo, "roaring")
        with pytest.raises(TypeError, match="index_backend"):
            XMLViewUpdater(atg, db, index_backend="sets")

    def test_legacy_shim_is_gone(self):
        # ``repro.core.reachability`` (ReachabilityMatrix / compute_reach)
        # was deleted: the index package is the only entry point.
        import repro.core

        with pytest.raises(ImportError):
            import repro.core.reachability  # noqa: F401
        for package in (repro, repro.core):
            assert not hasattr(package, "ReachabilityMatrix")
            assert not hasattr(package, "compute_reach")
        atg, db = build_registrar()
        store = publish_store(atg, db)
        topo = TopoOrder.from_store(store)
        assert isinstance(build_index(store, topo), BitsetReachabilityIndex)


# ---------------------------------------------------------------------------
# Satellite: no internal-state aliasing from anc()/desc()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
class TestNoAliasing:
    def test_mutating_returned_rows_does_not_corrupt(self, index_class):
        m = index_class()
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

    def test_missing_rows_are_detached_too(self, index_class):
        m = index_class()
        m.anc(5).add(1)  # rowless node: must not create shared state
        m.desc(5).add(1)
        assert m.anc(5) == set()
        assert len(m) == 0


# ---------------------------------------------------------------------------
# Bulk-operation semantics (against hand-computed expectations)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
class TestBulkOps:
    def test_extend_ancestors(self, index_class):
        # A node with no descendants yet (a new node of Δ(M,L)insert
        # part 1): its row is extended from its parents' rows.
        m = index_class()
        m.insert(1, 2)  # anc(2) = {1}
        added = m.add_closure_below([2, 3], 4)
        # gains {2} ∪ anc(2) ∪ {3} ∪ anc(3) = {1, 2, 3}
        assert added == 3
        assert m.anc(4) == {1, 2, 3}
        assert m.add_closure_below([2, 3], 4) == 0  # idempotent
        assert m.check_invariants() == []

    def test_add_closure_below(self, index_class):
        # Edge (2, 10) over a closed M: anc*(2) × ({10} ∪ desc(10)).
        m = index_class()
        m.insert(1, 2)
        m.insert(10, 11)
        assert m.add_closure_below([2], 10) == 4  # {1, 2} × {10, 11}
        assert m.anc(10) == {1, 2} and m.anc(11) == {1, 2, 10}
        assert m.desc(1) == {2, 10, 11} and m.desc(2) == {10, 11}
        # Two parents at once: anc*(2) ∪ anc*(5) = {1, 2, 5}.
        m.insert(1, 5)
        assert m.add_closure_below([2, 5], 12) == 3  # {1, 2, 5} × {12}
        assert m.add_closure_below([2, 5], 12) == 0
        assert m.add_closure_below([], 10) == 0
        assert m.check_invariants() == []

    def test_add_closure_below_early_out(self, index_class):
        # Every parent and its ancestors already reach the node: nothing
        # below it is read, whatever its descendant rows say.
        m = index_class()
        for a, d in [(1, 2), (1, 7), (2, 7), (7, 8), (1, 8), (2, 8)]:
            m.insert(a, d)
        before = sorted(m.pairs())
        assert m.add_closure_below([2], 7) == 0
        assert m.add_closure_below([1, 2], 7) == 0
        assert sorted(m.pairs()) == before
        # One missing ancestor (3) is written below the node, and only it.
        m.insert(3, 2)
        assert m.add_closure_below([2], 7) == 2  # (3,7) and (3,8)
        assert m.anc(8) == {1, 2, 3, 7}
        assert m.check_invariants() == []

    def test_retain_ancestors(self, index_class):
        m = index_class()
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

    def test_retain_never_adds(self, index_class):
        m = index_class()
        m.insert(5, 6)
        assert m.retain_ancestors(7, [6]) == 0  # rowless node untouched
        assert m.anc(7) == set()

    def test_desc_view_membership(self, index_class):
        m = index_class()
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

    indexes = {cls.__name__: cls() for cls in BOTH}
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
    first, *rest = indexes.values()
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
    the *same* ids (the bitset index maps them onto the same machine
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

    indexes = {cls.__name__: cls() for cls in BOTH}
    for op in ops:
        for index in indexes.values():
            getattr(index, op[0])(*op[1:])
    expected = _reference_pairs(ops)
    for name, index in indexes.items():
        assert index.check_invariants() == [], name
        assert set(index.pairs()) == expected, name
    first, *rest = indexes.values()
    for other in rest:
        assert first.equals(other)


# ---------------------------------------------------------------------------
# Algorithm Reach: both classes agree with an independent closure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_build_index_matches_oracle(index_class):
    atg, db = build_registrar()
    store = publish_store(atg, db)
    topo = TopoOrder.from_store(store)
    oracle = naive_reachability(store)  # per-node DFS, no Reach
    index = index_class()
    index.recompute(store, topo)
    assert index.check_invariants() == []
    assert index.equals(oracle) and oracle.equals(index)
    assert len(index) == len(oracle)
    root = store.root_id
    assert index.desc(root) == set(store.nodes()) - {root}


# ---------------------------------------------------------------------------
# End-to-end: the updater's M equals the reference after every operation
# ---------------------------------------------------------------------------


def _registrar_script():
    atg, db = build_registrar()
    ops = [
        DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"),
        InsertOp("course[cno='CS650']/prereq", "course",
                 ("CS991", "Grown Topics")),
        DeleteOp("//course[cno='CS240']"),
        InsertOp("course[cno='CS650']/prereq", "course",
                 ("CS992", "More Topics")),
    ]
    return atg, db, ops


def _synthetic_script():
    dataset = build_synthetic(SyntheticConfig(n_c=80, seed=9))
    ops = []
    for cls in ("W1", "W2", "W3"):
        ops.extend(make_workload(dataset, "delete", cls, count=3))
        ops.extend(make_workload(dataset, "insert", cls, count=3))
    return dataset.atg, dataset.db, ops


@pytest.mark.parametrize(
    "script",
    [_registrar_script, _synthetic_script],
    ids=["registrar", "synthetic"],
)
def test_updater_matches_reference_after_every_op(script):
    atg, db, ops = script()
    updater = XMLViewUpdater(
        atg, db, side_effect_policy=SideEffectPolicy.PROPAGATE, strict=False
    )
    accepted = 0
    for op in ops:
        accepted += updater.apply_op(op).accepted
        reference = reference_index(updater.store, updater.topo)
        assert updater.reach.equals(reference), op
        assert reference.equals(updater.reach), op
        assert updater.reach.check_invariants() == []
        assert updater.check_consistency() == [], op
    assert accepted >= 3
