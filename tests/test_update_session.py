"""Tests for batched update sessions (``with updater.batch():``).

The contract: foreground phases run per update, ``L`` stays maintained,
but leaving the block runs exactly one deferred Δ(M,L) maintenance pass
whose final state is ``equals()``-identical to sequential processing.
"""

from unittest import mock

import pytest

from index_seam import INDEX_CLASSES, substitute_index
from repro.baselines import SetReachabilityIndex
from repro.core.session import UpdateSession
from repro.core.updater import SideEffectPolicy, XMLViewUpdater
from repro.errors import ReproError, UpdateRejectedError
from repro.index import BitsetReachabilityIndex, build_index
from repro.relational.database import Database
from repro.workloads.queries import make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import (
    SyntheticConfig,
    build_synthetic,
    synthetic_atg,
    synthetic_schemas,
)
from repro.ops import DeleteOp, InsertOp


def _registrar_updater(index_class=BitsetReachabilityIndex, **kwargs):
    atg, db = build_registrar()
    kwargs.setdefault("side_effect_policy", SideEffectPolicy.PROPAGATE)
    return substitute_index(XMLViewUpdater(atg, db, **kwargs), index_class)


def _synthetic_updater(
    n_c=60, seed=7, index_class=BitsetReachabilityIndex, **kwargs
):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    kwargs.setdefault("side_effect_policy", SideEffectPolicy.PROPAGATE)
    kwargs.setdefault("strict", False)
    updater = XMLViewUpdater(dataset.atg, dataset.db, **kwargs)
    return dataset, substitute_index(updater, index_class)


def _delete_ops(dataset, count=4):
    ops = []
    for cls in ("W1", "W2"):
        ops.extend(make_workload(dataset, "delete", cls, count=count))
    return ops


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_batched_deletions_one_pass_identical_state(index_class):
    """Acceptance: N batched deletions = 1 maintenance pass, same state."""
    dataset_a, sequential = _synthetic_updater(index_class=index_class)
    dataset_b, batched = _synthetic_updater(index_class=index_class)
    ops = _delete_ops(dataset_a)
    assert len(ops) >= 3

    seq_outcomes = [sequential.apply_op(op) for op in ops]
    assert sequential.maintenance_runs == sum(
        1 for o in seq_outcomes if o.accepted
    )

    before = batched.maintenance_runs
    with batched.batch() as session:
        batch_outcomes = [batched.apply_op(op) for op in ops]
    assert batched.maintenance_runs - before == 1
    assert session.report is not None
    assert session.report.maintenance_passes == 1
    assert session.report.deletes == sum(
        1 for o in batch_outcomes if o.accepted
    )

    # Mid-batch foreground results were identical to sequential.
    for a, b in zip(seq_outcomes, batch_outcomes):
        assert a.accepted == b.accepted
        assert a.targets == b.targets

    # Final auxiliary structures are equals()-identical.
    assert batched.reach.equals(sequential.reach)
    assert batched.topo.is_valid_for(batched.store)
    assert sorted(batched.store.nodes()) == sorted(sequential.store.nodes())
    assert batched.check_consistency() == []


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_batched_inserts_one_pass(index_class):
    updater = _registrar_updater(index_class=index_class, strict=True)
    before = updater.maintenance_runs
    with updater.batch():
        updater.apply_op(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS901", "Batched I")
        ))
        updater.apply_op(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS902", "Batched II")
        ))
    assert updater.maintenance_runs - before == 1
    assert updater.check_consistency() == []
    result = updater.evaluate_xpath("course[cno='CS650']/prereq/course")
    types = {updater.store.sem_of(n)[0] for n in result.targets}
    assert {"CS901", "CS902"} <= types


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_mixed_batch_consistent(index_class):
    updater = _registrar_updater(index_class=index_class, strict=False)
    before = updater.maintenance_runs
    with updater.batch():
        updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        updater.apply_op(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS903", "Mixed")
        ))
        updater.apply_op(DeleteOp("//course[cno='CS910']"))  # selects nothing: rejected
    assert updater.maintenance_runs - before == 1
    assert updater.check_consistency() == []
    assert updater.reach.equals(build_index(updater.store, updater.topo))


def test_mid_batch_evaluation_sees_applied_deltas():
    updater = _registrar_updater(strict=True)
    with updater.batch():
        updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        # The foreground ΔV is applied: a descendant query through the
        # deleted edge must not resurrect it, even though M is stale.
        result = updater.evaluate_xpath(
            "course[cno='CS650']/prereq//course[cno='CS320']"
        )
        assert result.targets == []


def test_batch_with_only_rejections_runs_no_pass():
    updater = _registrar_updater(strict=False)
    before = updater.maintenance_runs
    with updater.batch() as session:
        outcome = updater.apply_op(DeleteOp("//course[cno='NOPE']"))
    assert not outcome.accepted
    assert updater.maintenance_runs == before
    assert session.report.maintenance_passes == 0


def test_batch_flushes_even_when_block_raises():
    updater = _registrar_updater(strict=True)
    before = updater.maintenance_runs
    with pytest.raises(UpdateRejectedError):
        with updater.batch():
            updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
            updater.apply_op(DeleteOp("//course[cno='NOPE']"))  # raises (strict)
    # The accepted delete's repair still ran: state is consistent.
    assert updater.maintenance_runs - before == 1
    assert updater.check_consistency() == []


def test_nested_batch_rejected():
    updater = _registrar_updater()
    with updater.batch():
        with pytest.raises(ReproError, match="already active"):
            with updater.batch():
                pass
    # After a clean exit a new batch opens fine.
    with updater.batch():
        pass


def test_two_sessions_cannot_both_be_entered():
    """Regression: the "already active" guard sat in ``batch()`` only,
    so two sessions built up front could both be entered, and the inner
    exit un-registered the outer one mid-batch."""
    updater = _registrar_updater(strict=True)
    first, second = updater.batch(), updater.batch()
    before = updater.maintenance_runs
    with first:
        with pytest.raises(ReproError, match="already active"):
            with second:
                pass
        # ``first`` is still the open session: its ops stay batched.
        updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        assert first.pending
        assert updater.maintenance_runs == before
    assert updater.maintenance_runs - before == 1
    assert updater.check_consistency() == []


def test_base_update_blocked_while_pending():
    updater = _registrar_updater(strict=True)
    with updater.batch():
        outcome = updater.apply_op(DeleteOp(
            "course[cno='CS650']/prereq/course[cno='CS320']"
        ))
        with pytest.raises(ReproError, match="pending maintenance"):
            updater.undo(outcome)
    assert updater.check_consistency() == []
    # Once flushed, undo works and restores the original view.
    updater.undo(outcome)
    assert updater.check_consistency() == []


def test_explicit_flush_mid_batch():
    updater = _registrar_updater(strict=True)
    with updater.batch() as session:
        updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        report = session.flush()
        assert report.maintenance_passes == 1
        # Maintenance is clean now; further ops queue afresh.
        updater.apply_op(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS904", "Post-flush")
        ))
    assert updater.check_consistency() == []


def test_batch_delete_then_reinsert_shares_subtree():
    """Deferred GC: delete + re-insert within one batch resurrects the
    shared subtree via gen_id interning instead of republishing."""
    updater = _registrar_updater(strict=True)
    target = updater.store.lookup("course", ("CS320", "Databases"))
    assert target is not None
    with updater.batch():
        updater.apply_op(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        updater.apply_op(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS320", "Databases")
        ))
    assert updater.check_consistency() == []
    # Same node id: the subtree was shared, not republished.
    assert updater.store.lookup("course", ("CS320", "Databases")) == target


def _interleaved_batch_then_undo(index_class):
    """One batch interleaving delete+insert per anchor, then undo all.

    Guards dense-id reuse in the bitset rows: a delete frees node ids
    mid-batch, the following insert re-interns (or allocates past)
    them, and the undo resurrects collected subtrees — any stale row
    aliasing shows up as a divergence from the reference's M.
    """
    dataset, updater = _synthetic_updater(n_c=70, seed=11,
                                          index_class=index_class)
    deletes = make_workload(dataset, "delete", "W2", count=3)
    inserts = make_workload(
        dataset, "insert", "W2", count=3, seed=2, new_key_fraction=0.0
    )
    outcomes = []
    with updater.batch() as session:
        for delete_op, insert_op in zip(deletes, inserts):
            outcomes.append(updater.apply_op(delete_op))
            outcomes.append(updater.apply_op(insert_op))
    assert session.report is not None
    assert session.report.maintenance_passes == 1
    accepted = [o for o in outcomes if o.accepted]
    assert len(accepted) >= 2, "workload must commit interleaved ops"
    for outcome in reversed(accepted):
        if outcome.delta_r is not None and len(outcome.delta_r.ops):
            updater.undo(outcome)
    return updater, outcomes


def test_interleaved_batch_then_undo_backends_byte_identical():
    """Acceptance: interleaved delete+insert inside one session followed
    by undo leaves an updater on the reference and one on the bitset
    index in `equals()`-identical states."""
    runs = [
        _interleaved_batch_then_undo(index_class)
        for index_class in (SetReachabilityIndex, BitsetReachabilityIndex)
    ]
    updaters = [u for u, _ in runs]
    outcome_lists = [o for _, o in runs]
    for other in outcome_lists[1:]:
        assert [o.accepted for o in other] == [
            o.accepted for o in outcome_lists[0]
        ]
        assert [o.targets for o in other] == [
            o.targets for o in outcome_lists[0]
        ]
    reference = updaters[0]
    for updater in updaters:
        assert updater.check_consistency() == []
        assert updater.reach.equals(build_index(updater.store, updater.topo))
        assert updater.reach.equals(reference.reach)
        assert list(updater.topo) == list(reference.topo)


def _shared_chain_updater(k: int):
    """A synthetic view with a root-child cnode 100 and a chain of ``k``
    cnodes from cnode 200 (under root-child cnode 2000); ``L`` then
    moves cnode 100's childless ``sub`` to just before cnode 200, so the
    sharing insert ``//cnode[key=100]/sub`` <- cnode 200 must ``swap``
    while everything below cnode 200 is already placed before the
    target."""
    db = Database("shared-chain")
    for schema in synthetic_schemas():
        db.create_table(schema)
    filler = (0,) * 10
    keys = [100, 2000, *range(200, 200 + k)]
    for key in keys:
        db.insert("C", (key, 1, 2, 3, f"v{key}", int(key in (100, 2000)), *filler))
        db.insert("F", (key, 1, 2, 3, f"w{key}", 0, *filler))
    for parent, child in zip(keys[1:], keys[2:]):
        db.insert("H", (parent, child))
    updater = XMLViewUpdater(synthetic_atg(), db, strict=False)
    store, topo = updater.store, updater.topo
    root = store.lookup("cnode", (200, "v200"))
    (target,) = (
        c for c in store.children_of(store.lookup("cnode", (100, "v100")))
        if store.type_of(c) == "sub"
    )
    topo.remove_many([target])
    topo.insert_at(target, topo.position(root))
    assert topo.is_valid_for(store)
    below = store.descendants_of([root])
    assert len(below) == 4 * k - 1
    assert max(map(topo.position, below)) < topo.position(target)
    return updater, root, target


def _deferred_store_calls(k: int) -> dict[str, int]:
    """Store traffic of ``UpdateSession.defer`` for the batched sharing
    insert of :func:`_shared_chain_updater`'s view."""
    updater, root, target = _shared_chain_updater(k)
    store = updater.store
    calls = {"children_of": 0, "descendants_of": 0}
    real_defer = UpdateSession.defer

    def counted_defer(session, inserts, delete_targets):
        for name in calls:
            def counted(node, _real=getattr(store, name), _name=name):
                calls[_name] += 1
                return _real(node)
            setattr(store, name, counted)
        try:
            return real_defer(session, inserts, delete_targets)
        finally:
            for name in calls:
                delattr(store, name)

    with mock.patch.object(UpdateSession, "defer", counted_defer):
        with updater.batch() as session:
            outcome = updater.apply_op(
                InsertOp("//cnode[key=100]/sub", "cnode", (200, "v200"))
            )
            assert outcome.accepted and not outcome.stats["subtree_nodes"]
            assert updater.topo.precedes(root, target)  # the swap ran
    assert session.report.inserts == 1
    assert updater.check_consistency() == []
    return calls


def test_batched_sharing_insert_walks_only_what_it_moves():
    """The deferred ``L`` repair reads the store below ``r_A`` only as far
    as ``L[u:r_A]``: no ``descendants_of``, and the ``swap`` walk's
    ``children_of`` calls do not grow with the shared subtree."""
    small = _deferred_store_calls(10)
    assert small["descendants_of"] == 0
    assert _deferred_store_calls(1000) == small
