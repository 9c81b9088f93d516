"""Tests for batches (``with service.batch():`` and ``service.apply([...])``).

The contract: a batch is one write scope — one write-lock hold, one
coalesced event — whose ops each run the single-op path: plan, commit,
then the Δ(M,L) repair at once.  So every op is planned on a repaired
``M``, a batch accepts exactly what the same ops applied one by one
accept, and it ends on the same state.
"""

from unittest import mock

import pytest

from index_seam import INDEX_CLASSES, reference_index, substitute_index
from repro.baselines import SetReachabilityIndex
from repro.bench.workload_gen import WorkloadSpec, generate_ops
from repro.core import updater as updater_module
from repro.errors import UpdateRejectedError
from repro.index import BitsetReachabilityIndex, build_index
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp
from repro.relational.database import Database
from repro.service import ViewConfig, open_view
from repro.workloads import named_workload
from repro.workloads.queries import make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import (
    SyntheticConfig,
    build_synthetic,
    synthetic_atg,
    synthetic_schemas,
)


def _registrar_service(index_class=BitsetReachabilityIndex, **config):
    atg, db = build_registrar()
    config.setdefault("side_effects", "propagate")
    service = open_view(atg, db, config=ViewConfig(**config))
    substitute_index(service.updater, index_class)
    return service


def _synthetic_service(
    n_c=60, seed=7, index_class=BitsetReachabilityIndex, **config
):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    service = open_view(dataset.atg, dataset.db, config=ViewConfig(**config))
    substitute_index(service.updater, index_class)
    return dataset, service


def _delete_ops(dataset, count=4):
    ops = []
    for cls in ("W1", "W2"):
        ops.extend(make_workload(dataset, "delete", cls, count=count))
    return ops


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_batched_deletions_one_pass_identical_state(index_class):
    """N batched deletions: one repair pass per accepted op, each run at
    its commit, and the state of sequential processing."""
    dataset_a, sequential = _synthetic_service(index_class=index_class)
    dataset_b, batched = _synthetic_service(index_class=index_class)
    ops = _delete_ops(dataset_a)
    assert len(ops) >= 3

    seq_outcomes = [sequential.apply(op) for op in ops]
    before = batched.maintenance_runs
    runs = []
    with batched.batch() as batch:
        batch_outcomes = []
        for op in ops:
            batch_outcomes.append(batch.apply(op))
            runs.append(batched.maintenance_runs - before)
    accepted = [o.accepted for o in batch_outcomes]
    # Each accepted op was repaired before the next one was planned.
    assert runs == [sum(accepted[: i + 1]) for i in range(len(ops))]
    assert sequential.maintenance_runs == batched.maintenance_runs

    for a, b in zip(seq_outcomes, batch_outcomes):
        assert a.accepted == b.accepted
        assert a.targets == b.targets

    assert batched.reach.equals(sequential.reach)
    assert batched.topo.is_valid_for(batched.store)
    assert batched.store.digest() == sequential.store.digest()
    assert batched.check_consistency() == []


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_batched_inserts_one_pass(index_class):
    """Each batched insert runs its own one repair pass."""
    service = _registrar_service(index_class=index_class, strict=True)
    before = service.maintenance_runs
    with service.batch() as batch:
        batch.apply(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS901", "Batched I")
        ))
        assert service.maintenance_runs - before == 1
        batch.apply(InsertOp(
            "course[cno='CS650']/prereq", "course", ("CS902", "Batched II")
        ))
    assert service.maintenance_runs - before == 2
    assert service.check_consistency() == []
    result = service.xpath("course[cno='CS650']/prereq/course")
    types = {service.store.sem_of(n)[0] for n in result.targets}
    assert {"CS901", "CS902"} <= types


@pytest.mark.parametrize("index_class", INDEX_CLASSES)
def test_mixed_batch_consistent(index_class):
    service = _registrar_service(index_class=index_class, strict=False)
    before = service.maintenance_runs
    outcomes = service.apply([
        DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"),
        InsertOp("course[cno='CS650']/prereq", "course", ("CS903", "Mixed")),
        DeleteOp("//course[cno='CS910']"),  # selects nothing: rejected
    ])
    assert [o.accepted for o in outcomes] == [True, True, False]
    assert service.maintenance_runs - before == 2
    assert service.check_consistency() == []
    assert service.reach.equals(build_index(service.store, service.topo))


def test_mid_batch_evaluation_sees_applied_deltas():
    service = _registrar_service(strict=True)
    with service.batch() as batch:
        batch.apply(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        # The op is committed and repaired: a descendant query through
        # the deleted edge must not resurrect it.
        result = service.xpath(
            "course[cno='CS650']/prereq//course[cno='CS320']"
        )
        assert result.targets == []
        assert service.reach.equals(build_index(service.store, service.topo))


def test_batch_with_only_rejections_runs_no_pass():
    service = _registrar_service(strict=False)
    feed = service.changefeed()
    before = service.maintenance_runs
    (outcome,) = service.apply([DeleteOp("//course[cno='NOPE']")])
    assert not outcome.accepted
    assert service.maintenance_runs == before
    assert feed.events() == []


def test_batch_flushes_even_when_block_raises():
    """An op that raises ends the batch; the ops before it are committed
    and repaired, and the scope still publishes them."""
    service = _registrar_service(strict=True)
    feed = service.changefeed()
    before = service.maintenance_runs
    with pytest.raises(UpdateRejectedError):
        with service.batch() as batch:
            batch.apply(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
            batch.apply(DeleteOp("//course[cno='NOPE']"))  # raises (strict)
    assert service.maintenance_runs - before == 1
    assert [event.generation for event in feed.events()] == [
        service.updater.generation
    ]
    assert service.check_consistency() == []


def test_nested_batch_joins_the_outer_scope():
    """A batch opened inside a batch joins it: one lock hold, one
    event, both ops committed in order."""
    service = _registrar_service(strict=True)
    feed = service.changefeed()
    commits = service.stats()["pipeline"]["commits"]
    with service.batch() as outer:
        outer.apply(DeleteOp("course[cno='CS650']/prereq/course[cno='CS320']"))
        with service.batch() as inner:
            inner.apply(InsertOp(".", "course", ("CS904", "Nested")))
    assert service.stats()["pipeline"]["commits"] - commits == 1
    (event,) = feed.events()
    assert event.generation == service.updater.generation
    assert service.check_consistency() == []


def test_base_update_rides_in_a_batch():
    """A base update is an op like any other inside a batch: its
    propagation reads the ``M`` the op before it repaired."""
    service = _registrar_service(strict=True)
    feed = service.changefeed()
    outcome = service.apply(DeleteOp(
        "course[cno='CS650']/prereq/course[cno='CS320']"
    ))
    generation = service.updater.generation
    with service.batch() as batch:
        batch.apply(InsertOp(".", "course", ("CS905", "Before undo")))
        batch.apply(BaseUpdateOp.from_delta(outcome.delta_r.inverted()))
    assert service.updater.generation == generation + 2
    assert len(feed.events()) == 2  # the delete's, then the batch's one
    assert service.check_consistency() == []
    assert service.xpath("course[cno='CS650']/prereq/course[cno='CS320']").targets


def _replay(workload, ops, size):
    """Apply ``ops`` to a fresh ``workload`` service in groups of
    ``size`` (one by one for 1); returns what a batch must not change:
    the accepted flags and ``ΔR`` per op, the store digest and ``L``,
    after checking ``M`` against the reference closure."""
    service = open_view(
        *named_workload(workload), config=ViewConfig(strict=False)
    )
    outcomes = []
    for start in range(0, len(ops), size):
        group = ops[start:start + size]
        if size == 1:
            outcomes.append(service.apply(group[0]))
        else:
            outcomes.extend(service.apply(group))
    assert service.reach.equals(reference_index(service.store, service.topo))
    return (
        [o.accepted for o in outcomes],
        [o.delta_r.ops if o.delta_r is not None else None for o in outcomes],
        service.store.digest(),
        service.topo.as_list(),
    )


@pytest.mark.parametrize(
    "pattern, workload",
    [("mixed", "synthetic:200"), ("dense_dag", "synthetic:120"),
     ("churn", "synthetic:160")],
)
def test_batches_accept_what_single_ops_accept(pattern, workload):
    """A generated stream (every op accepted one by one, which the
    generator's shadow view guarantees) applied in batches of 4 and 16
    accepts the same ops with the same ``ΔR`` and ends on the same
    store, ``L`` and ``M``."""
    spec = WorkloadSpec(
        workload=workload, ops=60, seed=0, pattern=pattern, key_skew=0.8
    )
    ops = list(generate_ops(spec))
    single = _replay(workload, ops, 1)
    assert all(single[0])
    for size in (4, 16):
        assert _replay(workload, ops, size) == single, size


def _interleaved_batch_then_undo(index_class):
    """One batch interleaving delete+insert per anchor, then undo all.

    Guards dense-id reuse in the bitset rows: a delete frees node ids
    mid-batch, the following insert re-interns (or allocates past)
    them, and the undo resurrects collected subtrees — any stale row
    aliasing shows up as a divergence from the reference's M.
    """
    dataset, service = _synthetic_service(
        n_c=70, seed=11, index_class=index_class
    )
    deletes = make_workload(dataset, "delete", "W2", count=3)
    inserts = make_workload(
        dataset, "insert", "W2", count=3, seed=2, new_key_fraction=0.0
    )
    outcomes = []
    with service.batch() as batch:
        for delete_op, insert_op in zip(deletes, inserts):
            outcomes.append(batch.apply(delete_op))
            outcomes.append(batch.apply(insert_op))
    accepted = [o for o in outcomes if o.accepted]
    assert len(accepted) >= 2, "workload must commit interleaved ops"
    for outcome in reversed(accepted):
        if outcome.delta_r is not None and len(outcome.delta_r.ops):
            service.undo(outcome)
    return service, outcomes


def test_interleaved_batch_then_undo_backends_byte_identical():
    """Acceptance: interleaved delete+insert inside one batch followed
    by undo leaves a service on the reference and one on the bitset
    index in `equals()`-identical states."""
    runs = [
        _interleaved_batch_then_undo(index_class)
        for index_class in (SetReachabilityIndex, BitsetReachabilityIndex)
    ]
    services = [s for s, _ in runs]
    outcome_lists = [o for _, o in runs]
    for other in outcome_lists[1:]:
        assert [o.accepted for o in other] == [
            o.accepted for o in outcome_lists[0]
        ]
        assert [o.targets for o in other] == [
            o.targets for o in outcome_lists[0]
        ]
    reference = services[0]
    for service in services:
        assert service.check_consistency() == []
        assert service.reach.equals(build_index(service.store, service.topo))
        assert service.reach.equals(reference.reach)
        assert list(service.topo) == list(reference.topo)


def _shared_chain_service(k: int):
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
    service = open_view(
        synthetic_atg(), db, config=ViewConfig(strict=False)
    )
    store, topo = service.store, service.topo
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
    return service, root, target


def _topo_repair_store_calls(k: int) -> dict[str, int]:
    """Store traffic of the ``L`` repair (``repair_topo_after_insert``)
    of the batched sharing insert into :func:`_shared_chain_service`'s
    view."""
    service, root, target = _shared_chain_service(k)
    store = service.store
    calls = {"children_of": 0, "descendants_of": 0}
    real_repair = updater_module.repair_topo_after_insert

    def counted_repair(*args):
        for name in calls:
            def counted(node, _real=getattr(store, name), _name=name):
                calls[_name] += 1
                return _real(node)
            setattr(store, name, counted)
        try:
            return real_repair(*args)
        finally:
            for name in calls:
                delattr(store, name)

    with mock.patch.object(
        updater_module, "repair_topo_after_insert", counted_repair
    ):
        with service.batch() as batch:
            outcome = batch.apply(
                InsertOp("//cnode[key=100]/sub", "cnode", (200, "v200"))
            )
            assert outcome.accepted and not outcome.stats["subtree_nodes"]
            assert service.topo.precedes(root, target)  # the swap ran
    assert service.check_consistency() == []
    return calls


def test_batched_sharing_insert_walks_only_what_it_moves():
    """The ``L`` repair reads the store below ``r_A`` only as far as
    ``L[u:r_A]``: no ``descendants_of``, and the ``swap`` walk's
    ``children_of`` calls do not grow with the shared subtree."""
    small = _topo_repair_store_calls(10)
    assert small["descendants_of"] == 0
    assert 0 < small["children_of"]
    assert _topo_repair_store_calls(1000) == small
