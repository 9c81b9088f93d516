"""The store's value index: ``(type, value_of) → nodes``.

The DAG evaluator seeds a leading ``//label[path = value]`` from it, so
it must hold exactly what ``node_sem`` says after every way nodes come
and go: ``intern``, ``ensure_node`` (replica folds, ``from_state``,
recovery) and ``remove_node`` (plan rollback, GC).
``ViewStore.value_index_is_exact()`` rebuilds it from ``node_sem``, and
``check_consistency()`` reports any difference.
"""

from __future__ import annotations

from repro import DeleteOp, InsertOp, ReplaceOp, ViewConfig, open_view
from repro.core.dag_eval import DagXPathEvaluator
from repro.replica import ReplicaView
from repro.views.store import ViewStore
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath


def _service(**config):
    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=4))
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    return dataset, open_view(dataset.atg, dataset.db, config=ViewConfig(**config))


def _lookups(store: ViewStore) -> dict:
    """Every PCDATA node's entry, read through the public lookup."""
    return {
        (store.type_of(n), store.value_of(n)): set(
            store.nodes_with_value(store.type_of(n), store.value_of(n))
        )
        for n in store.nodes()
        if store.value_of(n) is not None
    }


def _top_level_keys(dataset, store) -> list[int]:
    """Keys of top-level cnodes held under the root only."""
    keys = []
    for key in sorted(dataset.top_level):
        node = store.lookup("key", (key,))
        if node is None:
            continue
        (cnode,) = store.parents_of(node)
        if store.parents_of(cnode) == {store.root_id}:
            keys.append(key)
    return keys


# A churn of writes: a new key under a sub, a sharing insert, deletes that
# collect subtrees, and a replace.
def _churn(dataset, store) -> list:
    keys = _top_level_keys(dataset, store)
    return [
        InsertOp(f"//cnode[key={keys[0]}]/sub", "cnode", (9001, "w9001")),
        InsertOp(f"//cnode[key={keys[1]}]/sub", "cnode", (keys[2], f"v{keys[2]}")),
        DeleteOp(f"//cnode[key={keys[3]}]"),
        DeleteOp("//cnode[key=9001]"),
        ReplaceOp(f"//cnode[key={keys[4]}]", "cnode", (9002, "w9002")),
    ]


def test_keys_are_what_value_of_returns():
    dataset, service = _service()
    store = service.store
    assert store.value_index_is_exact()
    node = store.lookup("key", (min(dataset.top_level),))
    assert store.nodes_with_value("key", str(min(dataset.top_level))) == {node}
    # 8888 and "8888" share a key; an empty sem is ""
    number, _ = store.intern("key", (8888,))
    text, _ = store.intern("key", ("8888",))
    empty, _ = store.intern("val", ())
    assert store.nodes_with_value("key", "8888") == {number, text}
    assert store.nodes_with_value("val", "") == {empty}
    assert not store.nodes_with_value("cnode", "8888")  # not PCDATA
    assert store.value_index_is_exact()
    store.remove_node(number)
    assert store.nodes_with_value("key", "8888") == {text}
    for node in (empty, text):
        store.remove_node(node)
    assert store.value_index_is_exact()
    assert not store.nodes_with_value("key", "8888")
    assert not store.nodes_with_value("val", "")


def test_check_consistency_reports_a_stale_index():
    _, service = _service()
    assert service.check_consistency() == []
    store = service.store
    node = next(n for n in store.nodes() if store.type_of(n) == "key")
    store.nodes_with_value("key", store.value_of(node)).discard(node)
    assert any("value index" in p for p in service.check_consistency())


def test_an_aborted_plan_leaves_the_index_as_it_was():
    dataset, service = _service()
    store = service.store
    before, digest = _lookups(store), store.digest()
    key = _top_level_keys(dataset, store)[0]
    plan = service.plan(InsertOp(f"//cnode[key={key}]/sub", "cnode", (9001, "w9001")))
    assert plan.accepted
    # The planned nodes are interned, indexed and edge-less: a seeded
    # evaluation does not select them.
    assert len(store.nodes_with_value("key", "9001")) == 1
    assert store.value_index_is_exact()
    for text in ("//cnode[key=9001]", "//key[.=9001]"):
        assert service.xpath(text).targets == []
    plan.abort()
    assert store.digest() == digest
    assert _lookups(store) == before
    assert not store.nodes_with_value("key", "9001")
    assert store.value_index_is_exact()


def test_gc_of_a_deleted_subtree_drops_its_values():
    dataset, service = _service()
    store = service.store
    key = _top_level_keys(dataset, store)[0]
    node = store.lookup("key", (key,))
    assert service.apply(DeleteOp(f"//cnode[key={key}]")).accepted
    assert not store.has_node(node)
    assert not store.nodes_with_value("key", str(key))
    assert service.check_consistency() == []


def test_a_replica_fold_keeps_the_index():
    dataset, service = _service()
    replica = ReplicaView(service.atg, service)
    replica.bootstrap()
    assert replica.store.value_index_is_exact()
    for op in _churn(dataset, service.store):
        assert service.apply(op).accepted
    assert replica.pump() == 5
    assert replica.store.digest() == service.store.digest()
    assert replica.store.value_index_is_exact()
    assert _lookups(replica.store) == _lookups(service.store)
    assert replica.store.nodes_with_value("key", "9002")


def test_from_state_rebuilds_the_index():
    dataset, service = _service()
    for op in _churn(dataset, service.store):
        service.apply(op)
    copy = ViewStore.from_state(service.atg, service.store.export_state())
    assert copy.value_index_is_exact()
    assert _lookups(copy) == _lookups(service.store)


def test_wal_recovery_rebuilds_the_index(tmp_path):
    config = dict(wal_dir=str(tmp_path), wal_checkpoint_every=2, wal_segment_bytes=1024)
    dataset, service = _service(**config)
    for op in _churn(dataset, service.store):
        assert service.apply(op).accepted
    expected, digest = _lookups(service.store), service.store.digest()
    service.close()
    _, recovered = _service(**config)
    assert recovered.store.digest() == digest
    assert recovered.store.value_index_is_exact()
    assert _lookups(recovered.store) == expected
    assert recovered.check_consistency() == []
    # ... and the recovered service seeds from it
    store, evaluator = recovered.store, recovered.updater.evaluator()
    assert evaluator.reach is not None
    path = parse_xpath("//cnode[key=9002]")
    assert evaluator.evaluate(path).targets == DagXPathEvaluator(
        store, recovered.topo, None
    ).evaluate(path).targets != []
    recovered.close()
