"""Property-based differential test of the reachability index.

Hypothesis drives random streams of the full mutating ABC surface —
``insert`` / ``remove`` / ``set_ancestors`` / ``add_closure_below`` /
``retain_ancestors`` / ``drop_node`` / ``recompute`` (Algorithm Reach
over a random small DAG) — against ``BitsetReachabilityIndex`` in
lockstep with the
reference ``SetReachabilityIndex`` as the oracle.  After every
operation the index must return the same value as the oracle, and after
the stream answer every query — the set forms, ``desc_view`` and
``desc_mask_of_set`` — the same way.  The Δ(M,L)delete sweep of
``maintain_delete`` then runs over the same random DAG on both classes
and must remove the same pairs and condemn the same nodes.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SetReachabilityIndex
from repro.core.maintenance import maintain_delete
from repro.core.topo import TopoOrder
from repro.dtd.parser import parse_dtd
from repro.index import BitsetReachabilityIndex
from repro.views.store import ViewStore

#: Node-id universe: small and non-contiguous, so dense-row backends
#: must handle gaps and capacity growth past their initial allocation.
NODES = tuple(range(9)) + (40, 73, 130)

node = st.sampled_from(NODES)
nodes = st.lists(node, max_size=4)

#: A random small DAG over node ids 0..7 (a prefix of NODES): edges run
#: from the smaller id to the larger, so node 0 is a parentless root.
DAG_NODES = 8
dag_node = st.integers(0, DAG_NODES - 1)
dag_edges = st.lists(
    st.tuples(dag_node, dag_node).filter(lambda e: e[0] != e[1]),
    max_size=14,
).map(lambda pairs: sorted({(min(e), max(e)) for e in pairs}))

_DAG_DTD = parse_dtd("<!ELEMENT n (n*)>")


def _dag_store(edges):
    """``edges`` as a ViewStore (ids are the interning order) plus ``L``."""
    store = ViewStore(SimpleNamespace(dtd=_DAG_DTD))
    for i in range(DAG_NODES):
        store.intern("n", (i,))
    store.root_id = 0
    for parent, child in edges:
        store.add_edge(parent, child)
    return store, TopoOrder.from_store(store)


def _pairs(index):
    return sorted(index.pairs())


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), node, node),
        st.tuples(st.just("remove"), node, node),
        st.tuples(st.just("set_ancestors"), node, nodes),
        st.tuples(st.just("add_closure_below"), nodes, node),
        st.tuples(st.just("retain_ancestors"), node, nodes),
        st.tuples(st.just("drop_node"), node),
        st.tuples(st.just("recompute"), dag_edges),
    ),
    max_size=30,
)


def _apply(index, op):
    kind, *rest = op
    if kind == "insert":
        a, d = rest
        return index.insert(a, d) if a != d else None
    if kind == "remove":
        return index.remove(*rest)
    if kind == "set_ancestors":
        n, ancs = rest
        index.set_ancestors(n, {a for a in ancs if a != n})
        return None
    if kind == "add_closure_below":
        parents, n = rest
        # No cycle: a parent must not lie in {n} ∪ desc(n) (mirrors
        # real Δ(M,L)insert edges).
        return index.add_closure_below(
            [p for p in parents if p != n and not index.is_ancestor(n, p)], n
        )
    if kind == "retain_ancestors":
        n, parents = rest
        return index.retain_ancestors(n, [p for p in parents if p != n])
    if kind == "drop_node":
        index.drop_node(rest[0])
        return None
    if kind == "recompute":
        index.recompute(*_dag_store(rest[0]))
        return None
    raise AssertionError(f"unknown op {op!r}")  # pragma: no cover


@settings(max_examples=60, deadline=None)
@given(ops=ops, probe=nodes, dag=dag_edges, cut=st.lists(st.integers(0, 13)))
def test_backends_agree_on_random_op_streams(ops, probe, dag, cut):
    oracle = SetReachabilityIndex()
    index = BitsetReachabilityIndex()

    for op in ops:
        expected = _apply(oracle, op)
        got = _apply(index, op)
        assert got == expected, (op, got, expected)

    assert index.equals(oracle), (_pairs(index), _pairs(oracle))
    assert oracle.equals(index)
    assert len(index) == len(oracle)
    assert index.check_invariants() == []
    for n in NODES:
        assert index.anc(n) == oracle.anc(n), n
        assert index.desc(n) == oracle.desc(n), n
        assert sorted(index.desc_view(n)) == sorted(oracle.desc_view(n)), n
    assert index.anc_of_set(probe) == oracle.anc_of_set(probe)
    assert index.desc_of_set(probe) == oracle.desc_of_set(probe)
    assert sorted(index.desc_mask_of_set(probe)) == sorted(
        oracle.desc_mask_of_set(probe)
    )
    for a in probe:
        for d in NODES:
            assert index.is_ancestor(a, d) == oracle.is_ancestor(a, d)

    # Δ(M,L)delete over the random DAG: cut some edges, repair, compare.
    removed_edges = sorted({dag[i] for i in cut if i < len(dag)})
    targets = sorted({child for _, child in removed_edges})
    reports = []
    for reach in (index, oracle):
        store, topo = _dag_store(dag)
        reach.recompute(store, topo)
        for parent, child in removed_edges:
            store.remove_edge(parent, child)
        report = maintain_delete(store, topo, reach, targets)
        reports.append((report.removed_pairs, report.removed_nodes))
        fresh = type(reach)()
        fresh.recompute(store, TopoOrder.from_store(store))
        assert reach.equals(fresh), (dag, removed_edges)
        assert reach.check_invariants() == []
    assert reports[0] == reports[1], (dag, removed_edges, reports)
    assert index.equals(oracle)
