"""Property-based differential test of the reachability index.

Hypothesis drives random streams of the full mutating ABC surface —
``insert`` / ``remove`` / ``set_ancestors`` / ``add_closure_below`` /
``retain_below`` / ``recompute`` (Algorithm Reach over a random
small DAG) — against ``BitsetReachabilityIndex`` in lockstep with the
reference ``SetReachabilityIndex`` as the oracle.  After every
operation the index must return the same value as the oracle and hold
the same pairs, and after the stream answer every query — the set forms, ``is_ancestor`` and
``region`` membership — the same way.  The Δ(M,L)delete sweep of
``maintain_delete`` then runs over the same random DAG on both classes
and must remove as many pairs and condemn the same nodes.  Over random
DAGs and random edge cuts and additions, ``region(store, S)`` must hold
exactly ``S ∪ store.descendants_of(S)``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from index_seam import Edges, dag_store
from repro.baselines import SetReachabilityIndex
from repro.core.maintenance import maintain_delete
from repro.core.topo import TopoOrder
from repro.index import BitsetReachabilityIndex

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


def _pairs(index):
    return sorted(index.pairs())


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), node, node),
        st.tuples(st.just("remove"), node, node),
        st.tuples(st.just("set_ancestors"), node, nodes),
        st.tuples(st.just("add_closure_below"), nodes, node),
        st.tuples(st.just("retain_below"), nodes),
        st.tuples(st.just("recompute"), dag_edges),
    ),
    max_size=30,
)


def _apply(index, op, edges):
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
            edges,
            [p for p in parents if p != n and not index.is_ancestor(n, p)],
            n,
        )
    if kind == "retain_below":
        return index.retain_below(edges, list(dict.fromkeys(rest[0])))
    if kind == "recompute":
        index.recompute(*dag_store(DAG_NODES, rest[0]))
        return None
    raise AssertionError(f"unknown op {op!r}")  # pragma: no cover


@settings(max_examples=60, deadline=None)
@given(ops=ops, probe=nodes, dag=dag_edges, cut=st.lists(st.integers(0, 13)))
def test_backends_agree_on_random_op_streams(ops, probe, dag, cut):
    oracle = SetReachabilityIndex()
    index = BitsetReachabilityIndex()

    for op in ops:
        edges = Edges.of_pairs(oracle)
        expected = _apply(oracle, op, edges)
        got = _apply(index, op, edges)
        assert got == expected, (op, got, expected)
        assert index.equals(oracle), (op, _pairs(index), _pairs(oracle))

    assert index.equals(oracle), (_pairs(index), _pairs(oracle))
    assert oracle.equals(index)
    assert len(index) == len(oracle) == len(set(index.pairs()))
    for n in NODES:
        assert index.anc(n) == oracle.anc(n), n
    assert index.anc_of_set(probe) == oracle.anc_of_set(probe)
    assert index.anc_or_self_mask(probe) == oracle.anc_or_self_mask(probe)
    edges = Edges.of_pairs(oracle)
    region, reference = index.region(edges, probe), oracle.region(edges, probe)
    assert [n in region for n in NODES] == [n in reference for n in NODES]
    assert set(region) == set(reference)
    assert bool(region) == bool(reference) == bool(probe)
    for a in probe:
        for d in NODES:
            assert index.is_ancestor(a, d) == oracle.is_ancestor(a, d)

    # Δ(M,L)delete over the random DAG: cut some edges, repair, compare.
    removed_edges = sorted({dag[i] for i in cut if i < len(dag)})
    targets = sorted({child for _, child in removed_edges})
    reports = []
    for reach in (index, oracle):
        store, topo = dag_store(DAG_NODES, dag)
        reach.recompute(store, topo)
        for parent, child in removed_edges:
            store.remove_edge(parent, child)
        before = len(reach)
        report = maintain_delete(store, topo, reach, targets)
        reports.append((before - len(reach), report.removed_nodes))
        fresh = type(reach)()
        fresh.recompute(store, TopoOrder.from_store(store))
        assert reach.equals(fresh), (dag, removed_edges)
        assert len(reach) == len(set(reach.pairs()))
    assert reports[0] == reports[1], (dag, removed_edges, reports)
    assert index.equals(oracle)


@settings(max_examples=60, deadline=None)
@given(
    dag=dag_edges,
    cut=st.lists(st.integers(0, 13)),
    grow=dag_edges,
    probes=st.lists(st.lists(dag_node, max_size=3), min_size=1, max_size=4),
)
def test_region_is_the_store_walk(dag, cut, grow, probes):
    """``region(store, S)`` answers ``S ∪ desc(S)`` on the candidate's
    ancestor row; it must agree with the store walk at every node, on
    both classes, at rest and after edge cuts (the Δ(M,L)delete sweep)
    and edge additions (``add_closure_below``)."""
    for index_class in (BitsetReachabilityIndex, SetReachabilityIndex):
        store, topo = dag_store(DAG_NODES, dag)
        reach = index_class()
        reach.recompute(store, topo)

        def check():
            for probe in probes:
                region = reach.region(store, probe)
                walked = set(probe) | store.descendants_of(probe)
                for n in range(DAG_NODES):
                    assert (n in region) == (n in walked), (probe, n)
                assert set(region) == walked
                assert bool(region) == bool(probe)

        check()
        removed = sorted({dag[i] for i in cut if i < len(dag)})
        for parent, child in removed:
            store.remove_edge(parent, child)
        maintain_delete(store, topo, reach, sorted({c for _, c in removed}))
        check()
        for parent, child in grow:  # smaller id to larger: never a cycle
            if parent in store.node_type and child in store.node_type:
                if store.add_edge(parent, child):
                    reach.add_closure_below(store, [parent], child)
        fresh = index_class()
        fresh.recompute(store, TopoOrder.from_store(store))
        assert reach.equals(fresh), (dag, removed, grow)
        check()
