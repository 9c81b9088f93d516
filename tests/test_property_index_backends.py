"""Property-based differential test of the reachability-index backends.

Hypothesis drives random streams of the full mutating ABC surface —
``insert`` / ``remove`` / ``set_ancestors`` / ``extend_ancestors`` /
``add_cross_pairs`` / ``add_anc_closure_pairs`` / ``retain_ancestors``
/ ``drop_node`` — against ``bitset`` in lockstep with the reference
``sets`` backend as the oracle.  After every operation the backend must
return the same value as the oracle and answer every query the same
way; ``copy`` snapshots taken mid-stream must stay untouched by the
rest of the stream.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BACKENDS, make_index

ALL_BACKENDS = sorted(BACKENDS)

#: Node-id universe: small and non-contiguous, so dense-row backends
#: must handle gaps and capacity growth past their initial allocation.
NODES = tuple(range(9)) + (40, 73, 130)

node = st.sampled_from(NODES)
nodes = st.lists(node, max_size=4)


def _pairs(index):
    return sorted(index.pairs())


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), node, node),
        st.tuples(st.just("remove"), node, node),
        st.tuples(st.just("set_ancestors"), node, nodes),
        st.tuples(st.just("extend_ancestors"), node, nodes),
        st.tuples(st.just("add_cross_pairs"), nodes, nodes),
        st.tuples(st.just("add_anc_closure_pairs"), nodes, nodes),
        st.tuples(st.just("retain_ancestors"), node, nodes),
        st.tuples(st.just("drop_node"), node),
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
    if kind == "extend_ancestors":
        n, parents = rest
        return index.extend_ancestors(n, [p for p in parents if p != n])
    if kind == "add_cross_pairs":
        upper, lower = rest
        return index.add_cross_pairs(upper, set(lower) - set(upper))
    if kind == "add_anc_closure_pairs":
        targets, lower = rest
        # Keep the closure loop-free: lower must not reach back into
        # the upper closure (mirrors real Δ(M,L)insert subtrees).
        upper = set(targets) | index.anc_of_set(targets)
        return index.add_anc_closure_pairs(targets, set(lower) - upper)
    if kind == "retain_ancestors":
        n, parents = rest
        return index.retain_ancestors(n, [p for p in parents if p != n])
    if kind == "drop_node":
        index.drop_node(rest[0])
        return None
    raise AssertionError(f"unknown op {op!r}")  # pragma: no cover


@settings(max_examples=60, deadline=None)
@given(ops=ops, probe=nodes)
def test_backends_agree_on_random_op_streams(ops, probe):
    oracle = make_index("sets")
    others = {b: make_index(b) for b in ALL_BACKENDS if b != "sets"}

    for op in ops:
        expected = _apply(oracle, op)
        for backend, index in others.items():
            got = _apply(index, op)
            assert got == expected, (backend, op, got, expected)

    for backend, index in others.items():
        assert index.equals(oracle), (backend, _pairs(index), _pairs(oracle))
        assert len(index) == len(oracle)
        assert index.check_invariants() == []
        for n in NODES:
            assert index.anc(n) == oracle.anc(n), (backend, n)
            assert index.desc(n) == oracle.desc(n), (backend, n)
        assert index.anc_of_set(probe) == oracle.anc_of_set(probe)
        assert index.desc_of_set(probe) == oracle.desc_of_set(probe)
        for a in probe:
            for d in NODES:
                assert index.is_ancestor(a, d) == oracle.is_ancestor(a, d)
