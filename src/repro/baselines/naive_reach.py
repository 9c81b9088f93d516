"""Reachability without Algorithm Reach's dynamic programming.

Two comparators for the A-1 ablation:

- :func:`naive_reachability` — independent DFS from every node
  (no sharing of ancestor sets between nodes);
- :func:`squaring_reachability` — semi-naive closure by repeated
  relational composition ``M ← M ∪ M∘E`` until fixpoint, the
  ``O(|V|² log |V|)`` textbook approach the paper cites as the
  alternative to Algorithm Reach (Section 3.1).
"""

from __future__ import annotations

from repro.baselines.set_index import SetReachabilityIndex
from repro.views.store import ViewStore


def naive_reachability(store: ViewStore) -> SetReachabilityIndex:
    """Per-node DFS: recomputes each descendant set from scratch."""
    matrix = SetReachabilityIndex()
    for start in sorted(store.nodes()):
        seen: set[int] = set()
        stack = list(store.children_of(start))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(store.children_of(node))
        for node in seen:
            matrix.insert(start, node)
    return matrix


def squaring_reachability(store: ViewStore) -> SetReachabilityIndex:
    """Semi-naive closure: compose the frontier with the edge relation."""
    desc: dict[int, set[int]] = {
        node: set(store.children_of(node)) for node in store.nodes()
    }
    frontier: dict[int, set[int]] = {n: set(d) for n, d in desc.items()}
    while True:
        new_frontier: dict[int, set[int]] = {}
        for node, reached in frontier.items():
            grown: set[int] = set()
            for mid in reached:
                grown |= desc_base(store, mid)
            fresh = grown - desc[node]
            if fresh:
                desc[node] |= fresh
                new_frontier[node] = fresh
        if not new_frontier:
            break
        frontier = new_frontier
    matrix = SetReachabilityIndex()
    for node, reached in desc.items():
        for target in reached:
            matrix.insert(node, target)
    return matrix


def desc_base(store: ViewStore, node: int) -> set[int]:
    return set(store.children_of(node))
