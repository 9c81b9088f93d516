"""The topological order ``L`` (paper, Section 3.1).

``L`` lists every distinct node of the DAG such that *u precedes v only
if u is not an ancestor of v* — descendants come first, the root last.
The bottom-up filter pass iterates ``L`` forward (children before
parents); Algorithm Reach iterates it backward (parents before children).

The class also provides the primitive the maintenance algorithms build
on: ``swap(u, v)`` (paper, Section 3.4) which, after inserting edge
``(u, v)`` when ``u`` currently precedes ``v``, moves ``v`` and the
descendants of ``v`` lying between them to just before ``u``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import CycleError, ReproError
from repro.views.store import ViewStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index import ReachabilityIndex


class TopoOrder:
    """A maintained topological order over node ids."""

    def __init__(self, order: list[int] | None = None):
        self._list: list[int] = list(order) if order else []
        self._pos: dict[int, int] = {n: i for i, n in enumerate(self._list)}
        if len(self._pos) != len(self._list):
            raise ReproError("duplicate nodes in topological order")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_store(cls, store: ViewStore) -> "TopoOrder":
        """Compute ``L`` from scratch in ``O(|V|)`` (Kahn, reversed)."""
        return cls(_toposort(store))

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self) -> Iterator[int]:
        """Forward iteration: descendants before ancestors."""
        return iter(self._list)

    def __contains__(self, node: int) -> bool:
        return node in self._pos

    def backward(self) -> Iterator[int]:
        """Backward iteration: ancestors before descendants."""
        return reversed(self._list)

    def position(self, node: int) -> int:
        try:
            return self._pos[node]
        except KeyError:
            raise ReproError(f"node {node} not in topological order") from None

    def precedes(self, u: int, v: int) -> bool:
        return self.position(u) < self.position(v)

    def as_list(self) -> list[int]:
        return list(self._list)

    def sort_nodes(self, nodes) -> list[int]:
        """Sort the given nodes by their position in ``L``."""
        return sorted(nodes, key=self.position)

    # -- mutation ------------------------------------------------------------------

    def append(self, node: int) -> None:
        """Add a new node at the end (as an ancestor-most element)."""
        if node in self._pos:
            raise ReproError(f"node {node} already in topological order")
        self._pos[node] = len(self._list)
        self._list.append(node)

    def insert_front(self, node: int) -> None:
        """Add a new node at the front (as a descendant-most element)."""
        if node in self._pos:
            raise ReproError(f"node {node} already in topological order")
        self._list.insert(0, node)
        self._reindex(0)

    def insert_at(self, node: int, index: int) -> None:
        """Insert a new node at position ``index``."""
        if node in self._pos:
            raise ReproError(f"node {node} already in topological order")
        index = max(0, min(index, len(self._list)))
        self._list.insert(index, node)
        self._reindex(index)

    def remove(self, node: int) -> None:
        """Remove a node.

        Removal never invalidates the order of the remaining elements
        (paper, Section 3.4).
        """
        pos = self.position(node)
        del self._list[pos]
        del self._pos[node]
        self._reindex(pos)

    def remove_many(self, nodes: Iterable[int]) -> None:
        """Remove several nodes with a single rebuild/reindex pass.

        Equivalent to calling :meth:`remove` per node (removal never
        invalidates the order of the survivors) but O(|L|) total
        instead of O(|L|) per node.
        """
        dead = set(nodes)
        if not dead:
            return
        for node in dead:
            if node not in self._pos:
                raise ReproError(f"node {node} not in topological order")
        start = min(self._pos[node] for node in dead)
        self._list = [n for n in self._list if n not in dead]
        for node in dead:
            del self._pos[node]
        self._reindex(start)

    def swap(self, u: int, v: int, descendants_of_v) -> int:
        """Repair ``L`` after inserting edge ``(u, v)``.

        Precondition: ``u`` precedes ``v``.  Moves ``{v} ∪ (L[u:v] ∩
        desc(v))`` immediately before ``u``, preserving their relative
        order.  Returns the number of nodes moved.
        """
        pos_u = self.position(u)
        pos_v = self.position(v)
        if pos_v < pos_u:
            return 0
        segment = self._list[pos_u : pos_v + 1]
        moving = [n for n in segment if n == v or n in descendants_of_v]
        staying = [n for n in segment if n != v and n not in descendants_of_v]
        self._list[pos_u : pos_v + 1] = moving + staying
        self._reindex(pos_u, pos_v + 1)  # positions past v do not move
        return len(moving)

    def _reindex(self, start: int, stop: int | None = None) -> None:
        if start == 0 and stop is None:
            self._pos = dict(zip(self._list, range(len(self._list))))
        else:
            stop = len(self._list) if stop is None else stop
            self._pos.update(zip(self._list[start:stop], range(start, stop)))

    # -- validation (test helper) ------------------------------------------------------

    def is_valid_for(
        self, is_ancestor: "Callable[[int, int], bool] | ReachabilityIndex"
    ) -> bool:
        """Check the invariant: u precedes v ⇒ u is not an ancestor of v.

        Accepts either an ``is_ancestor(u, v)`` predicate or a
        :class:`~repro.index.ReachabilityIndex` directly.
        """
        if not callable(is_ancestor):
            is_ancestor = is_ancestor.is_ancestor
        for i, u in enumerate(self._list):
            for v in self._list[i + 1 :]:
                if is_ancestor(u, v):
                    return False
        return True


def _toposort(store: ViewStore) -> list[int]:
    """Descendants-first topological sort of the store's DAG (all nodes)."""
    indegree: dict[int, int] = {}
    for node in store.nodes():
        indegree[node] = 0
    for node in store.nodes():
        for child in store.children_of(node):
            indegree[child] += 1
    # Kahn's algorithm ancestors-first, then reverse.  Sorted seeds keep
    # the result deterministic.
    ready = sorted((n for n, d in indegree.items() if d == 0), reverse=True)
    order: list[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        inserted: list[int] = []
        for child in store.children_of(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                inserted.append(child)
        for child in sorted(inserted, reverse=True):
            ready.append(child)
    if len(order) != len(indegree):
        raise CycleError("view store graph contains a cycle")
    order.reverse()
    return order
