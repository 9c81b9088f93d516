"""The topological order ``L`` (paper, Section 3.1).

``L`` lists every distinct node of the DAG such that *u precedes v only
if u is not an ancestor of v* — descendants come first, the root last.
The paper's bottom-up filter pass iterates ``L`` forward (children
before parents); Algorithm Reach iterates it backward (parents before
children).

The class also provides the primitive the maintenance algorithms build
on: ``swap(u, v)`` (paper, Section 3.4) which, after inserting edge
``(u, v)`` when ``u`` currently precedes ``v``, moves ``v`` and the
descendants of ``v`` lying between them to just before ``u``.  ``L``
answers to the store's edges alone: ``swap`` finds what moves by a walk
of the children below ``v``, and :meth:`TopoOrder.is_valid_for` checks
the order edge by edge; neither reads ``M``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.errors import CycleError, ReproError
from repro.views.store import ViewStore


class TopoOrder:
    """A maintained topological order over node ids.

    ``position(n)`` is ``_pos[n] - _base``, ``n``'s slot in ``_list``:
    positions are stored against a base, so every mutator rewrites the
    shorter side only.  A new node below the middle (every new leaf of
    Δ(M,L)insert goes to the front) lowers the base and rewrites the
    prefix before it; one at or past the middle rewrites the suffix.
    :meth:`swap` rewrites the segment it reorders, which it splits by a
    walk of the store's children below ``v``.  :meth:`remove_many`
    leaves a tombstone (``None``) in each dead slot and rewrites no
    position; the tombstones are compacted away, with one rewrite of
    every position, once they fill an eighth of the slots (so a swap's
    or an insertion's rewrite crosses few of them).  So positions
    order like ``L`` and index its slots, but are ranks only while no
    tombstone is left; iteration skips the tombstones.
    """

    def __init__(self, order: list[int] | None = None):
        self._list: list[int | None] = list(order) if order else []
        self._pos: dict[int, int] = {n: i for i, n in enumerate(self._list)}
        self._base = 0
        self._dead = 0  # tombstoned slots in _list
        if len(self._pos) != len(self._list):
            raise ReproError("duplicate nodes in topological order")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_store(cls, store: ViewStore) -> "TopoOrder":
        """Compute ``L`` from scratch in ``O(|V|)`` (Kahn, reversed)."""
        return cls(_toposort(store))

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._list) - self._dead

    def __iter__(self) -> Iterator[int]:
        """Forward iteration: descendants before ancestors."""
        if self._dead:
            return (n for n in self._list if n is not None)
        return iter(self._list)

    def __contains__(self, node: int) -> bool:
        return node in self._pos

    def backward(self) -> Iterator[int]:
        """Backward iteration: ancestors before descendants."""
        if self._dead:
            return (n for n in reversed(self._list) if n is not None)
        return reversed(self._list)

    def position(self, node: int) -> int:
        """``node``'s slot: positions order like ``L`` (they are ranks
        while no removal has left a tombstone)."""
        try:
            return self._pos[node] - self._base
        except KeyError:
            raise ReproError(f"node {node} not in topological order") from None

    def precedes(self, u: int, v: int) -> bool:
        return self.position(u) < self.position(v)

    def as_list(self) -> list[int]:
        return list(self)

    def sort_nodes(self, nodes) -> list[int]:
        """Sort the given nodes by their position in ``L``.

        Stored entries order like positions (they differ by the base),
        so the sort keys on them directly."""
        try:
            return sorted(nodes, key=self._pos.__getitem__)
        except KeyError as exc:
            raise ReproError(
                f"node {exc.args[0]} not in topological order"
            ) from None

    # -- mutation ------------------------------------------------------------------

    def append(self, node: int) -> None:
        """Add a new node at the end (as an ancestor-most element)."""
        if node in self._pos:
            raise ReproError(f"node {node} already in topological order")
        self._pos[node] = len(self._list) + self._base
        self._list.append(node)

    def insert_front(self, node: int) -> None:
        """Add a new node at the front (as a descendant-most element)."""
        self.insert_at(node, 0)

    def insert_at(self, node: int, index: int) -> None:
        """Insert a new node at position (slot) ``index``.

        The shorter side moves: below the middle the base drops and the
        prefix is rewritten, so ``min(index, len - index) + 1`` entries
        change.
        """
        if node in self._pos:
            raise ReproError(f"node {node} already in topological order")
        index = max(0, min(index, len(self._list)))
        self._list.insert(index, node)
        if 2 * index < len(self._list) - 1:
            self._base -= 1
            self._reindex(0, index + 1)
        else:
            self._reindex(index)

    def remove_many(self, nodes: Iterable[int]) -> None:
        """Remove nodes; the survivors keep their relative order.

        Removal never invalidates the order (paper, Section 3.4).  Each
        dead slot keeps a tombstone and no position is rewritten, until
        the tombstones fill an eighth of the slots: then one compaction
        drops them all and rewrites every position.
        """
        dead = set(nodes)
        pos = self._pos
        for node in dead:
            if node not in pos:
                raise ReproError(f"node {node} not in topological order")
        slots, base = self._list, self._base
        for node in dead:
            slots[pos.pop(node) - base] = None
        self._dead += len(dead)
        if 8 * self._dead >= len(slots):
            slots[:] = [n for n in slots if n is not None]
            self._base = self._dead = 0
            self._reindex(0)

    def swap(
        self, u: int, v: int, children_of: Callable[[int], Iterable[int]]
    ) -> int:
        """Repair ``L`` after inserting edge ``(u, v)``.

        Precondition: ``u`` precedes ``v``.  Moves ``{v} ∪ (L[u:v] ∩
        desc(v))`` immediately before ``u``, preserving their relative
        order.  ``desc(v)`` is walked through ``children_of``, and the
        walk stops at any node placed before ``u``: ``L`` already orders
        every edge below ``v``, so all of that node's descendants are
        placed before ``u`` too.  Returns the number of nodes moved.
        """
        start, stop = self.position(u), self.position(v)
        if stop < start:
            return 0
        pos, low = self._pos, start + self._base
        below: set[int] = set()
        stack = [v]
        while stack:
            for child in children_of(stack.pop()):
                if pos[child] >= low and child not in below:
                    below.add(child)
                    stack.append(child)
        segment = self._list[start:stop]
        moving = [n for n in segment if n in below]
        moving.append(v)
        staying = [n for n in segment if n not in below]
        self._list[start : stop + 1] = moving + staying
        self._reindex(start, stop + 1)  # positions past v do not move
        return len(moving)

    def _reindex(self, start: int, stop: int | None = None) -> None:
        stop = len(self._list) if stop is None else stop
        base = self._base
        self._pos.update(
            zip(self._list[start:stop], range(start + base, stop + base))
        )
        if self._dead:
            self._pos.pop(None, None)  # a tombstone in the range

    # -- validation (test helper) ------------------------------------------------------

    def is_valid_for(self, store: ViewStore) -> bool:
        """Check the invariant: every child of a node in ``L`` precedes it.

        One pass over the edges leaving ``L``'s nodes.  Nodes the store
        interned without edges (a held plan's) need not be in ``L``.
        """
        pos = self._pos
        for node, at in pos.items():
            for child in store.children_of(node):
                if pos.get(child, at) >= at:
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
