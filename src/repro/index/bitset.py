"""The reachability index: one integer bitmask per row of ``M``.

Node ids in a :class:`~repro.views.store.ViewStore` are dense integers
(the interner hands them out sequentially), so a row of ``M`` is an
arbitrary-precision Python ``int`` whose bit ``k`` means "node ``k`` is
in the row".  Row union is ``|``, membership is ``(mask >> k) & 1``,
cardinality is ``int.bit_count()`` — all executed word-at-a-time in C,
so the union-heavy hot loops (Algorithm Reach, the Δ(M,L) maintenance
steps) run ~64 pairs per machine operation instead of one hash probe
per pair.

Only ancestor rows are kept (``_anc[d]`` has bit ``a`` for every pair
``(a, d)``).  Descendant sets are walked on the store's edges when they
must be listed; a membership question — is ``x`` in ``S ∪ desc(S)`` —
is one AND of ``x``'s own row (:class:`~repro.index._bits.Region`).

Set-returning accessors materialize a Python set from the mask (O(row)),
so point-query-heavy callers should prefer the bulk operations; the
incremental maintenance algorithms only pay materialization on the small
deltas they actually touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.index._bits import Region, iter_bits, mask_of
from repro.index.base import ReachabilityIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


class BitsetReachabilityIndex(ReachabilityIndex):
    """Reachability matrix with one ``int`` bitmask per ancestor row."""

    __slots__ = ("_anc",)

    def __init__(self) -> None:
        self._anc: dict[int, int] = {}

    # -- queries ------------------------------------------------------------------

    def anc(self, node: int) -> set[int]:
        """Proper ancestors of ``node`` (excludes the node itself)."""
        return set(iter_bits(self._anc.get(node, 0)))

    def is_ancestor(self, a: int, d: int) -> bool:
        return bool(self._anc.get(d, 0) >> a & 1)

    def region(self, store: "ViewStore", nodes: list[int]) -> Region:
        return Region(nodes, self._anc, store)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._anc.values())

    def pairs(self) -> Iterator[tuple[int, int]]:
        for desc_node, mask in self._anc.items():
            for anc_node in iter_bits(mask):
                yield (anc_node, desc_node)

    def anc_of_set(self, nodes: Iterable[int]) -> set[int]:
        rows = self._anc
        mask = 0
        for node in nodes:
            mask |= rows.get(node, 0)
        return set(iter_bits(mask))

    def anc_or_self_mask(self, nodes: Iterable[int]) -> int:
        get = self._anc.get
        mask = 0
        for node in nodes:
            mask |= 1 << node | get(node, 0)
        return mask

    # -- point mutation -----------------------------------------------------------

    def insert(self, anc: int, desc: int) -> bool:
        bit = 1 << anc
        row = self._anc.get(desc, 0)
        if row & bit:
            return False
        self._anc[desc] = row | bit
        return True

    def remove(self, anc: int, desc: int) -> bool:
        bit = 1 << anc
        row = self._anc.get(desc, 0)
        if not row & bit:
            return False
        self._set_row(desc, row ^ bit)
        return True

    def set_ancestors(self, node: int, ancestors: set[int]) -> None:
        self._set_row(node, mask_of(ancestors))

    def clear(self) -> None:
        self._anc.clear()

    def _set_row(self, node: int, mask: int) -> None:
        """Store a row, keeping the no-empty-rows invariant."""
        if mask:
            self._anc[node] = mask
        else:
            self._anc.pop(node, None)

    # -- bulk operations ------------------------------------------------------------

    def recompute(self, store: "ViewStore", topo: "TopoOrder") -> None:
        anc: dict[int, int] = {}
        for node in topo.backward():  # ancestors first
            mask = 0
            for parent in store.parents_of(node):
                mask |= (1 << parent) | anc.get(parent, 0)
            if mask:
                anc[node] = mask
        self._anc = anc

    def add_closure_below(
        self, store: "ViewStore", parents: Iterable[int], node: int
    ) -> None:
        rows = self._anc
        get = rows.get
        upper = 0
        for parent in parents:
            upper |= (1 << parent) | get(parent, 0)
        missing = upper & ~get(node, 0)
        if not missing:
            return
        children_of = store.children_of
        stack = [node]
        seen = {node}
        while stack:
            desc = stack.pop()
            old = get(desc, 0)
            new = missing & ~old
            if not new:
                continue  # closed below: its descendants hold it too
            rows[desc] = old | new
            for child in children_of(desc):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)

    def retain_below(
        self, store: "ViewStore", order: Iterable[int]
    ) -> list[int]:
        rows = self._anc
        get = rows.get
        parents = store.parents.get
        root = store.root_id
        condemned: list[int] = []
        doomed: set[int] = set()
        for node in order:
            keep = 0
            for parent in parents(node, ()):
                if parent not in doomed:
                    keep |= get(parent, 0) | 1 << parent
            if not keep and node != root:
                doomed.add(node)
                condemned.append(node)
            old = get(node, 0)
            row = old & keep
            if row != old:
                if row:
                    rows[node] = row
                else:
                    rows.pop(node)
        return condemned

    # -- management -----------------------------------------------------------------

    def equals(self, other: ReachabilityIndex) -> bool:
        if isinstance(other, BitsetReachabilityIndex):
            # Both sides keep the no-empty-rows invariant, so the dicts
            # are canonical.
            return self._anc == other._anc
        return super().equals(other)
