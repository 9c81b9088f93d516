"""The reachability index: one integer bitmask per row of ``M``.

Node ids in a :class:`~repro.views.store.ViewStore` are dense integers
(the interner hands them out sequentially), so a row of ``M`` is an
arbitrary-precision Python ``int`` whose bit ``k`` means "node ``k`` is
in the row".  Row union is ``|``, membership is ``(mask >> k) & 1``,
cardinality is ``int.bit_count()`` — all executed word-at-a-time in C,
so the union-heavy hot loops (Algorithm Reach, the Δ(M,L) maintenance
steps, region queries) run ~64 pairs per machine operation instead of
one hash probe per pair.

``recompute`` avoids per-pair work entirely: the ancestor rows are one
backward DP sweep of mask unions, and the descendant mirror is the
symmetric *forward* sweep (``desc(v) = ⋃_child {c} ∪ desc(c)``) rather
than a transpose of the ancestor rows.

Set-returning accessors materialize a Python set from the mask (O(row)),
so point-query-heavy callers should prefer the bulk operations; the
incremental maintenance algorithms only pay materialization on the small
deltas they actually touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.index._bits import MaskView, iter_bits, mask_of
from repro.index.base import ReachabilityIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


class BitsetReachabilityIndex(ReachabilityIndex):
    """Reachability matrix with one ``int`` bitmask per row."""

    __slots__ = ("_anc", "_desc", "_pairs")

    def __init__(self) -> None:
        self._anc: dict[int, int] = {}
        self._desc: dict[int, int] = {}
        self._pairs = 0

    # -- queries ------------------------------------------------------------------

    def anc(self, node: int) -> set[int]:
        """Proper ancestors of ``node`` (excludes the node itself)."""
        return set(iter_bits(self._anc.get(node, 0)))

    def desc(self, node: int) -> set[int]:
        """Proper descendants of ``node`` (excludes the node itself)."""
        return set(iter_bits(self._desc.get(node, 0)))

    def is_ancestor(self, a: int, d: int) -> bool:
        return bool(self._desc.get(a, 0) >> d & 1)

    def desc_view(self, node: int) -> MaskView:
        return MaskView(self._desc.get(node, 0))

    def __len__(self) -> int:
        return self._pairs

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

    def desc_of_set(self, nodes: Iterable[int]) -> set[int]:
        rows = self._desc
        mask = 0
        for node in nodes:
            mask |= rows.get(node, 0)
        return set(iter_bits(mask))

    def desc_mask_of_set(self, nodes: Iterable[int]) -> MaskView:
        rows = self._desc
        mask = 0
        for node in nodes:
            mask |= rows.get(node, 0)
        return MaskView(mask)

    # -- point mutation -----------------------------------------------------------

    def insert(self, anc: int, desc: int) -> bool:
        bit = 1 << anc
        row = self._anc.get(desc, 0)
        if row & bit:
            return False
        self._anc[desc] = row | bit
        self._desc[anc] = self._desc.get(anc, 0) | (1 << desc)
        self._pairs += 1
        return True

    def remove(self, anc: int, desc: int) -> bool:
        bit = 1 << anc
        row = self._anc.get(desc, 0)
        if not row & bit:
            return False
        self._set_row(self._anc, desc, row ^ bit)
        self._set_row(self._desc, anc, self._desc.get(anc, 0) & ~(1 << desc))
        self._pairs -= 1
        return True

    def set_ancestors(self, node: int, ancestors: set[int]) -> None:
        new = mask_of(ancestors)
        old = self._anc.get(node, 0)
        added = new & ~old
        removed = old & ~new
        if added or removed:
            mirror = self._desc
            bit = 1 << node
            for anc in iter_bits(added):
                mirror[anc] = mirror.get(anc, 0) | bit
            for anc in iter_bits(removed):
                self._set_row(mirror, anc, mirror.get(anc, 0) & ~bit)
            self._pairs += added.bit_count() - removed.bit_count()
        self._set_row(self._anc, node, new)

    def drop_node(self, node: int) -> None:
        bit = 1 << node
        anc_row = self._anc.pop(node, 0)
        for anc in iter_bits(anc_row):
            self._set_row(self._desc, anc, self._desc.get(anc, 0) & ~bit)
        desc_row = self._desc.pop(node, 0)
        for desc in iter_bits(desc_row):
            self._set_row(self._anc, desc, self._anc.get(desc, 0) & ~bit)
        self._pairs -= anc_row.bit_count() + desc_row.bit_count()

    def clear(self) -> None:
        self._anc.clear()
        self._desc.clear()
        self._pairs = 0

    @staticmethod
    def _set_row(rows: dict[int, int], node: int, mask: int) -> None:
        """Store a row, keeping the no-empty-rows invariant."""
        if mask:
            rows[node] = mask
        else:
            rows.pop(node, None)

    # -- bulk operations ------------------------------------------------------------

    def recompute(self, store: "ViewStore", topo: "TopoOrder") -> None:
        self.clear()
        anc: dict[int, int] = {}
        pairs = 0
        for node in topo.backward():  # ancestors first
            mask = 0
            for parent in store.parents_of(node):
                mask |= (1 << parent) | anc.get(parent, 0)
            if mask:
                anc[node] = mask
                pairs += mask.bit_count()
        # The mirror is the symmetric DP, not a transpose: children first.
        desc: dict[int, int] = {}
        for node in topo:
            mask = 0
            for child in store.children_of(node):
                mask |= (1 << child) | desc.get(child, 0)
            if mask:
                desc[node] = mask
        self._anc = anc
        self._desc = desc
        self._pairs = pairs

    def add_closure_below(self, parents: Iterable[int], node: int) -> int:
        rows = self._anc
        get = rows.get
        upper = 0
        for parent in parents:
            upper |= (1 << parent) | get(parent, 0)
        missing = upper & ~get(node, 0)
        if not missing:
            return 0
        lower = self._desc.get(node, 0) | (1 << node)
        added = 0
        for desc in iter_bits(lower):
            old = get(desc, 0)
            new = missing & ~old
            if new:
                rows[desc] = old | new
                added += new.bit_count()
        # The mirror OR is idempotent: bits already present were
        # mirror-consistent before, so blanket-ORing the lower mask into
        # every missing ancestor's row lands exactly on the new state.
        mirror = self._desc
        for anc in iter_bits(missing):
            mirror[anc] = mirror.get(anc, 0) | lower
        self._pairs += added
        return added

    def retain_ancestors(self, node: int, parents: Iterable[int]) -> int:
        rows = self._anc
        get = rows.get
        old = get(node, 0)
        if not old:
            return 0
        keep = 0
        for parent in parents:
            keep |= (1 << parent) | get(parent, 0)
        removed = old & ~keep
        if not removed:
            return 0
        self._set_row(rows, node, old & keep)
        mirror = self._desc
        mget = mirror.get
        clear = ~(1 << node)
        m = removed
        while m:
            low = m & -m
            anc = low.bit_length() - 1
            row = mget(anc, 0) & clear
            if row:
                mirror[anc] = row
            else:
                mirror.pop(anc, None)
            m ^= low
        count = removed.bit_count()
        self._pairs -= count
        return count

    # -- management -----------------------------------------------------------------

    def equals(self, other: ReachabilityIndex) -> bool:
        if isinstance(other, BitsetReachabilityIndex):
            # Both sides keep the no-empty-rows invariant, so the dicts
            # are canonical.
            return self._anc == other._anc
        return super().equals(other)

    def _desc_keys(self) -> set[int]:
        return set(self._desc)
