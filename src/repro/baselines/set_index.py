"""The reference reachability index: a dict of ancestor ``set`` rows.

The paper's matrix as first written, behind the
:class:`~repro.index.base.ReachabilityIndex` interface and kept as the
oracle :class:`~repro.index.bitset.BitsetReachabilityIndex` is validated
against (the lockstep tests drive both; the product never constructs
this one).  ``M`` is "physically stored" as the set of its set bits —
one adjacency map node → ancestors, the in-memory equivalent of the
paper's ``M(anc, desc)`` relation read by its ``desc`` column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.index._bits import Region, mask_of
from repro.index.base import ReachabilityIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


class SetReachabilityIndex(ReachabilityIndex):
    """Sparse reachability matrix of ancestor sets."""

    __slots__ = ("_anc", "_pairs")

    def __init__(self) -> None:
        self._anc: dict[int, set[int]] = {}
        self._pairs = 0

    # -- queries ------------------------------------------------------------------

    def anc(self, node: int) -> set[int]:
        """Proper ancestors of ``node`` (excludes the node itself)."""
        return set(self._anc.get(node, ()))

    def is_ancestor(self, a: int, d: int) -> bool:
        return a in self._anc.get(d, ())

    def region(self, store: "ViewStore", nodes: list[int]) -> Region:
        return Region(nodes, _RowMasks(self._anc), store)

    def __len__(self) -> int:
        return self._pairs

    def pairs(self) -> Iterator[tuple[int, int]]:
        for desc_node, ancestors in self._anc.items():
            for anc_node in ancestors:
                yield (anc_node, desc_node)

    def anc_of_set(self, nodes: Iterable[int]) -> set[int]:
        out: set[int] = set()
        rows = self._anc
        for node in nodes:
            row = rows.get(node)
            if row:
                out |= row
        return out

    def anc_or_self_mask(self, nodes: Iterable[int]) -> int:
        nodes = set(nodes)
        return mask_of(nodes | self.anc_of_set(nodes))

    # -- point mutation -----------------------------------------------------------

    def insert(self, anc: int, desc: int) -> bool:
        bucket = self._anc.setdefault(desc, set())
        if anc in bucket:
            return False
        bucket.add(anc)
        self._pairs += 1
        return True

    def remove(self, anc: int, desc: int) -> bool:
        bucket = self._anc.get(desc)
        if bucket is None or anc not in bucket:
            return False
        bucket.discard(anc)
        self._pairs -= 1
        return True

    def set_ancestors(self, node: int, ancestors: set[int]) -> None:
        self._pairs += len(ancestors) - len(self._anc.get(node, ()))
        self._anc[node] = set(ancestors)

    def clear(self) -> None:
        self._anc.clear()
        self._pairs = 0

    # -- bulk operations ------------------------------------------------------------

    def recompute(self, store: "ViewStore", topo: "TopoOrder") -> None:
        self.clear()
        rows = self._anc
        for node in topo.backward():
            ancestors: set[int] = set()
            for parent in store.parents_of(node):
                ancestors.add(parent)
                row = rows.get(parent)
                if row:
                    ancestors |= row
            if ancestors:
                self.set_ancestors(node, ancestors)

    def add_closure_below(
        self, store: "ViewStore", parents: Iterable[int], node: int
    ) -> int:
        parents = list(parents)
        missing = set(parents) | self.anc_of_set(parents)
        missing -= self._anc.get(node, set())
        if not missing:
            return 0
        rows = self._anc
        added = 0
        stack, seen = [node], {node}
        while stack:
            desc = stack.pop()
            row = rows.setdefault(desc, set())
            new = missing - row
            if not new:
                continue
            row |= new
            added += len(new)
            for child in store.children_of(desc):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        self._pairs += added
        return added

    def retain_below(
        self, store: "ViewStore", order: Iterable[int]
    ) -> tuple[int, list[int]]:
        rows = self._anc
        removed = 0
        condemned: list[int] = []
        doomed: set[int] = set()
        for node in order:
            keep: set[int] = set()
            for parent in store.parents.get(node, set()) - doomed:
                keep.add(parent)
                keep |= rows.get(parent, set())
            if not keep and node != store.root_id:
                doomed.add(node)
                condemned.append(node)
            old = rows.get(node, set())
            if not old <= keep:
                removed += len(old - keep)
                rows[node] = old & keep
        self._pairs -= removed
        return removed, condemned

    # -- management -----------------------------------------------------------------

    def equals(self, other: ReachabilityIndex) -> bool:
        if isinstance(other, SetReachabilityIndex):
            mine = {(a, d) for d, ancs in self._anc.items() for a in ancs}
            theirs = {(a, d) for d, ancs in other._anc.items() for a in ancs}
            return mine == theirs
        return super().equals(other)


class _RowMasks:
    """The ancestor sets read as bitmasks: what :class:`Region` ANDs."""

    __slots__ = ("_rows",)

    def __init__(self, rows: dict[int, set[int]]):
        self._rows = rows

    def get(self, node: int, default: int = 0) -> int:
        return mask_of(self._rows.get(node, ()))
