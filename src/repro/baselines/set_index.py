"""The reference reachability index: two mirrored dict-of-``set`` maps.

The paper's matrix as first written, behind the
:class:`~repro.index.base.ReachabilityIndex` interface and kept as the
oracle :class:`~repro.index.bitset.BitsetReachabilityIndex` is validated
against (the lockstep tests drive both; the product never constructs
this one).  ``M`` is "physically stored" as the set of its set bits —
two mutually consistent adjacency maps (node → ancestors, node →
descendants), the in-memory equivalent of the paper's ``M(anc, desc)``
relation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.index._bits import MaskView, mask_of
from repro.index.base import ReachabilityIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


class SetReachabilityIndex(ReachabilityIndex):
    """Sparse reachability matrix with both-direction access."""

    __slots__ = ("_anc", "_desc", "_pairs")

    def __init__(self) -> None:
        self._anc: dict[int, set[int]] = {}
        self._desc: dict[int, set[int]] = {}
        self._pairs = 0

    # -- queries ------------------------------------------------------------------

    def anc(self, node: int) -> set[int]:
        """Proper ancestors of ``node`` (excludes the node itself)."""
        return set(self._anc.get(node, ()))

    def desc(self, node: int) -> set[int]:
        """Proper descendants of ``node`` (excludes the node itself)."""
        return set(self._desc.get(node, ()))

    def is_ancestor(self, a: int, d: int) -> bool:
        return d in self._desc.get(a, ())

    def desc_view(self, node: int):
        return self._desc.get(node, frozenset())

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

    def desc_of_set(self, nodes: Iterable[int]) -> set[int]:
        out: set[int] = set()
        rows = self._desc
        for node in nodes:
            row = rows.get(node)
            if row:
                out |= row
        return out

    def desc_mask_of_set(self, nodes: Iterable[int]) -> MaskView:
        return MaskView(mask_of(self.desc_of_set(nodes)))

    # -- point mutation -----------------------------------------------------------

    def insert(self, anc: int, desc: int) -> bool:
        bucket = self._anc.setdefault(desc, set())
        if anc in bucket:
            return False
        bucket.add(anc)
        self._desc.setdefault(anc, set()).add(desc)
        self._pairs += 1
        return True

    def remove(self, anc: int, desc: int) -> bool:
        bucket = self._anc.get(desc)
        if bucket is None or anc not in bucket:
            return False
        bucket.discard(anc)
        self._desc.get(anc, set()).discard(desc)
        self._pairs -= 1
        return True

    def set_ancestors(self, node: int, ancestors: set[int]) -> None:
        old = self._anc.get(node, set())
        for anc in old - ancestors:
            self._desc.get(anc, set()).discard(node)
            self._pairs -= 1
        for anc in ancestors - old:
            self._desc.setdefault(anc, set()).add(node)
            self._pairs += 1
        self._anc[node] = set(ancestors)

    def drop_node(self, node: int) -> None:
        for anc in self._anc.pop(node, set()):
            self._desc.get(anc, set()).discard(node)
            self._pairs -= 1
        for desc in self._desc.pop(node, set()):
            self._anc.get(desc, set()).discard(node)
            self._pairs -= 1

    def clear(self) -> None:
        self._anc.clear()
        self._desc.clear()
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

    def extend_ancestors(self, node: int, parents: Iterable[int]) -> int:
        rows = self._anc
        gained: set[int] = set()
        for parent in parents:
            gained.add(parent)
            row = rows.get(parent)
            if row:
                gained |= row
        old = rows.get(node)
        if old is not None:
            gained -= old
        if not gained:
            return 0
        if old is None:
            rows[node] = set(gained)
        else:
            old |= gained
        mirror = self._desc
        for anc in gained:
            mirror.setdefault(anc, set()).add(node)
        self._pairs += len(gained)
        return len(gained)

    def add_cross_pairs(
        self, upper: Iterable[int], lower: Iterable[int]
    ) -> int:
        uppers = set(upper)
        if not uppers:
            return 0
        rows = self._anc
        mirror = self._desc
        added = 0
        for node in lower:
            row = rows.setdefault(node, set())
            new = uppers - row
            if not new:
                continue
            row |= new
            added += len(new)
            for anc in new:
                mirror.setdefault(anc, set()).add(node)
        self._pairs += added
        return added

    def add_anc_closure_pairs(
        self, targets: Iterable[int], lower: Iterable[int]
    ) -> int:
        targets = list(targets)
        return self.add_cross_pairs(
            set(targets) | self.anc_of_set(targets), lower
        )

    def retain_ancestors(self, node: int, parents: Iterable[int]) -> int:
        rows = self._anc
        keep: set[int] = set()
        for parent in parents:
            keep.add(parent)
            row = rows.get(parent)
            if row:
                keep |= row
        old = rows.get(node)
        if not old:
            return 0
        removed = old - keep
        if not removed:
            return 0
        mirror = self._desc
        for anc in removed:
            mirror.get(anc, set()).discard(node)
        rows[node] = old & keep
        self._pairs -= len(removed)
        return len(removed)

    # -- management -----------------------------------------------------------------

    def equals(self, other: ReachabilityIndex) -> bool:
        if isinstance(other, SetReachabilityIndex):
            mine = {(a, d) for d, ancs in self._anc.items() for a in ancs}
            theirs = {(a, d) for d, ancs in other._anc.items() for a in ancs}
            return mine == theirs
        return super().equals(other)

    def _desc_keys(self) -> set[int]:
        return set(self._desc)
