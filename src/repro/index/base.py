"""The pluggable reachability-index interface.

A :class:`ReachabilityIndex` is the paper's matrix ``M``: the set of
(ancestor, descendant) pairs of the DAG view, with O(1) membership and
row access in both directions.  Every consumer (Algorithm Reach, the
Δ(M,L) maintenance algorithms, the DAG XPath evaluator, the updater)
talks to this interface only, so the physical representation is a
backend choice:

- ``sets``   — :class:`~repro.index.sets.SetReachabilityIndex`, the
  original dict-of-``set`` matrix, kept as the reference/oracle;
- ``bitset`` — :class:`~repro.index.bitset.BitsetReachabilityIndex`,
  one arbitrary-precision ``int`` bitmask per row keyed by the store's
  dense node ids (union = ``|``, membership = ``>> k & 1``, cardinality
  = ``int.bit_count()``).

Besides the point queries/mutations the interface carries the *bulk*
operations the hot loops are written against — ``recompute`` (Algorithm
Reach), ``extend_ancestors`` / ``add_cross_pairs`` (Δ(M,L)insert),
``retain_ancestors`` (Δ(M,L)delete) and ``anc_of_set`` / ``desc_of_set``
(region queries) — so each backend can implement them in its native
representation instead of per-pair calls.

Row accessors (``anc``/``desc``/``anc_of_set``/``desc_of_set``) return
**detached** sets: mutating the result never corrupts the index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


class ReachabilityIndex(ABC):
    """Abstract reachability matrix ``M`` over dense integer node ids."""

    __slots__ = ()

    #: Registry name of the concrete backend ("sets", "bitset", ...).
    backend: str = "abstract"

    #: Whether :meth:`desc_mask_of_set` is backed by a physical bit
    #: representation (no Python-set materialization).  Consumers like
    #: the DAG evaluator branch on this to keep region unions in mask
    #: space on the fast backends while staying set-based on ``sets``.
    native_masks: bool = False

    # -- queries ------------------------------------------------------------------

    @abstractmethod
    def anc(self, node: int) -> set[int]:
        """Proper ancestors of ``node`` as a *detached* set."""

    @abstractmethod
    def desc(self, node: int) -> set[int]:
        """Proper descendants of ``node`` as a *detached* set."""

    @abstractmethod
    def is_ancestor(self, a: int, d: int) -> bool:
        """Is bit ``(a, d)`` set?"""

    @abstractmethod
    def __len__(self) -> int:
        """|M|: number of set bits (stored (anc, desc) pairs)."""

    @abstractmethod
    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate every stored ``(anc, desc)`` pair."""

    @abstractmethod
    def anc_of_set(self, nodes: Iterable[int]) -> set[int]:
        """Union of proper ancestors over ``nodes`` (detached)."""

    @abstractmethod
    def desc_of_set(self, nodes: Iterable[int]) -> set[int]:
        """Union of proper descendants over ``nodes`` (detached)."""

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, d = pair
        return self.is_ancestor(a, d)

    def desc_view(self, node: int):
        """Read-only membership view of ``desc(node)``.

        Unlike :meth:`desc` this may alias backend internals (it exists
        to avoid materializing large rows for a membership test, e.g.
        the ``swap`` repair of ``L``) — callers must not mutate it and
        must not hold it across index mutations.
        """
        return self.desc(node)

    def desc_mask_of_set(self, nodes: Iterable[int]):
        """Union of proper descendants over ``nodes`` as a
        :class:`~repro.index._bits.MaskView`.

        The mask-returning sibling of :meth:`desc_of_set` for consumers
        that only need membership/iteration (the evaluator's region
        unions).  Backends with :attr:`native_masks` build the mask by
        OR-ing rows directly; this default round-trips through the set
        form, so it is only a compatibility shim for the ``sets``
        backend.  Same detachment contract as :meth:`desc_of_set`.
        """
        from repro.index._bits import MaskView, mask_of

        return MaskView(mask_of(self.desc_of_set(nodes)))

    # -- point mutation -----------------------------------------------------------

    @abstractmethod
    def insert(self, anc: int, desc: int) -> bool:
        """Set bit (anc, desc); returns True if newly set."""

    @abstractmethod
    def remove(self, anc: int, desc: int) -> bool:
        """Clear bit (anc, desc); returns True if it was set."""

    @abstractmethod
    def set_ancestors(self, node: int, ancestors: set[int]) -> None:
        """Replace the ancestor set of ``node`` wholesale."""

    @abstractmethod
    def drop_node(self, node: int) -> None:
        """Remove every pair mentioning ``node``."""

    @abstractmethod
    def clear(self) -> None:
        """Remove every pair."""

    # -- bulk operations (the hot loops) -------------------------------------------

    @abstractmethod
    def recompute(self, store: "ViewStore", topo: "TopoOrder") -> None:
        """Algorithm Reach (paper, Fig. 4) into ``self``, replacing it.

        Processes nodes in backward topological order (ancestors first):
        a node's ancestor row is the union of its parents and their
        already-computed rows.
        """

    @abstractmethod
    def extend_ancestors(self, node: int, parents: Iterable[int]) -> int:
        """Add ``{p} ∪ anc(p)`` for every parent to ``node``'s ancestors.

        The localized-Reach step of Δ(M,L)insert.  Never removes pairs;
        returns the number of pairs newly added.
        """

    @abstractmethod
    def add_cross_pairs(
        self, upper: Iterable[int], lower: Iterable[int]
    ) -> int:
        """Set bit (a, d) for every ``a`` in upper, ``d`` in lower.

        The cross-product step of Δ(M,L)insert (``anc*(r[[p]]) ×
        ST(A, t)``).  Returns the number of pairs newly added.
        """

    def add_anc_closure_pairs(
        self, targets: Iterable[int], lower: Iterable[int]
    ) -> int:
        """``add_cross_pairs(targets ∪ anc_of_set(targets), lower)``.

        Fused so backends can form the upper closure natively (the
        bitset backend never materializes it as a Python set).
        """
        targets = list(targets)
        return self.add_cross_pairs(
            set(targets) | self.anc_of_set(targets), lower
        )

    @abstractmethod
    def retain_ancestors(self, node: int, parents: Iterable[int]) -> int:
        """Drop ancestors of ``node`` not derivable from ``parents``.

        The per-node step of Δ(M,L)delete: keep only ``{p} ∪ anc(p)``
        over the surviving parents.  Never adds pairs; returns the
        number of pairs removed.
        """

    def retain_sweep(
        self, store: "ViewStore", lr: list[int], root_id: int | None
    ) -> tuple[int, list[int]]:
        """The full ancestor-recomputation sweep of Δ(M,L)delete.

        ``lr`` is the affected region in topological order (descendants
        first); the sweep walks it ancestors-first, recomputing each
        node's ancestor row from its surviving parents and condemning
        nodes left with no surviving parent (``keep := false``).  The
        store must not be mutated while the sweep runs — callers apply
        the garbage-collection feed afterwards.

        Returns ``(removed_pairs, condemned)`` with ``condemned`` in
        ancestors-first order.  Backends may override this with a bulk
        implementation; the default is the per-node loop over
        :meth:`retain_ancestors`.
        """
        removed = 0
        condemned: set[int] = set()
        order: list[int] = []
        for node in reversed(lr):  # ancestors first
            parents = store.parents_of(node)
            surviving = (
                [p for p in parents if p not in condemned]
                if condemned
                else parents
            )
            removed += self.retain_ancestors(node, surviving)
            if not surviving and node != root_id:
                condemned.add(node)
                order.append(node)
        return removed, order

    # -- management -----------------------------------------------------------------

    def equals(self, other: "ReachabilityIndex") -> bool:
        """Same set of (anc, desc) pairs — works across backends."""
        return len(self) == len(other) and set(self.pairs()) == set(
            other.pairs()
        )

    def check_invariants(self) -> list[str]:
        """Internal-consistency report (empty list = healthy).

        Checks that the ancestor and descendant mirrors are exact
        transposes and that ``len(self)`` equals the true pair count.
        """
        problems: list[str] = []
        anc_pairs = set(self.pairs())
        desc_pairs = {
            (a, d)
            for a in {p for p, _ in anc_pairs} | self._desc_keys()
            for d in self.desc(a)
        }
        if anc_pairs != desc_pairs:
            missing = sorted(anc_pairs - desc_pairs)[:5]
            extra = sorted(desc_pairs - anc_pairs)[:5]
            problems.append(
                f"anc/desc mirrors disagree: desc missing {missing}, "
                f"desc extra {extra}"
            )
        if len(self) != len(anc_pairs):
            problems.append(
                f"pair count {len(self)} != true count {len(anc_pairs)}"
            )
        return problems

    @abstractmethod
    def _desc_keys(self) -> set[int]:
        """Nodes with a (possibly empty) stored descendant row."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} backend={self.backend} |M|={len(self)}>"
