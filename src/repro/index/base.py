"""The reachability-index interface.

A :class:`ReachabilityIndex` is the paper's matrix ``M``: the set of
(ancestor, descendant) pairs of the DAG view, with O(1) membership and
row access in both directions.  Every consumer (Algorithm Reach, the
Δ(M,L) maintenance algorithms, the DAG XPath evaluator, the updater)
talks to this interface only.  The product has one implementation,
:class:`~repro.index.bitset.BitsetReachabilityIndex` (one
arbitrary-precision ``int`` bitmask per row keyed by the store's dense
node ids); the interface is the seam through which a test substitutes
the reference it is checked against,
:class:`repro.baselines.SetReachabilityIndex` (the paper's matrix as a
dict of ``set`` rows).

Besides the point queries/mutations the interface carries the *bulk*
operations the hot loops are written against — ``recompute`` (Algorithm
Reach), ``extend_ancestors`` / ``add_anc_closure_pairs`` (Δ(M,L)insert),
``retain_ancestors`` (Δ(M,L)delete) and ``anc_of_set`` / ``desc_of_set``
/ ``desc_mask_of_set`` (region queries) — so an implementation does
them in its own representation instead of per-pair calls.

Row accessors (``anc``/``desc``/``anc_of_set``/``desc_of_set``) return
**detached** sets: mutating the result never corrupts the index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.index._bits import MaskView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


class ReachabilityIndex(ABC):
    """Abstract reachability matrix ``M`` over dense integer node ids."""

    __slots__ = ()

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

    @abstractmethod
    def desc_view(self, node: int):
        """Read-only membership view of ``desc(node)``.

        Unlike :meth:`desc` this may alias internals (it exists to
        avoid materializing large rows for a membership test, e.g. the
        ``swap`` repair of ``L``) — callers must not mutate it and must
        not hold it across index mutations.
        """

    @abstractmethod
    def desc_mask_of_set(self, nodes: Iterable[int]) -> MaskView:
        """Union of proper descendants over ``nodes`` as a
        :class:`~repro.index._bits.MaskView`.

        The mask-returning sibling of :meth:`desc_of_set` for consumers
        that only need membership/iteration (the evaluator's region
        unions).  Same detachment contract as :meth:`desc_of_set`.
        """

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

    @abstractmethod
    def add_anc_closure_pairs(
        self, targets: Iterable[int], lower: Iterable[int]
    ) -> int:
        """``add_cross_pairs(targets ∪ anc_of_set(targets), lower)``.

        Fused so the upper closure is formed in the implementation's
        own representation (the bitset index never materializes it as a
        Python set).
        """

    @abstractmethod
    def retain_ancestors(self, node: int, parents: Iterable[int]) -> int:
        """Drop ancestors of ``node`` not derivable from ``parents``.

        The per-node step of Δ(M,L)delete: keep only ``{p} ∪ anc(p)``
        over the surviving parents.  Never adds pairs; returns the
        number of pairs removed.
        """

    # -- management -----------------------------------------------------------------

    def equals(self, other: "ReachabilityIndex") -> bool:
        """Same set of (anc, desc) pairs — works across implementations."""
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
        return f"<{type(self).__name__} |M|={len(self)}>"
