"""The reachability-index interface.

A :class:`ReachabilityIndex` is the paper's matrix ``M``: the set of
(ancestor, descendant) pairs of the DAG view, stored as one *ancestor*
row per node, with O(1) pair membership.  Every consumer (Algorithm
Reach, the Δ(M,L) maintenance algorithms, the DAG XPath evaluator, the
updater) talks to this interface only.  The product has one
implementation, :class:`~repro.index.bitset.BitsetReachabilityIndex`
(one arbitrary-precision ``int`` bitmask per row keyed by the store's
dense node ids); the interface is the seam through which a test
substitutes the reference it is checked against,
:class:`repro.baselines.SetReachabilityIndex` (the paper's matrix as a
dict of ``set`` rows).

There is no descendant row.  Δ(M,L)delete recomputes ancestor rows
only, so a transpose would cost one write per removed pair for nothing;
a descendant set that must be listed is a walk of the store's edges,
and a descendant membership question is answered on the candidate's
own row by :meth:`ReachabilityIndex.region`.

Besides the point queries/mutations the interface carries the *bulk*
operations the hot loops are written against — ``recompute`` (Algorithm
Reach), ``add_closure_below`` (Δ(M,L)insert) and ``retain_below``
(Δ(M,L)delete) — so an implementation does them in its own
representation instead of per-pair calls.

Row accessors (``anc`` / ``anc_of_set`` / ``anc_or_self_mask``) return
**detached** values: mutating the result never corrupts the index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.topo import TopoOrder
    from repro.index._bits import Region
    from repro.views.store import ViewStore


class ReachabilityIndex(ABC):
    """Abstract reachability matrix ``M`` over dense integer node ids."""

    __slots__ = ()

    # -- queries ------------------------------------------------------------------

    @abstractmethod
    def anc(self, node: int) -> set[int]:
        """Proper ancestors of ``node`` as a *detached* set."""

    @abstractmethod
    def is_ancestor(self, a: int, d: int) -> bool:
        """Is bit ``(a, d)`` set?"""

    @abstractmethod
    def __len__(self) -> int:
        """|M|: the stored (anc, desc) pairs, summed over the rows on
        demand (no write keeps a count; no timed path reads it)."""

    @abstractmethod
    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate every stored ``(anc, desc)`` pair."""

    @abstractmethod
    def anc_of_set(self, nodes: Iterable[int]) -> set[int]:
        """Union of proper ancestors over ``nodes`` (detached)."""

    @abstractmethod
    def anc_or_self_mask(self, nodes: Iterable[int]) -> int:
        """``nodes`` and all their ancestors as one bitmask (bit ``k``
        set for node ``k``).  Whether any of them lies in ``S ∪
        desc(S)`` is then one AND with ``mask(S)``: the subscription
        engine asks it once per event for every standing query."""

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, d = pair
        return self.is_ancestor(a, d)

    @abstractmethod
    def region(self, store: "ViewStore", nodes: list[int]) -> "Region":
        """``nodes ∪ desc(nodes)`` as a :class:`~repro.index._bits.Region`.

        Membership reads the candidate's ancestor row, iteration walks
        ``store``.  The view is live: hold it only until the next write
        to ``M`` or the store (the evaluator's ``//`` regions, the
        subscription engine's closures).  ``L``'s repair does not use
        it: ``swap`` walks the store's edges below its node.
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
    def add_closure_below(
        self, store: "ViewStore", parents: Iterable[int], node: int
    ) -> None:
        """Close ``M`` over the new edges ``(p, node)``, ``p`` in parents.

        Adds ``anc*(parents) × ({node} ∪ desc(node))``, where
        ``anc*(parents)`` is the parents and their ancestors — the
        edge-insertion step of Δ(M,L)insert.  Only the bits of
        ``anc*(parents)`` missing from ``anc(node)`` are written, and
        when nothing is missing the call returns at once.  Otherwise
        the lower set is walked on ``store``'s edges from ``node``, and
        only below the rows the call writes: ``M`` is closed along the
        edges it already covers, so a row that holds every missing bit
        has them below it too.  The edges must not close a cycle (no
        parent in ``{node} ∪ desc(node)``), and every row read must be a
        subset of the store's closure, as Δ(M,L)'s delete-first repair
        leaves them; then no row gets its own node.  Never removes pairs.
        """

    @abstractmethod
    def retain_below(
        self, store: "ViewStore", order: Iterable[int]
    ) -> list[int]:
        """Recompute the ancestor rows of ``order`` from their parents.

        Δ(M,L)delete's sweep over ``LR``, given ancestors first: each
        node keeps only ``{p} ∪ anc(p)`` over its parents (read from
        ``store.parents``) that the sweep has not condemned, and a node
        other than ``store.root_id`` left with no such parent is
        condemned.  Never adds pairs; returns the condemned nodes in
        sweep order.
        """

    # -- management -----------------------------------------------------------------

    def equals(self, other: "ReachabilityIndex") -> bool:
        """Same set of (anc, desc) pairs — works across implementations."""
        return len(self) == len(other) and set(self.pairs()) == set(
            other.pairs()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} |M|={len(self)}>"
