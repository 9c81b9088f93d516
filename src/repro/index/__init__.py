"""The reachability index (the paper's matrix ``M``).

:class:`ReachabilityIndex` says *what* ``M`` answers (ancestor rows,
pair and descendant-region membership, Algorithm Reach, the Δ(M,L) bulk
maintenance steps); :class:`BitsetReachabilityIndex` — a dict of
``int`` ancestor-row bitmasks over dense node ids — is *how* it is
stored, and the only implementation the product constructs.
:func:`build_index` runs Algorithm Reach over a store.

The interface is kept as the seam through which tests substitute the
reference ``M`` is checked against,
:class:`repro.baselines.SetReachabilityIndex`; see
``docs/index-backends.md`` for that and for why there is no other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.index.base import ReachabilityIndex
from repro.index.bitset import BitsetReachabilityIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore


def build_index(store: "ViewStore", topo: "TopoOrder") -> ReachabilityIndex:
    """Algorithm Reach: compute ``M`` for ``store`` in ``O(n·|V|)``."""
    index = BitsetReachabilityIndex()
    index.recompute(store, topo)
    return index


__all__ = [
    "ReachabilityIndex",
    "BitsetReachabilityIndex",
    "build_index",
]
