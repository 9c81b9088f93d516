"""The reachability index (the paper's matrix ``M``).

The index subsystem decouples *what* ``M`` answers (ancestor /
descendant queries, Algorithm Reach, the Δ(M,L) bulk maintenance steps)
from *how* it is stored.  Two backends ship:

==========  ==================================================  =========
name        representation                                      role
==========  ==================================================  =========
``bitset``  dict of ``int`` bitmask rows over dense node ids    the index
``sets``    dict of ``set[int]`` rows (the original matrix)     oracle
==========  ==================================================  =========

``bitset`` is the default and the only production value; ``sets`` is the
reference the lockstep tests substitute for it.  See
``docs/index-backends.md`` for why there is no third.

Use :func:`make_index` for an empty index, :func:`build_index` to run
Algorithm Reach over a store, and :data:`BACKENDS` to enumerate both
(the cross-backend equivalence tests iterate it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.index.base import ReachabilityIndex
from repro.index.bitset import BitsetReachabilityIndex
from repro.index.sets import SetReachabilityIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.topo import TopoOrder
    from repro.views.store import ViewStore

#: Concrete backends by registry name.
BACKENDS: dict[str, type[ReachabilityIndex]] = {
    BitsetReachabilityIndex.backend: BitsetReachabilityIndex,
    SetReachabilityIndex.backend: SetReachabilityIndex,
}


def resolve_backend(backend: str) -> str:
    """Validate a backend name (``ReproError`` on anything unknown)."""
    if backend not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ReproError(
            f"unknown reachability-index backend {backend!r} "
            f"(known: {known})"
        )
    return backend


def make_index(backend: str = "bitset") -> ReachabilityIndex:
    """An empty reachability index of the given backend."""
    return BACKENDS[resolve_backend(backend)]()


def build_index(
    store: "ViewStore", topo: "TopoOrder", backend: str = "bitset"
) -> ReachabilityIndex:
    """Algorithm Reach: compute ``M`` for ``store`` in ``O(n·|V|)``."""
    index = make_index(backend)
    index.recompute(store, topo)
    return index


__all__ = [
    "BACKENDS",
    "BitsetReachabilityIndex",
    "ReachabilityIndex",
    "SetReachabilityIndex",
    "build_index",
    "make_index",
    "resolve_backend",
]
