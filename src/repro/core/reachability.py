"""The reachability matrix ``M`` and Algorithm Reach (paper, Fig. 4).

The implementation lives in the pluggable index subsystem
(:mod:`repro.index`); this module keeps the historical entry points:

- :class:`ReachabilityMatrix` — the original dict-of-``set`` matrix, now
  :class:`repro.index.SetReachabilityIndex` (the reference backend);
- :func:`compute_reach` — Algorithm Reach, with an optional ``backend``
  argument selecting the physical representation (``"sets"`` by default
  for drop-in compatibility; pass ``"bitset"`` for the integer-bitmask
  engine).

New code should program against :class:`repro.index.ReachabilityIndex`
and :func:`repro.index.build_index` directly.
"""

from __future__ import annotations

from repro.core.topo import TopoOrder
from repro.index import ReachabilityIndex, SetReachabilityIndex, build_index
from repro.views.store import ViewStore

#: Backward-compatible name for the reference (set-based) backend.
ReachabilityMatrix = SetReachabilityIndex


def compute_reach(
    store: ViewStore, topo: TopoOrder, backend: str = "sets"
) -> ReachabilityIndex:
    """Algorithm Reach (paper, Fig. 4): ``M`` in ``O(n·|V|)``.

    Nodes are processed in backward topological order (ancestors first),
    so every parent's ancestor set is ready when a node is reached; the
    node's ancestors are its parents plus their ancestors.
    """
    return build_index(store, topo, backend)


__all__ = ["ReachabilityMatrix", "compute_reach"]
